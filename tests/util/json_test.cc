#include "util/json.h"

#include <gtest/gtest.h>

namespace icewafl {
namespace {

TEST(JsonTest, ScalarTypes) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3.5).is_number());
  EXPECT_TRUE(Json(7).is_number());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_EQ(Json(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Json(int64_t{42}).AsInt64(), 42);
  EXPECT_EQ(Json("hi").AsString(), "hi");
}

TEST(JsonTest, DumpScalars) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(1.5).Dump(), "1.5");
  EXPECT_EQ(Json(2).Dump(), "2");
  EXPECT_EQ(Json("x").Dump(), "\"x\"");
}

TEST(JsonTest, DumpEscapesStrings) {
  EXPECT_EQ(Json("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(JsonTest, ObjectSetGet) {
  Json obj = Json::MakeObject();
  obj.Set("a", 1);
  obj.Set("b", "two");
  EXPECT_TRUE(obj.Has("a"));
  EXPECT_FALSE(obj.Has("c"));
  EXPECT_EQ(obj.Get("a").ValueOrDie().AsInt64(), 1);
  EXPECT_EQ(obj.Get("b").ValueOrDie().AsString(), "two");
  EXPECT_EQ(obj.Get("missing").status().code(), StatusCode::kNotFound);
}

TEST(JsonTest, GetOnNonObjectIsTypeError) {
  EXPECT_EQ(Json(1.0).Get("x").status().code(), StatusCode::kTypeError);
}

TEST(JsonTest, TypedGettersWithFallback) {
  Json obj = Json::MakeObject();
  obj.Set("d", 2.5);
  obj.Set("i", 9);
  obj.Set("b", true);
  obj.Set("s", "str");
  EXPECT_EQ(obj.GetDouble("d", -1), 2.5);
  EXPECT_EQ(obj.GetInt("i", -1), 9);
  EXPECT_TRUE(obj.GetBool("b", false));
  EXPECT_EQ(obj.GetString("s", ""), "str");
  EXPECT_EQ(obj.GetDouble("missing", -1), -1);
  EXPECT_EQ(obj.GetString("d", "fallback"), "fallback");  // wrong type
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE(Json::Parse("null").ValueOrDie().is_null());
  EXPECT_TRUE(Json::Parse("true").ValueOrDie().AsBool());
  EXPECT_FALSE(Json::Parse("false").ValueOrDie().AsBool());
  EXPECT_DOUBLE_EQ(Json::Parse("-3.5e2").ValueOrDie().AsDouble(), -350.0);
  EXPECT_EQ(Json::Parse("\"hi\"").ValueOrDie().AsString(), "hi");
}

TEST(JsonTest, ParseNested) {
  auto r = Json::Parse(R"({"a": [1, 2, {"b": null}], "c": "x"})");
  ASSERT_TRUE(r.ok());
  const Json& doc = r.ValueOrDie();
  const Json a = doc.Get("a").ValueOrDie();
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.items()[0].AsInt64(), 1);
  EXPECT_TRUE(a.items()[2].Get("b").ValueOrDie().is_null());
}

TEST(JsonTest, ParseStringEscapes) {
  auto r = Json::Parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().AsString(), "a\"b\\c\ndA");
}

TEST(JsonTest, ParseUnicodeEscape) {
  auto r = Json::Parse(R"("\u00e9")");  // e-acute as a BMP escape
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().AsString(), "\xc3\xa9");
  // Raw UTF-8 bytes pass through untouched.
  auto raw = Json::Parse("\"\xc3\xa9\"");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.ValueOrDie().AsString(), "\xc3\xa9");
}

TEST(JsonTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\": }").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(Json::Parse("01a").ok());
  EXPECT_FALSE(Json::Parse("1e").ok());
}

std::string Nested(int depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonTest, ParseAcceptsNestingAtTheCap) {
  auto r = Json::Parse(Nested(Json::kMaxDepth));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Objects count toward the same cap.
  std::string objects;
  for (int i = 0; i < Json::kMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(Json::kMaxDepth, '}');
  EXPECT_TRUE(Json::Parse(objects).ok());
}

TEST(JsonTest, ParseRejectsNestingPastTheCap) {
  auto r = Json::Parse(Nested(Json::kMaxDepth + 1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  // The offset names the first container past the cap.
  EXPECT_NE(r.status().message().find(
                "(at offset " + std::to_string(Json::kMaxDepth) + ")"),
            std::string::npos)
      << r.status().message();
}

TEST(JsonTest, HostileNestingIsAnErrorNotACrash) {
  // 100k unclosed '[' once overflowed the stack of the recursive parser.
  auto r = Json::Parse(std::string(100000, '['));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("nesting deeper than"),
            std::string::npos);
  EXPECT_FALSE(Json::Parse("{\"a\":" + std::string(100000, '[')).ok());
}

TEST(JsonTest, ParseWhitespaceTolerant) {
  auto r = Json::Parse("  {\n \"a\" :\t[ 1 , 2 ]\r\n}  ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().Get("a").ValueOrDie().size(), 2u);
}

TEST(JsonTest, RoundTripComplexDocument) {
  Json doc = Json::MakeObject();
  doc.Set("name", "pipeline");
  Json arr = Json::MakeArray();
  Json inner = Json::MakeObject();
  inner.Set("p", 0.25);
  inner.Set("enabled", true);
  inner.Set("note", Json());
  arr.Append(std::move(inner));
  arr.Append(Json(7));
  doc.Set("items", std::move(arr));

  auto reparsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.ValueOrDie(), doc);

  auto reparsed_pretty = Json::Parse(doc.DumpPretty());
  ASSERT_TRUE(reparsed_pretty.ok());
  EXPECT_EQ(reparsed_pretty.ValueOrDie(), doc);
}

TEST(JsonTest, EmptyContainersDump) {
  EXPECT_EQ(Json::MakeArray().Dump(), "[]");
  EXPECT_EQ(Json::MakeObject().Dump(), "{}");
  EXPECT_EQ(Json::Parse("[]").ValueOrDie().size(), 0u);
  EXPECT_EQ(Json::Parse("{}").ValueOrDie().size(), 0u);
}

TEST(JsonTest, DeterministicKeyOrder) {
  Json a = Json::MakeObject();
  a.Set("z", 1);
  a.Set("a", 2);
  Json b = Json::MakeObject();
  b.Set("a", 2);
  b.Set("z", 1);
  EXPECT_EQ(a.Dump(), b.Dump());  // sorted keys => insertion order irrelevant
}

TEST(JsonTest, EqualityIsDeep) {
  auto a = Json::Parse(R"({"x":[1,{"y":true}]})").ValueOrDie();
  auto b = Json::Parse(R"({"x":[1,{"y":true}]})").ValueOrDie();
  auto c = Json::Parse(R"({"x":[1,{"y":false}]})").ValueOrDie();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace icewafl
