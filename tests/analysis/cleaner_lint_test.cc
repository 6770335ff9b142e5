// IW70x cleaner-document lint + the IW616 admin gate + the soundness
// property: any cleaning document the analyzer passes error-free
// against a schema must also load, bind, and run without a Status
// error.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "clean/cleaner.h"
#include "clean/config.h"
#include "data/wearable.h"
#include "stream/sink.h"

namespace icewafl {
namespace analysis {
namespace {

SchemaPtr WearableSchema() { return data::WearableSchema(); }

Diagnostics Analyze(const std::string& text, SchemaPtr schema = nullptr) {
  auto json = Json::Parse(text);
  EXPECT_TRUE(json.ok()) << text;
  CleanerAnalyzeOptions options;
  options.schema = std::move(schema);
  return AnalyzeCleanerRules(json.ValueOrDie(), options);
}

std::string PathOf(const Diagnostics& diags, const std::string& code) {
  for (const Diagnostic& d : diags.items()) {
    if (d.code == code) return d.path;
  }
  return "<code not found>";
}

TEST(CleanerLintTest, CleanDocumentPassesWithSchema) {
  Diagnostics diags = Analyze(
      R"({"name": "ok", "history": 32, "rules": [
        {"label": "a", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "clamp",
         "when": [{"column": "Steps", "op": "gt", "value": 0}]},
        {"label": "b", "column": "Distance",
         "detect": {"type": "cross_field", "op": "le", "other": "Steps"},
         "repair": "window_mean"}]})",
      WearableSchema());
  EXPECT_FALSE(diags.HasErrors()) << diags.ToReport();
  EXPECT_EQ(diags.WarningCount(), 0u) << diags.ToReport();
}

TEST(CleanerLintTest, IW701DocumentShape) {
  EXPECT_TRUE(Analyze(R"([1, 2])").HasCode("IW701"));
  EXPECT_TRUE(Analyze(R"({"name": "x"})").HasCode("IW701"));
  EXPECT_TRUE(Analyze(R"({"rules": 7})").HasCode("IW701"));
  EXPECT_TRUE(Analyze(R"({"history": 0, "rules": []})").HasCode("IW701"));
  EXPECT_TRUE(Analyze(R"({"name": 5, "rules": []})").HasCode("IW701"));
  // Empty rules array: a warning, not an error.
  Diagnostics empty = Analyze(R"({"rules": []})");
  EXPECT_TRUE(empty.HasCode("IW701"));
  EXPECT_FALSE(empty.HasErrors()) << empty.ToReport();
}

TEST(CleanerLintTest, IW702MalformedRuleEntries) {
  Diagnostics diags = Analyze(R"({"rules": [
    7,
    {"column": "BPM", "detect": {"type": "not_null"}, "repair": "drop"},
    {"label": "c", "column": "BPM", "repair": "drop"},
    {"label": "d", "column": "BPM", "detect": {"type": "not_null"},
     "repair": "drop", "when": [17]}
  ]})");
  EXPECT_TRUE(diags.HasCode("IW702")) << diags.ToReport();
  EXPECT_EQ(PathOf(diags, "IW702"), "/rules/0");
}

TEST(CleanerLintTest, IW703UnknownOrNonNumericColumn) {
  Diagnostics unknown = Analyze(
      R"({"rules": [{"label": "a", "column": "Heartrate",
          "detect": {"type": "not_null"}, "repair": "drop"}]})",
      WearableSchema());
  EXPECT_TRUE(unknown.HasCode("IW703")) << unknown.ToReport();
  EXPECT_EQ(PathOf(unknown, "IW703"), "/rules/0/column");

  // Without a schema, column checks are skipped entirely.
  Diagnostics unchecked = Analyze(
      R"({"rules": [{"label": "a", "column": "Heartrate",
          "detect": {"type": "not_null"}, "repair": "drop"}]})");
  EXPECT_FALSE(unchecked.HasCode("IW703")) << unchecked.ToReport();

  // Guard columns are numeric positions too.
  Diagnostics guard = Analyze(
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "drop",
          "when": [{"column": "Ghost", "op": "gt", "value": 0}]}]})",
      WearableSchema());
  EXPECT_TRUE(guard.HasCode("IW703")) << guard.ToReport();
  EXPECT_EQ(PathOf(guard, "IW703"), "/rules/0/when/0/column");
}

TEST(CleanerLintTest, IW704BadParams) {
  const char* docs[] = {
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "teleport"}, "repair": "drop"}]})",
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "mend"}]})",
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "range", "min": 9, "max": 1},
          "repair": "drop"}]})",
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "regex", "pattern": "(unclosed"},
          "repair": "drop"}]})",
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "type", "value_type": "quaternion"},
          "repair": "drop"}]})",
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "cross_field", "op": "sideways",
                     "other": "Steps"}, "repair": "drop"}]})",
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "rate_of_change", "max_change": -1},
          "repair": "drop"}]})",
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "stuck_at", "min_repeats": 1},
          "repair": "drop"}]})",
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "drop",
          "when": [{"column": "Steps", "op": "near", "value": 0}]}]})",
  };
  for (const char* doc : docs) {
    Diagnostics diags = Analyze(doc);
    EXPECT_TRUE(diags.HasCode("IW704")) << doc << "\n" << diags.ToReport();
  }
}

TEST(CleanerLintTest, IW704RejectsSyntaxOutsideTheRegexSubset) {
  // The lint compiles with the runtime's Regex::Compile, so its message
  // (and offset) is the compiler's own.
  struct Case {
    const char* pattern;  // JSON-escaped
    const char* message;
  };
  const Case cases[] = {
      {"(a)\\\\1", "backreferences are not supported (at offset 3)"},
      {"a(?=b)", "lookaround"},
      {"(?<!a)b", "lookaround"},
      {"\\\\d+?", "lazy quantifiers are not supported (at offset 3)"},
      {"\\\\bword\\\\b", "word boundaries"},
      {"a{1001}", "counted repeat above 1000 (at offset 1)"},
      {"\\\\d{2,5000}", "counted repeat above 1000"},
      {"^\\\\d+$", "anchors are not supported"},
  };
  for (const Case& c : cases) {
    const std::string doc =
        std::string(R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "regex", "pattern": ")") +
        c.pattern + R"("}, "repair": "drop"}]})";
    Diagnostics diags = Analyze(doc, WearableSchema());
    ASSERT_TRUE(diags.HasCode("IW704")) << doc << "\n" << diags.ToReport();
    EXPECT_EQ(PathOf(diags, "IW704"), "/rules/0/detect/pattern");
    bool found = false;
    for (const Diagnostic& d : diags.items()) {
      found = found || (d.code == "IW704" &&
                        d.message.find(c.message) != std::string::npos);
    }
    EXPECT_TRUE(found) << c.pattern << "\n" << diags.ToReport();
  }
}

TEST(CleanerLintTest, IW705ClampRequiresRangeDetect) {
  Diagnostics diags = Analyze(
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "clamp"}]})");
  EXPECT_TRUE(diags.HasCode("IW705")) << diags.ToReport();
  EXPECT_EQ(PathOf(diags, "IW705"), "/rules/0/repair");
}

TEST(CleanerLintTest, IW706DuplicateLabelIsAWarning) {
  Diagnostics diags = Analyze(
      R"({"rules": [
        {"label": "a", "column": "BPM",
         "detect": {"type": "not_null"}, "repair": "drop"},
        {"label": "a", "column": "BPM",
         "detect": {"type": "not_null"}, "repair": "drop"}]})");
  EXPECT_TRUE(diags.HasCode("IW706")) << diags.ToReport();
  EXPECT_FALSE(diags.HasErrors());
  EXPECT_EQ(PathOf(diags, "IW706"), "/rules/1/label");
}

TEST(CleanerLintTest, IW707StuckAtBeyondHistoryNeverFires) {
  Diagnostics diags = Analyze(
      R"({"history": 4, "rules": [
        {"label": "a", "column": "BPM",
         "detect": {"type": "stuck_at", "min_repeats": 6},
         "repair": "set_null"}]})");
  EXPECT_TRUE(diags.HasCode("IW707")) << diags.ToReport();
  EXPECT_FALSE(diags.HasErrors());
  // min_repeats == history + 1 still fires (the incoming tuple is the
  // +1); no warning.
  Diagnostics edge = Analyze(
      R"({"history": 4, "rules": [
        {"label": "a", "column": "BPM",
         "detect": {"type": "stuck_at", "min_repeats": 5},
         "repair": "set_null"}]})");
  EXPECT_FALSE(edge.HasCode("IW707")) << edge.ToReport();
}

TEST(CleanerLintTest, IW604UnknownKeysAreWarnings) {
  Diagnostics doc_key = Analyze(R"({"rules": [], "colour": "blue"})");
  EXPECT_TRUE(doc_key.HasCode("IW604")) << doc_key.ToReport();
  EXPECT_FALSE(doc_key.HasErrors());

  Diagnostics rule_key = Analyze(
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "drop",
          "priority": 3}]})");
  EXPECT_TRUE(rule_key.HasCode("IW604")) << rule_key.ToReport();
}

TEST(CleanerLintTest, PathRootPrefixesEveryPointer) {
  auto json = Json::Parse(
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "teleport"}, "repair": "drop"}]})");
  ASSERT_TRUE(json.ok());
  CleanerAnalyzeOptions options;
  options.path_root = "/params/rules";
  Diagnostics diags = AnalyzeCleanerRules(json.ValueOrDie(), options);
  ASSERT_TRUE(diags.HasCode("IW704"));
  EXPECT_EQ(PathOf(diags, "IW704"), "/params/rules/rules/0/detect/type");
}

TEST(CleanerLintTest, LooksLikeCleanerRulesHeuristic) {
  const auto looks = [](const std::string& text) {
    return LooksLikeCleanerRules(Json::Parse(text).ValueOrDie());
  };
  EXPECT_TRUE(looks(
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "drop"}]})"));
  EXPECT_TRUE(looks(R"({"rules": []})"));
  EXPECT_FALSE(looks(R"({"polluters": []})"));
  EXPECT_FALSE(looks(R"({"scenario": "software_update"})"));
  EXPECT_FALSE(looks(R"({"sessions": [], "rules": []})"));
  EXPECT_FALSE(looks(R"({"expectations": [], "rules": []})"));
  EXPECT_FALSE(looks(R"([])"));
}

// --------------------------------------------------------------------
// IW616: the set_cleaner admin gate.
// --------------------------------------------------------------------

Diagnostics AnalyzeAdmin(const std::string& params) {
  auto json = Json::Parse(
      R"({"id": 1, "method": "set_cleaner", "params": )" + params + "}");
  EXPECT_TRUE(json.ok());
  AdminAnalyzeOptions options;
  options.known_methods = {"set_cleaner"};
  return AnalyzeAdminRequest(json.ValueOrDie(), options);
}

TEST(AdminCleanerLintTest, SetCleanerRequiresRules) {
  Diagnostics missing = AnalyzeAdmin(R"({"session": "s"})");
  EXPECT_TRUE(missing.HasCode("IW616")) << missing.ToReport();

  Diagnostics wrong_type = AnalyzeAdmin(R"({"session": "s", "rules": 7})");
  EXPECT_TRUE(wrong_type.HasCode("IW616")) << wrong_type.ToReport();

  // Null removes the cleaner: valid.
  Diagnostics removal = AnalyzeAdmin(R"({"session": "s", "rules": null})");
  EXPECT_FALSE(removal.HasErrors()) << removal.ToReport();
}

TEST(AdminCleanerLintTest, RulesObjectGetsFullIW70xAnalysis) {
  Diagnostics diags = AnalyzeAdmin(
      R"({"session": "s", "rules": {"rules": [
        {"label": "a", "column": "BPM",
         "detect": {"type": "teleport"}, "repair": "drop"}]}})");
  EXPECT_TRUE(diags.HasCode("IW704")) << diags.ToReport();
  EXPECT_EQ(PathOf(diags, "IW704"), "/params/rules/rules/0/detect/type");

  Diagnostics ok = AnalyzeAdmin(
      R"({"session": "s", "rules": {"rules": [
        {"label": "a", "column": "BPM",
         "detect": {"type": "not_null"}, "repair": "drop"}]}})");
  EXPECT_FALSE(ok.HasErrors()) << ok.ToReport();
}

TEST(AdminCleanerLintTest, SessionEntryCleanerAnalyzedInServeConfig) {
  auto json = Json::Parse(R"({"sessions": [
    {"name": "s", "scenario": "x", "cleaner": {"rules": [
      {"label": "a", "column": "BPM",
       "detect": {"type": "range", "min": 9, "max": 1},
       "repair": "drop"}]}}]})");
  ASSERT_TRUE(json.ok());
  Diagnostics diags = AnalyzeServeConfig(json.ValueOrDie(), {});
  EXPECT_TRUE(diags.HasCode("IW704")) << diags.ToReport();
  EXPECT_EQ(PathOf(diags, "IW704"),
            "/sessions/0/cleaner/rules/0/detect/min");
}

// --------------------------------------------------------------------
// Soundness sweep: lint-clean documents always bind and run.
// --------------------------------------------------------------------

const std::vector<std::string>& ColumnFragments() {
  static const auto* fragments = new std::vector<std::string>{
      "\"BPM\"", "\"Distance\"", "\"Steps\"",
      "\"Heartrate\"",  // IW703
      "\"Time\"",
  };
  return *fragments;
}

const std::vector<std::string>& DetectFragments() {
  static const auto* fragments = new std::vector<std::string>{
      R"({"type": "range", "min": 0, "max": 100})",
      R"({"type": "range", "min": 100, "max": 0})",  // IW704
      R"({"type": "not_null"})",
      R"({"type": "regex", "pattern": "\\d+"})",
      R"({"type": "regex", "pattern": "(unclosed"})",  // IW704
      R"({"type": "type", "value_type": "double"})",
      R"({"type": "cross_field", "op": "le", "other": "Steps"})",
      R"({"type": "rate_of_change", "max_change": 10})",
      R"({"type": "stuck_at", "min_repeats": 3})",
      R"({"type": "stuck_at", "min_repeats": 99})",  // IW707 (warning)
      R"({"type": "teleport"})",                     // IW704
  };
  return *fragments;
}

const std::vector<std::string>& RepairFragments() {
  static const auto* fragments = new std::vector<std::string>{
      "\"drop\"", "\"set_null\"", "\"clamp\"", "\"last_good\"",
      "\"window_mean\"", "\"window_median\"",
      "\"mend\"",  // IW704
  };
  return *fragments;
}

const std::vector<std::string>& WhenFragments() {
  static const auto* fragments = new std::vector<std::string>{
      "",  // no guard
      R"(, "when": {"column": "Steps", "op": "gt", "value": 0})",
      R"(, "when": [{"column": "BPM", "op": "le", "value": 200}])",
      R"(, "when": {"column": "Ghost", "op": "gt", "value": 0})",  // IW703
      R"(, "when": {"column": "Steps", "op": "near", "value": 0})",  // IW704
  };
  return *fragments;
}

TEST(CleanerLintSoundnessTest, LintCleanDocumentsBindAndRun) {
  const SchemaPtr schema = WearableSchema();
  CleanerAnalyzeOptions options;
  options.schema = schema;

  TupleVector stream;
  for (int i = 0; i < 50; ++i) {
    stream.emplace_back(
        schema, std::vector<Value>{Value(int64_t{1000 + 60 * i}),
                                   Value(i % 9 == 0 ? Value::Null()
                                                    : Value(60.0 + i % 30)),
                                   Value(int64_t{10 * i}),
                                   Value(0.01 * i),
                                   Value(1.5 * i),
                                   Value(0.5 * i)});
    stream.back().set_id(static_cast<TupleId>(i));
  }

  size_t clean = 0, rejected = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](const std::vector<std::string>& pool) {
      return pool[rng() % pool.size()];
    };
    std::string rules;
    const size_t count = 1 + rng() % 3;
    for (size_t i = 0; i < count; ++i) {
      if (i > 0) rules += ",";
      rules += R"({"label": "r)" + std::to_string(i) +
               R"(", "column": )" + pick(ColumnFragments()) +
               R"(, "detect": )" + pick(DetectFragments()) +
               R"(, "repair": )" + pick(RepairFragments()) +
               pick(WhenFragments()) + "}";
    }
    const std::string text = R"({"name": "generated", "history": )" +
                             std::to_string(2 + rng() % 30) +
                             R"(, "rules": [)" + rules + "]}";
    auto json = Json::Parse(text);
    ASSERT_TRUE(json.ok()) << text;

    Diagnostics diags = AnalyzeCleanerRules(json.ValueOrDie(), options);
    if (diags.HasErrors()) {
      ++rejected;
      continue;
    }
    ++clean;
    // Lint/bind parity: a lint-clean document must load + bind...
    auto loaded = clean::RulesFromJson(json.ValueOrDie(), schema);
    ASSERT_TRUE(loaded.ok())
        << "lint-clean document failed to load+bind: "
        << loaded.status().ToString() << "\n" << text;
    // ...and clean a stream with NULLs.
    VectorSink cleaned;
    ASSERT_TRUE(clean::CleanTuples(loaded.ValueOrDie(), stream, &cleaned).ok())
        << text;
  }
  EXPECT_GT(clean, 20u);
  EXPECT_GT(rejected, 20u);
}

}  // namespace
}  // namespace analysis
}  // namespace icewafl
