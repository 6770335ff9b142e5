#include "util/strings.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/rng.h"

namespace icewafl {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = Split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(StringsTest, SplitSingleField) {
  const auto parts = Split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(StringsTest, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "", "z"};
  EXPECT_EQ(Join(parts, ","), "x,,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringsTest, JoinEmptyVector) { EXPECT_EQ(Join({}, ","), ""); }

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("icewafl", "ice"));
  EXPECT_FALSE(StartsWith("ice", "icewafl"));
  EXPECT_TRUE(EndsWith("icewafl", "wafl"));
  EXPECT_FALSE(EndsWith("wafl", "icewafl"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").ValueOrDie(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").ValueOrDie(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("  7 ").ValueOrDie(), 7.0);
}

TEST(StringsTest, ParseDoubleRejectsTrailing) {
  EXPECT_FALSE(ParseDouble("3.25abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringsTest, ParseInt64Valid) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-9").ValueOrDie(), -9);
  EXPECT_EQ(ParseInt64("1456531200").ValueOrDie(), 1456531200);
}

TEST(StringsTest, ParseInt64Rejects) {
  EXPECT_FALSE(ParseInt64("4.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(StringsTest, FormatDoubleShortestRoundTrips) {
  for (double v : {0.1, 1.234, -2.5, 1e-9, 123456.789, 0.0}) {
    EXPECT_DOUBLE_EQ(ParseDouble(FormatDouble(v)).ValueOrDie(), v);
  }
}

TEST(StringsTest, FormatDoubleShortestIsMinimal) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(1.234), "1.234");
}

TEST(StringsTest, FormatDoubleFixedPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 3), "2.000");
}

// The snprintf/strtod search FormatDoubleTo used before it moved to
// <charconv>; kept as the byte-for-byte reference.
std::string ReferenceFormatDouble(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Counts mismatches and reports the first few, so a regression prints
// the offending values instead of a million identical failures.
class FormatOracle {
 public:
  void Check(double v) {
    FormatDoubleTo(v, &got_);
    const std::string want = ReferenceFormatDouble(v);
    if (got_ == want) return;
    if (++mismatches_ <= 10) {
      ADD_FAILURE() << "bits " << std::hex << Bits(v) << ": got '" << got_
                    << "', reference '" << want << "'";
    }
  }
  size_t mismatches() const { return mismatches_; }

 private:
  static uint64_t Bits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  std::string got_;
  size_t mismatches_ = 0;
};

TEST(FormatDoubleOracleTest, EdgeCasesMatchReference) {
  FormatOracle oracle;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v :
       {0.0, -0.0, inf, -inf, nan, -nan,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::min() / 3,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon(), 1e15, -1e15,
        std::nextafter(1e15, 0.0), std::nextafter(1e15, 2e15), 1e15 + 0.5,
        999999999999999.0, 999999999999999.5, 1e-5, 1e-4, 1.5e-5, 9.99e-5,
        std::nextafter(1e-4, 0.0), std::nextafter(1e-4, 1.0),
        9.999999999999999e22, 1e23, 5e-324, 0.1, 0.2, 0.3, 1.0 / 3,
        2.0 / 3, 123.456, 5e-1, 9.5, 0.05, 1e16, 1e17, 1e21, 1e22}) {
    oracle.Check(v);
  }
  for (int exp = -320; exp <= 308; ++exp) {
    const double p = std::pow(10.0, exp);
    oracle.Check(p);
    oracle.Check(std::nextafter(p, 0.0));
    oracle.Check(std::nextafter(p, inf));
    oracle.Check(-p);
  }
  EXPECT_EQ(oracle.mismatches(), 0u);
}

// 1M random bit patterns in four shards, so ctest can run them in
// parallel (the reference search is the slow part).
class FormatDoubleRandomBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(FormatDoubleRandomBitsTest, MatchesReference) {
  FormatOracle oracle;
  Rng rng(20240611 + GetParam());
  for (int i = 0; i < 250000; ++i) oracle.Check(FromBits(rng.Next()));
  EXPECT_EQ(oracle.mismatches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, FormatDoubleRandomBitsTest,
                         ::testing::Range(0, 4));

TEST(FormatDoubleOracleTest, DecimalGridValuesMatchReference) {
  // What RoundError produces: round(v * 10^k) / 10^k, k = 2 or 3, over
  // magnitudes from sensor readings to large counters.
  FormatOracle oracle;
  Rng rng(7);
  for (int i = 0; i < 300000; ++i) {
    const double magnitude = std::pow(10.0, rng.UniformInt(-3, 9));
    const double v = rng.Uniform(-magnitude, magnitude);
    for (const double scale : {100.0, 1000.0}) {
      oracle.Check(std::round(v * scale) / scale);
    }
  }
  EXPECT_EQ(oracle.mismatches(), 0u);
}

}  // namespace
}  // namespace icewafl
