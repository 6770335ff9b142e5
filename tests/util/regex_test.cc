#include "util/regex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <regex>  // the differential oracle only; src/ never uses it
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace icewafl {
namespace {

Regex MustCompile(const std::string& pattern) {
  auto re = Regex::Compile(pattern);
  EXPECT_TRUE(re.ok()) << pattern << ": " << re.status().ToString();
  return re.ok() ? std::move(re).ValueOrDie() : Regex();
}

TEST(RegexTest, StockPrecisionPattern) {
  const Regex re = MustCompile(R"(0|\d+\.\d{3,})");
  for (const char* ok : {"0", "12.345", "0.000", "1.23456789"}) {
    EXPECT_TRUE(re.FullMatch(ok)) << ok;
  }
  for (const char* bad : {"", "00", "12.34", "12", "12.345x", "x12.345",
                          "-1.234", "1e+20"}) {
    EXPECT_FALSE(re.FullMatch(bad)) << bad;
  }
}

TEST(RegexTest, SupportedSyntax) {
  struct Case {
    const char* pattern;
    std::vector<const char*> match;
    std::vector<const char*> reject;
  };
  const Case cases[] = {
      {"abc", {"abc"}, {"ab", "abcd", ""}},
      {"", {""}, {"a"}},
      {"a|b|", {"a", "b", ""}, {"ab"}},
      {"(?:ab)+", {"ab", "abab"}, {"", "aba"}},
      {"(a|bc)*d", {"d", "abcd", "bcbcad"}, {"b", "abd"}},
      {"[a-c_]+", {"a", "cab_"}, {"", "d"}},
      {"[^0-9]", {"a", "-"}, {"5", ""}},
      {"[\\d.]+", {"1.5", "..."}, {"1,5"}},
      {"[-a]", {"-", "a"}, {"b"}},
      {"[a-]", {"-", "a"}, {"b"}},
      {".", {"a", " "}, {"\n", "\r", ""}},
      {"\\w\\s\\D\\W\\S", {"a x!y", "_\tx y"}, {"a 1!y", "a x!", "a xay"}},
      {"\\.\\(\\)\\[\\]\\{\\}\\*\\+\\?\\|\\\\\\^\\$",
       {".()[]{}*+?|\\^$"},
       {""}},
      {"\\t\\n\\r\\f\\v", {"\t\n\r\f\v"}, {"tnrfv"}},
      {"a{3}", {"aaa"}, {"aa", "aaaa"}},
      {"a{2,}", {"aa", "aaaaa"}, {"a"}},
      {"a{1,3}", {"a", "aaa"}, {"", "aaaa"}},
      {"a{0}b", {"b"}, {"ab"}},
      {"(a?){3}", {"", "a", "aaa"}, {"aaaa"}},
      {"x]}", {"x]}"}, {"x"}},
  };
  for (const Case& c : cases) {
    const Regex re = MustCompile(c.pattern);
    for (const char* text : c.match) {
      EXPECT_TRUE(re.FullMatch(text)) << c.pattern << " vs '" << text << "'";
    }
    for (const char* text : c.reject) {
      EXPECT_FALSE(re.FullMatch(text)) << c.pattern << " vs '" << text << "'";
    }
  }
}

TEST(RegexTest, DefaultConstructedMatchesOnlyEmpty) {
  const Regex re;
  EXPECT_TRUE(re.FullMatch(""));
  EXPECT_FALSE(re.FullMatch("a"));
}

TEST(RegexTest, RejectedSyntaxCarriesOffset) {
  struct Case {
    const char* pattern;
    const char* message;  // substring of the status message
    size_t offset;
  };
  const Case cases[] = {
      {"(unclosed", "missing ')'", 0},
      {"ab)", "unmatched ')'", 2},
      {"[abc", "missing ']'", 0},
      {"[]", "empty character class", 0},
      {"[z-a]", "out of order", 1},
      {"[\\d-z]", "range end", 1},
      {"(a)\\1", "backreferences", 3},
      {"a(?=b)", "lookaround", 1},
      {"a(?!b)", "lookaround", 1},
      {"(?<=a)b", "lookaround", 0},
      {"a+?", "lazy", 2},
      {"a{2,3}?", "lazy", 6},
      {"\\bword", "word boundaries", 0},
      {"a\\B", "word boundaries", 1},
      {"^abc", "anchors", 0},
      {"abc$", "anchors", 3},
      {"a{1001}", "above 1000", 1},
      {"a{2,1001}", "above 1000", 1},
      {"a{3,2}", "min above max", 1},
      {"a{", "invalid counted repeat", 1},
      {"a{x}", "invalid counted repeat", 1},
      {"*a", "nothing to repeat", 0},
      {"a|+", "nothing to repeat", 2},
      {"a**", "quantifier follows a quantifier", 2},
      {"\\x41", "unsupported escape", 0},
      {"\\u0041", "unsupported escape", 0},
      {"abc\\", "trailing backslash", 3},
      {"(a{1000}){1000}", "pattern too large", 9},
  };
  for (const Case& c : cases) {
    auto re = Regex::Compile(c.pattern);
    ASSERT_FALSE(re.ok()) << c.pattern;
    EXPECT_EQ(re.status().code(), StatusCode::kInvalidArgument) << c.pattern;
    const std::string msg = re.status().message();
    EXPECT_NE(msg.find(c.message), std::string::npos)
        << c.pattern << ": " << msg;
    EXPECT_NE(msg.find("(at offset " + std::to_string(c.offset) + ")"),
              std::string::npos)
        << c.pattern << ": " << msg;
  }
}

TEST(RegexTest, DeepNestingIsAnErrorNotACrash) {
  const std::string deep(100000, '(');
  auto re = Regex::Compile(deep);
  ASSERT_FALSE(re.ok());
  EXPECT_NE(re.status().message().find("nested deeper"), std::string::npos);
  // A hundred levels are fine.
  EXPECT_TRUE(Regex::Compile(std::string(100, '(') + "a" +
                             std::string(100, ')'))
                  .ok());
}

// Random patterns from the supported subset, checked against
// std::regex_match (ECMAScript) on random short strings. Unbounded
// quantifiers only wrap subpatterns that cannot match empty: a
// backtracking oracle takes exponential time on nested empty loops.
class PatternGen {
 public:
  explicit PatternGen(uint64_t seed) : rng_(seed) {}

  struct Sub {
    std::string text;
    bool nullable;
  };

  Sub Alt(int depth) {
    Sub out = Concat(depth);
    while (Pick(4) == 0) {
      const Sub branch = Concat(depth);
      out.text += "|" + branch.text;
      out.nullable = out.nullable || branch.nullable;
    }
    return out;
  }

  std::string Text() {
    static const char kChars[] = "abc01. _\n";
    std::string out;
    const int n = Pick(9);
    for (int i = 0; i < n; ++i) out += kChars[Pick(sizeof(kChars) - 1)];
    return out;
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_.UniformInt(0, n - 1)); }

  Sub Concat(int depth) {
    Sub out{"", true};
    const int n = Pick(4);
    for (int i = 0; i < n; ++i) {
      const Sub atom = Quantified(Atom(depth));
      out.text += atom.text;
      out.nullable = out.nullable && atom.nullable;
    }
    return out;
  }

  Sub Atom(int depth) {
    static const char* kAtoms[] = {
        "a",      "b",     "c",      "0",   "1",    "\\.", ".",
        "\\d",    "\\w",   "\\s",    "\\D", "[ab]", "[^a]", "[a-c]",
        "[0-9.]", "[\\d]", "[^\\w]", "\\n", "[_ ]"};
    constexpr int kNumAtoms = sizeof(kAtoms) / sizeof(kAtoms[0]);
    if (depth < 3 && Pick(4) == 0) {
      Sub inner = Alt(depth + 1);
      inner.text.insert(0, Pick(2) == 0 ? "(" : "(?:");
      inner.text.push_back(')');
      return inner;
    }
    return {kAtoms[Pick(kNumAtoms)], false};
  }

  Sub Quantified(Sub atom) {
    const int lo = Pick(3);
    const int hi = lo + Pick(3);
    switch (Pick(10)) {
      case 0:
        return {atom.text + "?", true};
      case 1:
        if (atom.nullable) break;
        return {atom.text + "*", true};
      case 2:
        if (atom.nullable) break;
        return {atom.text + "+", false};
      case 3:
        return {atom.text + "{" + std::to_string(lo) + "}",
                atom.nullable || lo == 0};
      case 4:
        if (atom.nullable) break;
        return {atom.text + "{" + std::to_string(lo) + ",}", lo == 0};
      case 5:
        return {atom.text + "{" + std::to_string(lo) + "," +
                    std::to_string(hi) + "}",
                atom.nullable || lo == 0};
      default:
        break;
    }
    return atom;
  }

  Rng rng_;
};

TEST(RegexDifferentialTest, AgreesWithStdRegexOnRandomPatterns) {
  PatternGen gen(424242);
  int mismatches = 0;
  for (int p = 0; p < 3000; ++p) {
    const std::string pattern = gen.Alt(0).text;
    const std::regex oracle(pattern, std::regex::ECMAScript);
    const Regex re = MustCompile(pattern);
    for (int t = 0; t < 25; ++t) {
      const std::string text = gen.Text();
      const bool want = std::regex_match(text, oracle);
      if (re.FullMatch(text) != want && ++mismatches <= 10) {
        ADD_FAILURE() << "pattern '" << pattern << "' text '" << text
                      << "': std::regex says " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RegexDifferentialTest, NfaFallbackAgreesWithStdRegex) {
  // The n-th-from-last letter being 'a' needs 2^13 DFA states, far past
  // the DFA budget, so long texts finish in the NFA simulation.
  const std::string pattern = "(a|b)*a(a|b){12}";
  const std::regex oracle(pattern, std::regex::ECMAScript);
  const Regex re = MustCompile(pattern);
  Rng rng(99);
  for (int t = 0; t < 300; ++t) {
    std::string text;
    const int n = static_cast<int>(rng.UniformInt(0, 40));
    for (int i = 0; i < n; ++i) text += rng.Bernoulli(0.5) ? 'a' : 'b';
    EXPECT_EQ(re.FullMatch(text), std::regex_match(text, oracle)) << text;
  }
}

double SecondsToMatch(const Regex& re, const std::string& text, bool* out) {
  const auto start = std::chrono::steady_clock::now();
  *out = re.FullMatch(text);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Inputs that crash or hang a backtracking matcher: libstdc++'s
// std::regex recurses once per character on the first and backtracks
// exponentially on the second. The budget is generous for sanitizer
// builds; a linear matcher needs well under a millisecond.
TEST(RegexHostileTest, LongAlternationLoopFinishesInBudget) {
  const Regex re = MustCompile("(a|b)*");
  std::string text;
  for (int i = 0; i < 100000; ++i) text += (i % 3 == 0) ? 'b' : 'a';
  bool matched = false;
  EXPECT_LT(SecondsToMatch(re, text, &matched), 2.0);
  EXPECT_TRUE(matched);
  text += 'c';
  EXPECT_LT(SecondsToMatch(re, text, &matched), 2.0);
  EXPECT_FALSE(matched);
}

TEST(RegexHostileTest, NestedStarFinishesInBudget) {
  const Regex re = MustCompile("(a*)*b");
  bool matched = true;
  EXPECT_LT(SecondsToMatch(re, std::string(30, 'a'), &matched), 2.0);
  EXPECT_FALSE(matched);
  EXPECT_LT(SecondsToMatch(re, std::string(100000, 'a'), &matched), 2.0);
  EXPECT_FALSE(matched);
  EXPECT_TRUE(re.FullMatch(std::string(30, 'a') + "b"));
}

TEST(RegexHostileTest, NfaFallbackStaysLinear) {
  const Regex re = MustCompile("(a|b)*a(a|b){12}");
  std::string text;
  for (int i = 0; i < 100000; ++i) text += (i % 7 < 3) ? 'a' : 'b';
  bool matched = false;
  EXPECT_LT(SecondsToMatch(re, text, &matched), 2.0);
  EXPECT_EQ(matched, text[text.size() - 13] == 'a');
}

TEST(RegexTest, SharedAcrossThreads) {
  // FullMatch is const and stateless: concurrent callers on one object
  // (including the NFA fallback) must agree with a single-threaded run.
  const Regex re = MustCompile("(a|b)*a(a|b){12}|0|\\d+\\.\\d{3,}");
  std::vector<std::string> texts = {"0", "1.234", "1.23"};
  Rng rng(5);
  for (int t = 0; t < 50; ++t) {
    std::string text;
    for (int i = 0; i < 30; ++i) text += rng.Bernoulli(0.5) ? 'a' : 'b';
    texts.push_back(text);
  }
  std::vector<bool> want;
  for (const std::string& text : texts) want.push_back(re.FullMatch(text));
  std::vector<std::thread> threads;
  std::vector<int> wrong(4, 0);
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int rep = 0; rep < 20; ++rep) {
        for (size_t i = 0; i < texts.size(); ++i) {
          if (re.FullMatch(texts[i]) != want[i]) ++wrong[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < 4; ++w) EXPECT_EQ(wrong[w], 0);
}

}  // namespace
}  // namespace icewafl
