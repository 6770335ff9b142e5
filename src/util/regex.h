#ifndef ICEWAFL_UTIL_REGEX_H_
#define ICEWAFL_UTIL_REGEX_H_

#include <array>
#include <bitset>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace icewafl {

/// \brief A compiled regular expression with linear-time full matching.
///
/// The supported syntax is a subset of ECMAScript regular expressions,
/// with the meaning a full ECMAScript match of the whole text gives:
///   - literal bytes, and the escapes `\d \w \s \D \W \S \t \n \r \f \v`
///     plus escaped punctuation (`\.`, `\(`, `\\`, ...);
///   - classes `[a-z_]`, `[^0-9]` (class escapes may appear inside, but
///     not as range ends);
///   - `.` (any byte except `\n` and `\r`);
///   - the quantifiers `? * +`, `{m}`, `{m,}` and `{m,n}` with counts up
///     to kMaxRepeat;
///   - alternation `|` and groups `( )` / `(?: )`.
/// Everything else is a compile error whose message ends in
/// "(at offset N)": backreferences, lookaround, lazy quantifiers,
/// anchors (a pattern always matches the whole text), `\b`, other
/// letter escapes.
///
/// Matching is byte-wise and always against the whole text. Compile
/// builds a Thompson NFA and from it, breadth-first from the start
/// state, a DFA of at most kMaxDfaStates states. A text that leaves the
/// built part of the DFA continues as an NFA simulation from the state
/// it reached. Either way a match costs O(text length x pattern size),
/// with no backtracking and no recursion. FullMatch changes no state,
/// so threads may share one Regex.
class Regex {
 public:
  /// Largest count a `{m,n}` quantifier accepts.
  static constexpr int kMaxRepeat = 1000;

  /// Matches only the empty string.
  Regex() = default;

  /// \brief Compiles `pattern`; an InvalidArgument status names the
  /// problem and its byte offset in the pattern.
  static Result<Regex> Compile(std::string_view pattern);

  /// \brief True iff the whole of `text` matches.
  bool FullMatch(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }

 private:
  struct Inst {
    enum Op : uint8_t { kByte, kSplit, kMatch } op = kMatch;
    int32_t out = -1;   // kByte: next pc; kSplit: first branch
    int32_t out1 = -1;  // kSplit: second branch
    int32_t set = -1;   // kByte: index into sets_
  };
  struct Scratch;

  void AddThread(int32_t pc, std::vector<int32_t>* threads,
                 Scratch* scratch) const;
  void Step(const std::vector<int32_t>& from, uint8_t byte, Scratch* scratch,
            std::vector<int32_t>* to) const;
  void BuildDfa(int32_t start_pc);
  bool Simulate(int32_t state, std::string_view rest) const;

  std::string pattern_;
  /// The NFA; pc 0 is the match instruction.
  std::vector<Inst> prog_{Inst{}};
  std::vector<std::bitset<256>> sets_;
  /// Bytes no instruction tells apart share a class.
  std::array<uint8_t, 256> class_of_{};
  int32_t num_classes_ = 1;
  /// DFA: row s holds state s's successor per byte class (or kDead /
  /// kUnbuilt); states_[s] is its sorted NFA thread list.
  std::vector<int32_t> next_{-1};
  std::vector<uint8_t> accept_{1};
  std::vector<std::vector<int32_t>> states_{{0}};
};

}  // namespace icewafl

#endif  // ICEWAFL_UTIL_REGEX_H_
