#include "util/regex.h"

#include <algorithm>
#include <cctype>
#include <map>

namespace icewafl {

namespace {

constexpr int32_t kDead = -1;     // no thread survives: the match fails
constexpr int32_t kUnbuilt = -2;  // outside the DFA budget: simulate
constexpr int32_t kMatchPc = 0;

/// Bounds on what one pattern may cost at compile time.
constexpr size_t kMaxProgram = 10000;  // NFA instructions
constexpr int kMaxNesting = 100;       // group depth
constexpr size_t kMaxDfaStates = 512;
constexpr size_t kMaxBuildWork = size_t{1} << 20;  // threads stepped

using ByteSet = std::bitset<256>;

/// Parse tree. kConcat with no kids is the empty pattern.
struct Node {
  enum Kind { kSet, kConcat, kAlt, kRepeat };
  explicit Node(Kind k = kConcat) : kind(k) {}

  Kind kind;
  int32_t set = -1;       // kSet
  int min = 0, max = 0;   // kRepeat; max < 0 is unbounded
  std::vector<Node> kids;
  size_t size = 0;        // NFA instructions this node compiles to
};

Status ErrorAt(const std::string& what, size_t offset) {
  return Status::InvalidArgument(what + " (at offset " +
                                 std::to_string(offset) + ")");
}

/// Recursive descent over the grammar
///   alt := concat ('|' concat)*     concat := (atom quantifier?)*
/// with the group depth bounded by kMaxNesting.
class Parser {
 public:
  Parser(std::string_view pattern, std::vector<ByteSet>* sets)
      : p_(pattern), sets_(sets) {}

  Result<Node> Parse() {
    ICEWAFL_ASSIGN_OR_RETURN(Node root, ParseAlt(0));
    if (pos_ < p_.size()) return ErrorAt("unmatched ')'", pos_);
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= p_.size(); }
  bool Peek(char c) const { return !AtEnd() && p_[pos_] == c; }

  Status CheckSize(size_t size, size_t offset) const {
    if (size <= kMaxProgram) return Status::OK();
    return ErrorAt("pattern too large (more than " +
                       std::to_string(kMaxProgram) +
                       " NFA instructions once repeats expand)",
                   offset);
  }

  Result<Node> ParseAlt(int depth) {
    const size_t start = pos_;
    Node alt(Node::kAlt);
    while (true) {
      ICEWAFL_ASSIGN_OR_RETURN(Node branch, ParseConcat(depth));
      alt.size += branch.size;
      alt.kids.push_back(std::move(branch));
      if (!Peek('|')) break;
      ++pos_;
      ++alt.size;  // one split per extra branch
    }
    ICEWAFL_RETURN_NOT_OK(CheckSize(alt.size, start));
    if (alt.kids.size() == 1) return std::move(alt.kids[0]);
    return alt;
  }

  Result<Node> ParseConcat(int depth) {
    Node seq(Node::kConcat);
    while (!AtEnd() && p_[pos_] != '|' && p_[pos_] != ')') {
      const size_t start = pos_;
      ICEWAFL_ASSIGN_OR_RETURN(Node atom, ParseAtom(depth));
      ICEWAFL_ASSIGN_OR_RETURN(atom, ParseQuantifier(std::move(atom)));
      seq.size += atom.size;
      ICEWAFL_RETURN_NOT_OK(CheckSize(seq.size, start));
      seq.kids.push_back(std::move(atom));
    }
    if (seq.kids.size() == 1) return std::move(seq.kids[0]);
    return seq;
  }

  Node SetNode(const ByteSet& set) {
    Node n(Node::kSet);
    n.set = static_cast<int32_t>(sets_->size());
    n.size = 1;
    sets_->push_back(set);
    return n;
  }

  Result<Node> ParseAtom(int depth) {
    const size_t at = pos_;
    const char c = p_[pos_++];
    switch (c) {
      case '(': {
        if (Peek('?')) {
          if (p_.substr(pos_, 2) != "?:") {
            return ErrorAt("lookaround and other (? groups are not supported",
                           at);
          }
          pos_ += 2;
        }
        if (depth >= kMaxNesting) {
          return ErrorAt("groups nested deeper than " +
                             std::to_string(kMaxNesting),
                         at);
        }
        ICEWAFL_ASSIGN_OR_RETURN(Node inner, ParseAlt(depth + 1));
        if (!Peek(')')) return ErrorAt("unclosed group: missing ')'", at);
        ++pos_;
        return inner;
      }
      case '[':
        return ParseClass(at);
      case '.':
        return SetNode(ByteSet().set().reset('\n').reset('\r'));
      case '\\': {
        ICEWAFL_ASSIGN_OR_RETURN(ByteSet set, ParseEscape(at));
        return SetNode(set);
      }
      case '*':
      case '+':
      case '?':
      case '{':
        return ErrorAt(std::string("nothing to repeat before '") + c + "'",
                       at);
      case '^':
      case '$':
        return ErrorAt(
            "anchors are not supported: a pattern always matches the whole "
            "value",
            at);
      default:
        return SetNode(ByteSet().set(static_cast<uint8_t>(c)));
    }
  }

  static ByteSet Single(char c) {
    return ByteSet().set(static_cast<uint8_t>(c));
  }

  /// The byte set an escape stands for: one byte, or a class such as \d.
  Result<ByteSet> ParseEscape(size_t at) {
    if (AtEnd()) return ErrorAt("trailing backslash", at);
    const char e = p_[pos_++];
    ByteSet set;
    switch (std::tolower(static_cast<unsigned char>(e))) {
      case 'd':
        for (int b = '0'; b <= '9'; ++b) set.set(b);
        break;
      case 'w':
        for (int b = 0; b < 256; ++b) {
          if (std::isalnum(b) || b == '_') set.set(b);
        }
        break;
      case 's':
        for (const char b : {' ', '\t', '\n', '\v', '\f', '\r'}) set.set(b);
        break;
      default:
        break;
    }
    if (set.any()) {
      if (std::isupper(static_cast<unsigned char>(e))) set.flip();
      return set;
    }
    switch (e) {
      case 't':
        return Single('\t');
      case 'n':
        return Single('\n');
      case 'r':
        return Single('\r');
      case 'f':
        return Single('\f');
      case 'v':
        return Single('\v');
      case 'b':
      case 'B':
        return ErrorAt("word boundaries (\\b, \\B) are not supported", at);
      default:
        break;
    }
    if (e >= '1' && e <= '9') {
      return ErrorAt("backreferences are not supported", at);
    }
    if (std::isalnum(static_cast<unsigned char>(e))) {
      return ErrorAt(std::string("unsupported escape '\\") + e + "'", at);
    }
    return Single(e);  // escaped punctuation stands for itself
  }

  /// One class member; only a single byte may end a range.
  Result<ByteSet> ParseClassItem() {
    const size_t at = pos_;
    const char c = p_[pos_++];
    if (c == '\\') return ParseEscape(at);
    return Single(c);
  }

  Result<Node> ParseClass(size_t at) {
    const bool negate = Peek('^');
    if (negate) ++pos_;
    if (Peek(']')) return ErrorAt("empty character class", at);
    ByteSet set;
    while (!Peek(']')) {
      if (AtEnd()) return ErrorAt("unclosed character class: missing ']'", at);
      const size_t item_at = pos_;
      ICEWAFL_ASSIGN_OR_RETURN(ByteSet lo, ParseClassItem());
      if (pos_ + 1 < p_.size() && p_[pos_] == '-' && p_[pos_ + 1] != ']') {
        ++pos_;
        ICEWAFL_ASSIGN_OR_RETURN(ByteSet hi, ParseClassItem());
        if (lo.count() != 1 || hi.count() != 1) {
          return ErrorAt("class escape used as a range end", item_at);
        }
        const int from = FirstByte(lo);
        const int to = FirstByte(hi);
        if (from > to) return ErrorAt("character range out of order", item_at);
        for (int b = from; b <= to; ++b) set.set(b);
      } else {
        set |= lo;
      }
    }
    ++pos_;  // ']'
    if (negate) set.flip();
    return SetNode(set);
  }

  static int FirstByte(const ByteSet& set) {
    int b = 0;
    while (!set.test(b)) ++b;
    return b;
  }

  Result<Node> ParseQuantifier(Node atom) {
    if (AtEnd()) return atom;
    const size_t at = pos_;
    int min = 0;
    int max = -1;
    switch (p_[pos_]) {
      case '*':
        ++pos_;
        break;
      case '+':
        min = 1;
        ++pos_;
        break;
      case '?':
        max = 1;
        ++pos_;
        break;
      case '{':
        ICEWAFL_RETURN_NOT_OK(ParseCount(&min, &max));
        break;
      default:
        return atom;
    }
    if (Peek('?')) return ErrorAt("lazy quantifiers are not supported", pos_);
    if (!AtEnd() && (p_[pos_] == '*' || p_[pos_] == '+' || p_[pos_] == '{')) {
      return ErrorAt("nothing to repeat: quantifier follows a quantifier",
                     pos_);
    }
    Node rep(Node::kRepeat);
    rep.min = min;
    rep.max = max;
    const size_t s = atom.size;
    rep.size = max < 0 ? std::max(min, 1) * s + 1
                       : min * s + static_cast<size_t>(max - min) * (s + 1);
    ICEWAFL_RETURN_NOT_OK(CheckSize(rep.size, at));
    rep.kids.push_back(std::move(atom));
    return rep;
  }

  /// `{m}`, `{m,}` or `{m,n}`, with counts up to Regex::kMaxRepeat.
  Status ParseCount(int* min, int* max) {
    const size_t at = pos_++;
    const auto number = [&](int* out) {
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(p_[pos_]))) {
        return false;
      }
      long v = 0;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(p_[pos_]))) {
        v = std::min<long>(v * 10 + (p_[pos_++] - '0'), Regex::kMaxRepeat + 1);
      }
      *out = static_cast<int>(v);
      return true;
    };
    if (!number(min)) return ErrorAt("invalid counted repeat", at);
    *max = *min;
    if (Peek(',')) {
      ++pos_;
      if (!number(max)) *max = -1;
    }
    if (!Peek('}')) return ErrorAt("invalid counted repeat", at);
    ++pos_;
    if (*min > Regex::kMaxRepeat || *max > Regex::kMaxRepeat) {
      return ErrorAt("counted repeat above " +
                         std::to_string(Regex::kMaxRepeat),
                     at);
    }
    if (*max >= 0 && *min > *max) {
      return ErrorAt("counted repeat with min above max", at);
    }
    return Status::OK();
  }

  std::string_view p_;
  size_t pos_ = 0;
  std::vector<ByteSet>* sets_;
};

/// Emits the NFA back to front: each node compiles against the pc its
/// match continues at, so no patch lists are needed.
template <typename Inst>
class Emitter {
 public:
  explicit Emitter(std::vector<Inst>* prog) : prog_(prog) {}

  int32_t Emit(const Node& n, int32_t next) {
    switch (n.kind) {
      case Node::kSet:
        return Add({Inst::kByte, next, -1, n.set});
      case Node::kConcat:
        for (auto it = n.kids.rbegin(); it != n.kids.rend(); ++it) {
          next = Emit(*it, next);
        }
        return next;
      case Node::kAlt: {
        int32_t entry = Emit(n.kids.back(), next);
        for (size_t i = n.kids.size() - 1; i-- > 0;) {
          entry = Add({Inst::kSplit, Emit(n.kids[i], next), entry, -1});
        }
        return entry;
      }
      case Node::kRepeat:
        return EmitRepeat(n, next);
    }
    return next;
  }

 private:
  int32_t Add(const Inst& inst) {
    prog_->push_back(inst);
    return static_cast<int32_t>(prog_->size() - 1);
  }

  int32_t EmitRepeat(const Node& n, int32_t next) {
    const Node& x = n.kids[0];
    int32_t cur = next;
    int mandatory = n.min;
    if (n.max < 0) {
      // x* enters the loop split; x{m,} ends in one x+ (enter the body).
      const int32_t loop = Add({Inst::kSplit, -1, next, -1});
      const int32_t body = Emit(x, loop);
      (*prog_)[loop].out = body;
      cur = n.min > 0 ? body : loop;
      mandatory = std::max(n.min - 1, 0);
    } else {
      // x{m,n}: the n - m optional copies nest, (x(x)?)?.
      for (int i = n.min; i < n.max; ++i) {
        cur = Add({Inst::kSplit, Emit(x, cur), next, -1});
      }
    }
    for (int i = 0; i < mandatory; ++i) cur = Emit(x, cur);
    return cur;
  }

  std::vector<Inst>* prog_;
};

}  // namespace

/// Per-call working memory for thread-list steps.
struct Regex::Scratch {
  explicit Scratch(size_t n) : seen(n, 0) {}
  std::vector<uint32_t> seen;  // pc -> generation it was added in
  uint32_t gen = 0;
  std::vector<int32_t> stack;
};

Result<Regex> Regex::Compile(std::string_view pattern) {
  Regex re;
  re.pattern_ = std::string(pattern);
  Parser parser(pattern, &re.sets_);
  ICEWAFL_ASSIGN_OR_RETURN(Node root, parser.Parse());
  const int32_t start = Emitter<Inst>(&re.prog_).Emit(root, kMatchPc);

  // Byte classes: refine one partition of 0..255 by every set in turn.
  re.class_of_.fill(0);
  int32_t classes = 1;
  for (const ByteSet& set : re.sets_) {
    std::array<int16_t, 512> remap;
    remap.fill(-1);
    classes = 0;
    for (int b = 0; b < 256; ++b) {
      int16_t& id = remap[re.class_of_[b] * 2 + (set.test(b) ? 1 : 0)];
      if (id < 0) id = static_cast<int16_t>(classes++);
      re.class_of_[b] = static_cast<uint8_t>(id);
    }
  }
  re.num_classes_ = classes;
  re.BuildDfa(start);
  return re;
}

void Regex::AddThread(int32_t pc, std::vector<int32_t>* threads,
                      Scratch* scratch) const {
  scratch->stack.push_back(pc);
  while (!scratch->stack.empty()) {
    const int32_t at = scratch->stack.back();
    scratch->stack.pop_back();
    if (scratch->seen[at] == scratch->gen) continue;
    scratch->seen[at] = scratch->gen;
    const Inst& inst = prog_[at];
    if (inst.op == Inst::kSplit) {
      scratch->stack.push_back(inst.out1);
      scratch->stack.push_back(inst.out);
    } else {
      threads->push_back(at);
    }
  }
}

void Regex::Step(const std::vector<int32_t>& from, uint8_t byte,
                 Scratch* scratch, std::vector<int32_t>* to) const {
  to->clear();
  ++scratch->gen;
  for (const int32_t pc : from) {
    const Inst& inst = prog_[pc];
    if (inst.op == Inst::kByte && sets_[inst.set].test(byte)) {
      AddThread(inst.out, to, scratch);
    }
  }
}

void Regex::BuildDfa(int32_t start_pc) {
  Scratch scratch(prog_.size());
  std::vector<int32_t> start;
  ++scratch.gen;
  AddThread(start_pc, &start, &scratch);
  std::sort(start.begin(), start.end());

  std::array<uint8_t, 256> representative{};
  for (int b = 255; b >= 0; --b) {
    representative[class_of_[b]] = static_cast<uint8_t>(b);
  }
  states_.assign(1, start);
  next_.assign(num_classes_, kUnbuilt);
  std::map<std::vector<int32_t>, int32_t> ids{{start, 0}};
  std::vector<int32_t> to;
  size_t work = 0;
  for (size_t s = 0; s < states_.size() && work <= kMaxBuildWork; ++s) {
    for (int32_t c = 0; c < num_classes_; ++c) {
      Step(states_[s], representative[c], &scratch, &to);
      work += states_[s].size() + to.size();
      std::sort(to.begin(), to.end());
      int32_t target = kDead;
      if (!to.empty()) {
        auto it = ids.find(to);
        if (it != ids.end()) {
          target = it->second;
        } else if (states_.size() < kMaxDfaStates) {
          target = static_cast<int32_t>(states_.size());
          ids.emplace(to, target);
          states_.push_back(to);
          next_.resize(next_.size() + num_classes_, kUnbuilt);
        } else {
          target = kUnbuilt;
        }
      }
      next_[s * num_classes_ + c] = target;
    }
  }
  accept_.resize(states_.size());
  for (size_t s = 0; s < states_.size(); ++s) {
    accept_[s] = !states_[s].empty() && states_[s][0] == kMatchPc;
  }
}

bool Regex::Simulate(int32_t state, std::string_view rest) const {
  Scratch scratch(prog_.size());
  std::vector<int32_t> cur = states_[state];
  std::vector<int32_t> next;
  for (const char ch : rest) {
    Step(cur, static_cast<uint8_t>(ch), &scratch, &next);
    if (next.empty()) return false;
    cur.swap(next);
  }
  return std::find(cur.begin(), cur.end(), kMatchPc) != cur.end();
}

bool Regex::FullMatch(std::string_view text) const {
  int32_t s = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const int32_t t =
        next_[s * num_classes_ + class_of_[static_cast<uint8_t>(text[i])]];
    if (t < 0) return t == kUnbuilt && Simulate(s, text.substr(i));
    s = t;
  }
  return accept_[s] != 0;
}

}  // namespace icewafl
