#include "util/json.h"

#include <cmath>

#include "util/strings.h"

namespace icewafl {

Result<Json> Json::Get(const std::string& key) const {
  if (type_ != Type::kObject) {
    return Status::TypeError("Get('" + key + "') on non-object JSON node");
  }
  auto it = object_.find(key);
  if (it == object_.end()) {
    return Status::NotFound("missing JSON key: '" + key + "'");
  }
  return it->second;
}

double Json::GetDouble(const std::string& key, double fallback) const {
  auto it = object_.find(key);
  return (it != object_.end() && it->second.is_number()) ? it->second.AsDouble()
                                                         : fallback;
}

int64_t Json::GetInt(const std::string& key, int64_t fallback) const {
  auto it = object_.find(key);
  return (it != object_.end() && it->second.is_number()) ? it->second.AsInt64()
                                                         : fallback;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  auto it = object_.find(key);
  return (it != object_.end() && it->second.is_bool()) ? it->second.AsBool()
                                                       : fallback;
}

std::string Json::GetString(const std::string& key, std::string fallback) const {
  auto it = object_.find(key);
  return (it != object_.end() && it->second.is_string()) ? it->second.AsString()
                                                         : fallback;
}

namespace {

void EscapeStringTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  const std::string pad = indent > 0 ? std::string(indent * (depth + 1), ' ') : "";
  const std::string padEnd = indent > 0 ? std::string(indent * depth, ' ') : "";
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      if (std::isfinite(num_)) {
        out->append(FormatDouble(num_));
      } else {
        out->append("null");  // JSON has no Inf/NaN
      }
      break;
    case Type::kString:
      EscapeStringTo(str_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        out->append(nl);
        out->append(pad);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) {
        out->append(nl);
        out->append(padEnd);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        out->append(nl);
        out->append(pad);
        EscapeStringTo(key, out);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        v.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) {
        out->append(nl);
        out->append(padEnd);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, 0, 0);
  return out;
}

std::string Json::DumpPretty() const {
  std::string out;
  DumpTo(&out, 2, 0);
  return out;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return num_ == other.num_;
    case Type::kString:
      return str_ == other.str_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

/// Recursive-descent JSON parser over a raw character range.
class Parser {
 public:
  Parser(const char* begin, const char* end) : p_(begin), end_(end) {}

  Result<Json> ParseDocument() {
    Json root;
    Status st = ParseValue(&root, 0);
    if (!st.ok()) return st;
    SkipWs();
    if (p_ != end_) return Err("trailing characters after JSON document");
    return root;
  }

 private:
  Status Err(const std::string& msg) {
    return Status::ParseError(msg + " (at offset " +
                              std::to_string(consumed_) + ")");
  }

  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      Advance();
    }
  }

  void Advance() {
    ++p_;
    ++consumed_;
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      Advance();
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const char* q = p_;
    size_t n = 0;
    while (*lit) {
      if (q == end_ || *q != *lit) return false;
      ++q;
      ++lit;
      ++n;
    }
    p_ = q;
    consumed_ += n;
    return true;
  }

  /// `depth` counts the containers enclosing this value.
  Status ParseValue(Json* out, int depth) {
    SkipWs();
    if (p_ == end_) return Err("unexpected end of input");
    if ((*p_ == '{' || *p_ == '[') && depth >= Json::kMaxDepth) {
      return Err("nesting deeper than " + std::to_string(Json::kMaxDepth) +
                 " levels");
    }
    switch (*p_) {
      case '{':
        return ParseObject(out, depth + 1);
      case '[':
        return ParseArray(out, depth + 1);
      case '"': {
        std::string s;
        ICEWAFL_RETURN_NOT_OK(ParseString(&s));
        *out = Json(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = Json(true);
          return Status::OK();
        }
        return Err("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = Json(false);
          return Status::OK();
        }
        return Err("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = Json();
          return Status::OK();
        }
        return Err("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Json* out, int depth) {
    Advance();  // '{'
    *out = Json::MakeObject();
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Err("expected object key");
      std::string key;
      ICEWAFL_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Err("expected ':' after object key");
      Json value;
      ICEWAFL_RETURN_NOT_OK(ParseValue(&value, depth));
      out->Set(key, std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Err("expected ',' or '}' in object");
    }
  }

  Status ParseArray(Json* out, int depth) {
    Advance();  // '['
    *out = Json::MakeArray();
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      Json value;
      ICEWAFL_RETURN_NOT_OK(ParseValue(&value, depth));
      out->Append(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Err("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    Advance();  // '"'
    out->clear();
    while (true) {
      if (p_ == end_) return Err("unterminated string");
      char c = *p_;
      Advance();
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ == end_) return Err("unterminated escape");
      char esc = *p_;
      Advance();
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (p_ == end_) return Err("truncated \\u escape");
            char h = *p_;
            Advance();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code += h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code += h - 'A' + 10;
            } else {
              return Err("invalid hex digit in \\u escape");
            }
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Err("invalid escape character");
      }
    }
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(Json* out) {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) Advance();
    bool digits = false;
    auto eat_digits = [&] {
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') {
        Advance();
        digits = true;
      }
    };
    eat_digits();
    if (p_ != end_ && *p_ == '.') {
      Advance();
      eat_digits();
    }
    if (!digits) return Err("invalid number");
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      Advance();
      if (p_ != end_ && (*p_ == '-' || *p_ == '+')) Advance();
      bool exp_digits = false;
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') {
        Advance();
        exp_digits = true;
      }
      if (!exp_digits) return Err("invalid exponent");
    }
    auto value = ParseDouble(std::string(start, p_));
    if (!value.ok()) return value.status();
    *out = Json(value.ValueOrDie());
    return Status::OK();
  }

  const char* p_;
  const char* end_;
  size_t consumed_ = 0;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.ParseDocument();
}

}  // namespace icewafl
