#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace icewafl {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

Result<double> ParseDouble(std::string_view text) {
  const std::string buf(Trim(text));
  if (buf.empty()) return Status::ParseError("empty string is not a double");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in double: '" + buf + "'");
  }
  if (errno == ERANGE && !std::isfinite(v)) {
    return Status::OutOfRange("double out of range: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt64(std::string_view text) {
  const std::string buf(Trim(text));
  if (buf.empty()) return Status::ParseError("empty string is not an integer");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in integer: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

void FormatDoubleTo(double v, std::string* out) {
  char buf[40];
  char* const end = buf + sizeof(buf);
  // Integral values render without an exponent ("20", not "2e+01").
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    out->assign(buf, std::to_chars(buf, end, static_cast<int64_t>(v)).ptr);
    return;
  }
  if (!std::isfinite(v)) {
    out->assign(buf, std::to_chars(buf, end, v).ptr);  // inf, -inf, nan
    return;
  }
  // Otherwise: the shortest %g rendering that round-trips. No precision
  // below the shortest round-trip digit count can round-trip, so the
  // search starts there; %.{p}g itself may still miss (it rounds to the
  // nearest p-digit decimal, which can fall outside the round-trip
  // interval at a power of two), hence the loop. to_chars(general, prec)
  // is specified to print exactly what printf("%.*g") prints.
  char* last = std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
  int prec = 0;
  for (const char* c = buf; c != last && *c != 'e'; ++c) {
    prec += (*c >= '0' && *c <= '9') ? 1 : 0;
  }
  for (; prec <= 17; ++prec) {
    last = std::to_chars(buf, end, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    std::from_chars(buf, last, back);
    if (back == v) break;
  }
  out->assign(buf, last);
}

std::string FormatDouble(double v) {
  std::string out;
  FormatDoubleTo(v, &out);
  return out;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace icewafl
