#include "common/strutil.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace iflex {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  std::string h = ToLower(haystack);
  std::string n = ToLower(needle);
  return h.find(n) != std::string::npos;
}

std::optional<double> ParseLooseNumber(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return std::nullopt;
  if (s.front() == '$') s.remove_prefix(1);
  if (s.empty()) return std::nullopt;
  // Validate in place first: most inputs (every sub-span a comparison
  // enumerates) are rejected at their first character.
  bool seen_digit = false;
  bool seen_dot = false;
  size_t kept = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      seen_digit = true;
      ++kept;
    } else if (c == ',') {
      // Thousands separator must sit between digits.
      if (!seen_digit || i + 1 >= s.size() ||
          !std::isdigit(static_cast<unsigned char>(s[i + 1]))) {
        return std::nullopt;
      }
    } else if (c == '.') {
      if (seen_dot) return std::nullopt;
      seen_dot = true;
      ++kept;
    } else if (c == '-' && i == 0) {
      ++kept;
    } else {
      return std::nullopt;
    }
  }
  if (!seen_digit) return std::nullopt;
  // strtod reads the kept characters, NUL-terminated: from the stack, or
  // from the heap past 64 characters.
  char stack[65];
  std::unique_ptr<char[]> heap;
  char* buf = stack;
  if (kept >= sizeof(stack)) {
    heap = std::make_unique<char[]>(kept + 1);
    buf = heap.get();
  }
  size_t n = 0;
  for (char c : s) {
    if (c != ',') buf[n++] = c;
  }
  buf[n] = '\0';
  return std::strtod(buf, nullptr);
}

bool IsLooseNumber(std::string_view s) {
  return ParseLooseNumber(s).has_value();
}

std::string FormatNumber(double n) {
  // The range check keeps the cast defined: converting a double outside
  // int64 (or inf, or NaN) to an integer is undefined behaviour.
  if (n >= -9223372036854775808.0 && n < 9223372036854775808.0 &&
      n == std::trunc(n)) {
    return StringPrintf("%lld", static_cast<long long>(n));
  }
  return StringPrintf("%g", n);
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

uint64_t Fingerprint64(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace iflex
