#include "common/string_util.h"

#include <cctype>
#include <cstdio>

namespace tqp {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool LikeMatch(std::string_view value, std::string_view pattern) {
  // Iterative wildcard matcher with backtracking over the last '%'.
  size_t v = 0;
  size_t p = 0;
  size_t star_p = std::string_view::npos;
  size_t star_v = 0;
  while (v < value.size()) {
    // '%' is a wildcard even where the value holds a literal '%'.
    if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_v = v;
    } else if (p < pattern.size() &&
               (pattern[p] == '_' || pattern[p] == value[v])) {
      ++v;
      ++p;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return std::string(buf);
}

}  // namespace tqp
