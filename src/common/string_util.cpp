#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace hoh::common {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& tokens,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i) out += sep;
    out += tokens[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::string format_bytes(std::int64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (std::abs(v) >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  if (u == 0) return strformat("%lld B", static_cast<long long>(bytes));
  return strformat("%.1f %s", v, units[u]);
}

std::string format_seconds(double seconds) {
  if (seconds < 60.0) return strformat("%.1fs", seconds);
  const int mins = static_cast<int>(seconds / 60.0);
  const double rem = seconds - mins * 60.0;
  if (mins < 60) return strformat("%dm%04.1fs", mins, rem);
  const int hours = mins / 60;
  return strformat("%dh%02dm%02.0fs", hours, mins % 60, rem);
}

std::string digest_names(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& name : names) {
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= static_cast<unsigned char>('\n');
    h *= 1099511628211ull;
  }
  return strformat("%016llx", static_cast<unsigned long long>(h));
}

}  // namespace hoh::common
