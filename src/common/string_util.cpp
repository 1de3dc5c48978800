#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
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
  // One pass into a stack buffer; a second only when the text is longer.
  char stack[256];
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int needed = std::vsnprintf(stack, sizeof(stack), fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0 && static_cast<std::size_t>(needed) < sizeof(stack)) {
    out.assign(stack, static_cast<std::size_t>(needed));
  } else if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  }
  va_end(again);
  return out;
}

void append_decimal(std::string& out, std::uint64_t value,
                    std::size_t min_digits) {
  char digits[20];  // 2^64 - 1 has 20
  const char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  const auto n = static_cast<std::size_t>(end - digits);
  if (n < min_digits) out.append(min_digits - n, '0');
  out.append(digits, n);
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

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string digest_names(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  std::uint64_t h = kFnv1aBasis;
  for (const auto& name : names) {
    h = fnv1a(fnv1a(h, name), "\n");
  }
  return strformat("%016llx", static_cast<unsigned long long>(h));
}

}  // namespace hoh::common
