#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file string_util.h
/// Small string helpers shared across modules.

namespace hoh::common {

/// Splits on a single-character delimiter; empty tokens are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Joins tokens with a separator.
std::string join(const std::vector<std::string>& tokens,
                 std::string_view sep);

/// True if \p s starts with \p prefix.
bool starts_with(std::string_view s, std::string_view prefix);

/// Strips leading and trailing whitespace.
std::string trim(std::string_view s);

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Human-readable byte count, e.g. "1.5 GiB".
std::string format_bytes(std::int64_t bytes);

/// Human-readable duration, e.g. "2m03s" or "45.2s".
std::string format_seconds(double seconds);

/// The run digest: FNV-1a over the sorted, newline-joined names, as 16
/// hex digits. Stable across runs, platforms and processes (unlike
/// std::hash), so hohsim's outputChecksum and a multi-process hohnode
/// run over the same unit set print the same value.
std::string digest_names(std::vector<std::string> names);

}  // namespace hoh::common
