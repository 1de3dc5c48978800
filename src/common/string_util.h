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

/// Appends \p value in decimal, zero-padded to at least \p min_digits
/// digits: what printf's "%0<min_digits>llu" prints, without printf.
void append_decimal(std::string& out, std::uint64_t value,
                    std::size_t min_digits = 1);

/// Human-readable byte count, e.g. "1.5 GiB".
std::string format_bytes(std::int64_t bytes);

/// Human-readable duration, e.g. "2m03s" or "45.2s".
std::string format_seconds(double seconds);

/// FNV-1a: the 64-bit offset basis, and one fold of \p bytes into the
/// running hash \p h. Both run digests are built from it.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;
std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes);

/// The run digest: FNV-1a over the sorted, newline-joined names, as 16
/// hex digits. Stable across runs, platforms and processes (unlike
/// std::hash), so hohsim's outputChecksum and a multi-process hohnode
/// run over the same unit set print the same value.
std::string digest_names(std::vector<std::string> names);

}  // namespace hoh::common
