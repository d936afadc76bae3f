// Strict decimal parsing for command-line flags and environment knobs.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace planaria::common {

/// Parses a plain decimal u64. strtoull skips leading space, accepts a sign
/// and wraps "-1" to 2^64-1, saturates out-of-range values and stops silently
/// at the first non-digit, so the text must start with a digit, be consumed
/// whole and fit in 64 bits. Leaves `out` untouched on failure.
inline bool parse_u64(const char* text, std::uint64_t& out) {
  if (std::isdigit(static_cast<unsigned char>(*text)) == 0) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

}  // namespace planaria::common
