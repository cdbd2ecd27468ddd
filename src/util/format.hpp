// Lightweight string formatting helpers.
//
// GCC 12's libstdc++ ships no <format>, so the library uses these small
// helpers instead. They cover the handful of shapes the benches and reports
// need: concatenation, grouped integers ("3 040 325 302" as the paper prints
// them), fixed-precision doubles, and percentages.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace tts::util {

/// Concatenate any streamable values into a std::string.
template <typename... Ts>
std::string cat(const Ts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Format an unsigned integer with thin-space digit grouping in groups of
/// three, matching the paper's table style: 3040325302 -> "3 040 325 302".
std::string grouped(std::uint64_t value);

/// Signed counterpart of grouped().
std::string grouped(std::int64_t value);

/// Format a double with the given number of fractional digits.
std::string fixed(double value, int digits);

/// Format a ratio in [0,1] as a percentage string, e.g. 0.284 -> "28.4 %".
std::string percent(double ratio, int digits = 1);

/// Format a ratio in [0,1] as per-mille, e.g. 0.00042 -> "0.42‰".
std::string permille(double ratio, int digits = 2);

/// Left/right pad `s` with spaces to at least `width` characters.
std::string pad_left(std::string_view s, std::size_t width);
std::string pad_right(std::string_view s, std::size_t width);

/// Lower-case an ASCII string (non-ASCII bytes pass through untouched).
std::string to_lower(std::string_view s);

/// True if `s` starts with / contains `needle` (ASCII case-insensitive).
bool istarts_with(std::string_view s, std::string_view prefix);
bool icontains(std::string_view s, std::string_view needle);

/// Render a byte as two lowercase hex characters appended to `out`.
void append_hex_byte(std::string& out, std::uint8_t byte);

/// Hex-encode a byte span.
std::string hex(const std::uint8_t* data, std::size_t len);

/// Lowercase hex digits of `value`, no leading zeros and no prefix.
std::string hex64(std::uint64_t value);

}  // namespace tts::util
