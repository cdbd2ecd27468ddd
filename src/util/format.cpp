#include "util/format.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace tts::util {

std::string grouped(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - lead) % 3 == 0) out.push_back(' ');
    out.push_back(digits[i]);
  }
  return out;
}

std::string grouped(std::int64_t value) {
  if (value < 0) return "-" + grouped(static_cast<std::uint64_t>(-value));
  return grouped(static_cast<std::uint64_t>(value));
}

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::string percent(double ratio, int digits) {
  return fixed(ratio * 100.0, digits) + " %";
}

std::string permille(double ratio, int digits) {
  return fixed(ratio * 1000.0, digits) + "‰";
}

std::string pad_left(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.insert(0, width - out.size(), ' ');
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool istarts_with(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(s[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i])))
      return false;
  }
  return true;
}

bool icontains(std::string_view s, std::string_view needle) {
  if (needle.empty()) return true;
  if (s.size() < needle.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= s.size(); ++i) {
    if (istarts_with(s.substr(i), needle)) return true;
  }
  return false;
}

void append_hex_byte(std::string& out, std::uint8_t byte) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back(kHex[byte >> 4]);
  out.push_back(kHex[byte & 0xf]);
}

std::string hex(const std::uint8_t* data, std::size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) append_hex_byte(out, data[i]);
  return out;
}

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  do {
    out.insert(out.begin(), kDigits[value & 0xf]);
    value >>= 4;
  } while (value != 0);
  return out;
}

}  // namespace tts::util
