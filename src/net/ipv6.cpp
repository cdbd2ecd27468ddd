#include "net/ipv6.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

namespace tts::net {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Parse one hextet group (1-4 hex digits). Returns -1 on error.
int parse_group(std::string_view g) {
  if (g.empty() || g.size() > 4) return -1;
  int v = 0;
  for (char c : g) {
    int d = hex_digit(c);
    if (d < 0) return -1;
    v = (v << 4) | d;
  }
  return v;
}

}  // namespace

std::optional<Ipv6Address> Ipv6Address::parse(std::string_view text) {
  // Split on "::" (at most one occurrence).
  std::size_t dc = text.find("::");
  if (dc != std::string_view::npos &&
      text.find("::", dc + 1) != std::string_view::npos)
    return std::nullopt;

  auto split_groups = [](std::string_view part,
                         std::vector<int>& out) -> bool {
    if (part.empty()) return true;
    std::size_t start = 0;
    for (;;) {
      std::size_t colon = part.find(':', start);
      std::string_view g = colon == std::string_view::npos
                               ? part.substr(start)
                               : part.substr(start, colon - start);
      int v = parse_group(g);
      if (v < 0) return false;
      out.push_back(v);
      if (colon == std::string_view::npos) break;
      start = colon + 1;
      if (start >= part.size() && colon != std::string_view::npos)
        return false;  // trailing single colon
    }
    return true;
  };

  std::vector<int> head, tail;
  if (dc == std::string_view::npos) {
    if (!split_groups(text, head) || head.size() != 8) return std::nullopt;
  } else {
    if (!split_groups(text.substr(0, dc), head)) return std::nullopt;
    if (!split_groups(text.substr(dc + 2), tail)) return std::nullopt;
    if (head.size() + tail.size() > 7) return std::nullopt;
  }

  std::array<std::uint8_t, kBytes> bytes{};
  for (std::size_t i = 0; i < head.size(); ++i) {
    bytes[2 * i] = static_cast<std::uint8_t>(head[i] >> 8);
    bytes[2 * i + 1] = static_cast<std::uint8_t>(head[i] & 0xff);
  }
  for (std::size_t i = 0; i < tail.size(); ++i) {
    std::size_t g = 8 - tail.size() + i;
    bytes[2 * g] = static_cast<std::uint8_t>(tail[i] >> 8);
    bytes[2 * g + 1] = static_cast<std::uint8_t>(tail[i] & 0xff);
  }
  return from_bytes(bytes);
}

std::string Ipv6Address::to_string() const {
  std::array<std::uint16_t, 8> groups;
  for (std::size_t i = 0; i < 8; ++i)
    groups[i] = static_cast<std::uint16_t>((bytes_[2 * i] << 8) |
                                           bytes_[2 * i + 1]);

  // Find longest run of zero groups (length >= 2) for "::" compression;
  // RFC 5952: first of equal-length runs wins.
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  auto join = [&](int from, int to) {
    std::string part;
    char buf[8];
    for (int i = from; i < to; ++i) {
      if (i != from) part += ':';
      std::snprintf(buf, sizeof buf, "%x",
                    groups[static_cast<std::size_t>(i)]);
      part += buf;
    }
    return part;
  };

  if (best_start < 0) return join(0, 8);
  return join(0, best_start) + "::" + join(best_start + best_len, 8);
}

Ipv6Address Ipv6Address::masked(unsigned prefix_len) const {
  if (prefix_len >= 128) return *this;
  std::array<std::uint8_t, kBytes> out = bytes_;
  std::size_t full = prefix_len / 8;
  unsigned rem = prefix_len % 8;
  if (full < kBytes && rem != 0) {
    out[full] &= static_cast<std::uint8_t>(0xff00 >> rem);
    ++full;
  }
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(full), out.end(),
            std::uint8_t{0});
  return from_bytes(out);
}

Ipv6Prefix::Ipv6Prefix(const Ipv6Address& addr, unsigned len) : len_(len) {
  if (len > 128) throw std::invalid_argument("prefix length > 128");
  addr_ = addr.masked(len);
}

std::optional<Ipv6Prefix> Ipv6Prefix::parse(std::string_view text) {
  std::size_t slash = text.rfind('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = Ipv6Address::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  std::string_view len_text = text.substr(slash + 1);
  if (len_text.empty() || len_text.size() > 3) return std::nullopt;
  unsigned len = 0;
  for (char c : len_text) {
    if (c < '0' || c > '9') return std::nullopt;
    len = len * 10 + static_cast<unsigned>(c - '0');
  }
  if (len > 128) return std::nullopt;
  if (addr->masked(len) != *addr) return std::nullopt;  // host bits set
  return Ipv6Prefix(*addr, len);
}

std::string Ipv6Prefix::to_string() const {
  return addr_.to_string() + "/" + std::to_string(len_);
}

Ipv6Prefix network_of(const Ipv6Address& a, unsigned prefix_len) {
  return Ipv6Prefix(a, prefix_len);
}

}  // namespace tts::net
