// IPv6 address and prefix types.
//
// Addresses are 16 opaque bytes with value semantics. Parsing accepts the
// RFC 4291 textual forms (full, "::"-compressed, mixed case); formatting
// follows RFC 5952 (lowercase, longest zero-run compressed, no leading
// zeroes). Prefix arithmetic on /32../64 networks underpins the network
// aggregation analyses (Tables 5 and 6).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace tts::net {

class Ipv6Address {
 public:
  static constexpr std::size_t kBytes = 16;

  /// The unspecified address "::".
  constexpr Ipv6Address() : bytes_{} {}

  static constexpr Ipv6Address from_bytes(
      const std::array<std::uint8_t, kBytes>& b) {
    Ipv6Address a;
    a.bytes_ = b;
    return a;
  }

  /// Build from the high (network) and low (interface identifier) halves.
  static constexpr Ipv6Address from_halves(std::uint64_t hi,
                                           std::uint64_t lo) {
    Ipv6Address a;
    for (int i = 0; i < 8; ++i) {
      a.bytes_[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(hi >> (56 - 8 * i));
      a.bytes_[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>(lo >> (56 - 8 * i));
    }
    return a;
  }

  /// Parse textual form; returns nullopt on any syntax error.
  static std::optional<Ipv6Address> parse(std::string_view text);

  /// RFC 5952 canonical text.
  std::string to_string() const;

  constexpr const std::array<std::uint8_t, kBytes>& bytes() const {
    return bytes_;
  }

  constexpr std::uint64_t hi64() const { return read64(0); }
  constexpr std::uint64_t lo64() const { return read64(8); }

  /// Interface identifier = low 64 bits.
  constexpr std::uint64_t iid() const { return lo64(); }

  /// The IID bytes as a span (for entropy computation).
  std::span<const std::uint8_t, 8> iid_bytes() const {
    return std::span<const std::uint8_t, 8>(bytes_.data() + 8, 8);
  }

  /// Replace the low 64 bits.
  constexpr Ipv6Address with_iid(std::uint64_t iid) const {
    return from_halves(hi64(), iid);
  }

  /// Zero all bits below `prefix_len` (0..128).
  Ipv6Address masked(unsigned prefix_len) const;

  constexpr bool is_unspecified() const {
    for (auto b : bytes_)
      if (b != 0) return false;
    return true;
  }

  friend constexpr auto operator<=>(const Ipv6Address&,
                                    const Ipv6Address&) = default;

 private:
  constexpr std::uint64_t read64(std::size_t off) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | bytes_[off + i];
    return v;
  }

  std::array<std::uint8_t, kBytes> bytes_;
};

struct Ipv6AddressHash {
  std::size_t operator()(const Ipv6Address& a) const {
    // Addresses are well-spread already in the low half (IIDs); mix both
    // halves so structured addresses don't collide.
    std::uint64_t h = a.hi64() * 0x9e3779b97f4a7c15ULL;
    h ^= a.lo64() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

/// The hash for util::FlatMap tables keyed by address: a 64-bit finalizer
/// over both halves, so the table's low-bit slot index spreads even
/// structured addresses (one IID across many prefixes, sequential
/// subnets).
struct Ipv6AddressFlatHash {
  std::size_t operator()(const Ipv6Address& a) const {
    std::uint64_t h = (a.hi64() * 0x9e3779b97f4a7c15ULL) ^ a.lo64();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

/// Network masks of a /len prefix (0..128) over an address's two halves.
constexpr std::uint64_t prefix_mask_hi(unsigned len) {
  return len == 0 ? 0 : len >= 64 ? ~0ULL : ~0ULL << (64 - len);
}
constexpr std::uint64_t prefix_mask_lo(unsigned len) {
  return len <= 64 ? 0 : ~0ULL << (128 - len);
}

/// A CIDR prefix: an address with all host bits zero plus a length.
class Ipv6Prefix {
 public:
  constexpr Ipv6Prefix() : len_(0) {}
  Ipv6Prefix(const Ipv6Address& addr, unsigned len);

  /// Parse "2001:db8::/32"; nullopt on error (including host bits set).
  static std::optional<Ipv6Prefix> parse(std::string_view text);

  const Ipv6Address& address() const { return addr_; }
  unsigned length() const { return len_; }

  /// Compares the network bits of both halves under the /len masks.
  bool contains(const Ipv6Address& a) const {
    return ((a.hi64() ^ addr_.hi64()) & prefix_mask_hi(len_)) == 0 &&
           ((a.lo64() ^ addr_.lo64()) & prefix_mask_lo(len_)) == 0;
  }
  bool contains(const Ipv6Prefix& other) const {
    return other.len_ >= len_ && contains(other.addr_);
  }

  std::string to_string() const;

  friend auto operator<=>(const Ipv6Prefix&, const Ipv6Prefix&) = default;

 private:
  Ipv6Address addr_;
  unsigned len_;
};

struct Ipv6PrefixHash {
  std::size_t operator()(const Ipv6Prefix& p) const {
    return Ipv6AddressHash{}(p.address()) * 131 + p.length();
  }
};

/// Convenience: the enclosing /48, /56, /64 (etc.) network of an address.
Ipv6Prefix network_of(const Ipv6Address& a, unsigned prefix_len);

}  // namespace tts::net

template <>
struct std::hash<tts::net::Ipv6Address> {
  std::size_t operator()(const tts::net::Ipv6Address& a) const {
    return tts::net::Ipv6AddressHash{}(a);
  }
};

template <>
struct std::hash<tts::net::Ipv6Prefix> {
  std::size_t operator()(const tts::net::Ipv6Prefix& p) const {
    return tts::net::Ipv6PrefixHash{}(p);
  }
};
