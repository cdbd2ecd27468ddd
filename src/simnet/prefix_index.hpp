// Read-only prefix index for the impairment plane.
//
// Compiled once from a list of (prefix, id) entries, it answers "which
// entries cover this address?" in O(distinct prefix lengths), whatever the
// entry count: one open-addressed hash table per distinct length, keyed on
// the address masked to that length (hi64, lo64), fronted by a top-16-bit
// coverage bitset so an address no entry can cover resolves on one bit
// test. ImpairmentPlane's route check takes the longest covering entry
// (standard LPM); its rule walk takes every covering rule and re-sorts
// the hits into declaration order.
//
// The index never changes after construction, so concurrent shard
// executors read it without locks.
#pragma once

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/ipv6.hpp"

namespace tts::simnet {

class PrefixIndex {
 public:
  using Entry = std::pair<net::Ipv6Prefix, std::uint32_t>;

  PrefixIndex() = default;
  /// Compile `entries`. Several ids may share one prefix; they are kept in
  /// ascending order.
  explicit PrefixIndex(std::vector<Entry> entries);

  /// Can any entry cover `a`? One bit test; false proves no entry does.
  bool may_cover(const net::Ipv6Address& a) const {
    return covered_[static_cast<std::size_t>(a.hi64() >> 48)];
  }

  /// Call fn(ids) once per prefix covering `a`, longest prefix first; each
  /// `ids` span lists that prefix's ids in ascending order.
  template <typename Fn>
  void for_each_covering(const net::Ipv6Address& a, Fn&& fn) const {
    if (!may_cover(a)) return;
    for (const Level& level : levels_)
      if (const Slot* slot = find(level, a)) fn(ids_of(*slot));
  }

  /// The ids of the longest prefix covering `a`; empty when none does.
  std::span<const std::uint32_t> longest(const net::Ipv6Address& a) const {
    if (!may_cover(a)) return {};
    for (const Level& level : levels_)
      if (const Slot* slot = find(level, a)) return ids_of(*slot);
    return {};
  }

  /// Heap plus inline footprint of the compiled index.
  std::size_t bytes() const;

 private:
  /// One distinct prefix; count == 0 marks an empty slot.
  struct Slot {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    std::uint32_t begin = 0;  // into ids_
    std::uint32_t count = 0;
  };
  /// The table of one prefix length: a power-of-two run of slots_.
  struct Level {
    std::uint64_t mask_hi = 0;
    std::uint64_t mask_lo = 0;
    std::uint32_t first = 0;  // first slot in slots_
    std::uint32_t slot_mask = 0;
    unsigned shift = 0;  // 64 - log2(slot count)
  };

  static std::uint64_t hash(std::uint64_t hi, std::uint64_t lo) {
    return (hi ^ (lo * 0xc2b2ae3d27d4eb4fULL)) * 0x9e3779b97f4a7c15ULL;
  }

  const Slot* find(const Level& level, const net::Ipv6Address& a) const {
    const std::uint64_t hi = a.hi64() & level.mask_hi;
    const std::uint64_t lo = a.lo64() & level.mask_lo;
    auto i = static_cast<std::uint32_t>(hash(hi, lo) >> level.shift);
    for (;;) {
      const Slot& slot = slots_[level.first + i];
      if (slot.count == 0) return nullptr;
      if (slot.hi == hi && slot.lo == lo) return &slot;
      i = (i + 1) & level.slot_mask;
    }
  }

  std::span<const std::uint32_t> ids_of(const Slot& slot) const {
    return {ids_.data() + slot.begin, slot.count};
  }

  std::vector<Level> levels_;  // longest prefix length first
  std::vector<Slot> slots_;    // every level's table, back to back
  std::vector<std::uint32_t> ids_;
  /// Bit b set iff some entry covers addresses whose top 16 bits equal b.
  std::bitset<1 << 16> covered_;
};

}  // namespace tts::simnet
