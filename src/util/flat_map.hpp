// An open-addressed hash map for hot lookups.
//
// FlatMap<Key, Value, Hash> keeps its entries in one dense vector and
// indexes them through a power-of-two table of 8-byte {tag, index} slots
// probed linearly, where the tag is the low 32 bits of the key's hash. A
// probe compares tags and reads a key in the dense vector only on a tag
// match, so the table stays small whatever the key's size. It stays at
// most half full, so a miss usually costs one cache line and never
// touches an entry; a hit costs that line plus the entry's. Erase shifts
// the following cluster back (no tombstones) and moves the last dense
// entry into the freed place, so both arrays stay compact however the map
// churns.
//
// The slot index is hash(key) & (slots - 1), which the tag carries, so
// the table rehashes on growth without reading a key: the hash must
// spread its low bits. Pointers and references to values are invalidated
// by any insert or erase. There is no iteration: callers that need an
// order keep one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tts::util {

template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  std::size_t size() const { return dense_.size(); }
  /// Slots in the index table (0 or a power of two, >= 2 * size()).
  std::size_t slot_count() const { return slots_.size(); }

  Value* find(const Key& key) {
    std::size_t i = locate(key);
    return i == kNone ? nullptr : &dense_[slots_[i].index].second;
  }
  const Value* find(const Key& key) const {
    std::size_t i = locate(key);
    return i == kNone ? nullptr : &dense_[slots_[i].index].second;
  }

  /// The value under `key`, default-constructed when absent.
  Value& operator[](const Key& key) {
    if (2 * (dense_.size() + 1) > slots_.size()) grow();
    const std::uint32_t tag = tag_of(key);
    std::size_t i = tag & mask_;
    for (;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.index == kEmpty) break;
      if (slot.tag == tag && dense_[slot.index].first == key)
        return dense_[slot.index].second;
    }
    slots_[i] = Slot{tag, static_cast<std::uint32_t>(dense_.size())};
    dense_.emplace_back(key, Value{});
    return dense_.back().second;
  }

  /// Remove `key`; false when it was absent.
  bool erase(const Key& key) {
    std::size_t hole = locate(key);
    if (hole == kNone) return false;
    const std::uint32_t index = slots_[hole].index;
    // Backward-shift: walk the rest of the cluster and pull back every
    // entry whose home does not lie cyclically in (hole, j], so no probe
    // sequence ever crosses an empty slot it should not.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].index != kEmpty;
         j = (j + 1) & mask_) {
      std::size_t dist_home = (j - slots_[j].tag) & mask_;
      std::size_t dist_hole = (j - hole) & mask_;
      if (dist_home >= dist_hole) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].index = kEmpty;
    // Keep the entries dense: the last one moves into the freed place,
    // and its slot, found by index along its probe sequence, follows.
    const auto last = static_cast<std::uint32_t>(dense_.size() - 1);
    if (index != last) {
      std::size_t i = tag_of(dense_[last].first) & mask_;
      while (slots_[i].index != last) i = (i + 1) & mask_;
      slots_[i].index = index;
      dense_[index] = std::move(dense_[last]);
    }
    dense_.pop_back();
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    std::uint32_t tag = 0;         // the key's hash, low 32 bits
    std::uint32_t index = kEmpty;  // into dense_, or kEmpty
  };

  std::uint32_t tag_of(const Key& key) const {
    return static_cast<std::uint32_t>(hash_(key));
  }

  /// The slot holding `key`, or kNone.
  std::size_t locate(const Key& key) const {
    if (slots_.empty()) return kNone;
    const std::uint32_t tag = tag_of(key);
    for (std::size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.index == kEmpty) return kNone;
      if (slot.tag == tag && dense_[slot.index].first == key) return i;
    }
  }

  /// Double the table (32-bit indexes keep it within the tag's reach).
  void grow() {
    std::vector<Slot> old(slots_.empty() ? kMinSlots : 2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.index == kEmpty) continue;
      std::size_t i = s.tag & mask_;
      while (slots_[i].index != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::pair<Key, Value>> dense_;
  std::size_t mask_ = 0;
  [[no_unique_address]] Hash hash_;
};

}  // namespace tts::util
