// An open-addressed hash map for hot lookups.
//
// FlatMap<Key, Value, Hash> keeps its values in one dense vector and
// indexes them through a power-of-two table of {key, index} slots probed
// linearly. The table stays at most half full, so a miss usually costs one
// cache line and never touches a value; a hit costs that line plus the
// value's. Erase shifts the following cluster back (no tombstones) and
// moves the last dense value into the freed place, so both arrays stay
// compact however the map churns.
//
// The slot index is hash(key) & (slots - 1): the hash must spread its low
// bits. Pointers and references to values are invalidated by any insert
// or erase. There is no iteration: callers that need an order keep one.
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
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.index == kEmpty) break;
      if (slot.key == key) return dense_[slot.index].second;
    }
    slots_[i] = Slot{key, static_cast<std::uint32_t>(dense_.size())};
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
      std::size_t dist_home = (j - home(slots_[j].key)) & mask_;
      std::size_t dist_hole = (j - hole) & mask_;
      if (dist_home >= dist_hole) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].index = kEmpty;
    // Keep the values dense: the last one moves into the freed place.
    const auto last = static_cast<std::uint32_t>(dense_.size() - 1);
    if (index != last) {
      dense_[index] = std::move(dense_[last]);
      slots_[locate(dense_[index].first)].index = index;
    }
    dense_.pop_back();
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    Key key{};
    std::uint32_t index = kEmpty;  // into dense_, or kEmpty
  };

  std::size_t home(const Key& key) const { return hash_(key) & mask_; }

  /// The slot holding `key`, or kNone.
  std::size_t locate(const Key& key) const {
    if (slots_.empty()) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.index == kEmpty) return kNone;
      if (slot.key == key) return i;
    }
  }

  void grow() {
    std::size_t n = slots_.empty() ? kMinSlots : 2 * slots_.size();
    slots_.assign(n, Slot{});
    mask_ = n - 1;
    for (std::size_t d = 0; d < dense_.size(); ++d) {
      std::size_t i = home(dense_[d].first);
      while (slots_[i].index != kEmpty) i = (i + 1) & mask_;
      slots_[i] = Slot{dense_[d].first, static_cast<std::uint32_t>(d)};
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::pair<Key, Value>> dense_;
  std::size_t mask_ = 0;
  [[no_unique_address]] Hash hash_;
};

}  // namespace tts::util
