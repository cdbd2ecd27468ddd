#include "simnet/prefix_index.hpp"

#include <algorithm>
#include <bit>

namespace tts::simnet {

PrefixIndex::PrefixIndex(std::vector<Entry> entries) {
  // Longest length first, then by prefix, then by id: each prefix's ids
  // form one ascending run, and each length one contiguous group.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              const net::Ipv6Address& x = a.first.address();
              const net::Ipv6Address& y = b.first.address();
              if (a.first.length() != b.first.length())
                return a.first.length() > b.first.length();
              if (x.hi64() != y.hi64()) return x.hi64() < y.hi64();
              if (x.lo64() != y.lo64()) return x.lo64() < y.lo64();
              return a.second < b.second;
            });
  ids_.reserve(entries.size());
  for (std::size_t group = 0; group < entries.size();) {
    const unsigned len = entries[group].first.length();
    std::size_t distinct = 0;
    std::size_t end = group;
    for (; end < entries.size() && entries[end].first.length() == len; ++end)
      if (end == group || entries[end].first != entries[end - 1].first)
        ++distinct;

    // At most half full, so every probe sequence ends on an empty slot.
    const std::size_t slots = std::bit_ceil(std::max<std::size_t>(
        2, 2 * distinct));
    Level level;
    level.mask_hi = net::prefix_mask_hi(len);
    level.mask_lo = net::prefix_mask_lo(len);
    level.first = static_cast<std::uint32_t>(slots_.size());
    level.slot_mask = static_cast<std::uint32_t>(slots - 1);
    level.shift = 64 - static_cast<unsigned>(std::countr_zero(slots));
    slots_.resize(slots_.size() + slots);

    std::uint32_t last = 0;  // slot of the previous entry's prefix
    for (std::size_t e = group; e < end; ++e) {
      const net::Ipv6Address& addr = entries[e].first.address();
      ids_.push_back(entries[e].second);
      if (e != group && entries[e].first == entries[e - 1].first) {
        ++slots_[level.first + last].count;
        continue;
      }
      auto i = static_cast<std::uint32_t>(
          hash(addr.hi64(), addr.lo64()) >> level.shift);
      while (slots_[level.first + i].count != 0)
        i = (i + 1) & level.slot_mask;
      slots_[level.first + i] = Slot{addr.hi64(), addr.lo64(),
                                     static_cast<std::uint32_t>(e), 1};
      last = i;

      // A /16-or-longer prefix covers one bitset slot, a shorter one a run
      // of 2^(16 - len) slots.
      auto base = static_cast<std::size_t>(addr.hi64() >> 48);
      std::size_t run = len >= 16 ? 1 : std::size_t{1} << (16 - len);
      for (std::size_t b = 0; b < run; ++b) covered_.set(base + b);
    }
    levels_.push_back(level);
    group = end;
  }
  slots_.shrink_to_fit();
}

std::size_t PrefixIndex::bytes() const {
  return sizeof(*this) + levels_.capacity() * sizeof(Level) +
         slots_.capacity() * sizeof(Slot) +
         ids_.capacity() * sizeof(std::uint32_t);
}

}  // namespace tts::simnet
