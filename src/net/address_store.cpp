#include "net/address_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/serialize.hpp"

namespace tts::net {

namespace {

/// Positional insert with tight (9/8) geometric growth instead of vector's
/// 2x: the store's bytes/address figure counts capacities, and doubling
/// would waste up to half of it. The extra reallocation every ~8 growth
/// steps is amortized noise next to the positional move the sorted insert
/// already pays.
template <typename T>
void insert_tight(std::vector<T>& v, std::size_t pos, T value) {
  if (v.size() < v.capacity()) {
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(pos), value);
    return;
  }
  std::vector<T> grown;
  grown.reserve(v.size() + v.size() / 8 + 8);
  grown.insert(grown.end(), v.begin(),
               v.begin() + static_cast<std::ptrdiff_t>(pos));
  grown.push_back(value);
  grown.insert(grown.end(), v.begin() + static_cast<std::ptrdiff_t>(pos),
               v.end());
  v = std::move(grown);
}

std::uint32_t block_of(const Ipv6Address& addr) {
  return static_cast<std::uint32_t>(addr.hi64() >> 32);
}
std::uint32_t rem_of(const Ipv6Address& addr) {
  return static_cast<std::uint32_t>(addr.hi64());
}

/// First index in [lo, hi) whose (rem, iid) is not below the key; the
/// range must be one sorted run of parallel columns.
std::size_t run_lower_bound(const std::vector<std::uint32_t>& rems,
                            const std::vector<std::uint64_t>& iids,
                            std::size_t lo, std::size_t hi, std::uint32_t rem,
                            std::uint64_t iid) {
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (rems[mid] < rem || (rems[mid] == rem && iids[mid] < iid))
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// A recent run longer than this and than sqrt(main size) is merged.
constexpr std::size_t kRecentFloor = 32;

}  // namespace

AddressStore::Bucket* AddressStore::find_bucket(std::uint32_t block) {
  auto it = std::lower_bound(index_.begin(), index_.end(), block,
                             [this](std::uint32_t id, std::uint32_t key) {
                               return buckets_[id].block < key;
                             });
  insert_pos_ = static_cast<std::size_t>(it - index_.begin());
  if (it != index_.end() && buckets_[*it].block == block)
    return &buckets_[*it];
  return nullptr;
}

const AddressStore::Bucket* AddressStore::find_bucket(
    std::uint32_t block) const {
  auto it = std::lower_bound(index_.begin(), index_.end(), block,
                             [this](std::uint32_t id, std::uint32_t key) {
                               return buckets_[id].block < key;
                             });
  if (it != index_.end() && buckets_[*it].block == block)
    return &buckets_[*it];
  return nullptr;
}

AddressStore::Bucket& AddressStore::bucket_for(std::uint32_t block) {
  if (Bucket* b = find_bucket(block)) return *b;
  auto id = static_cast<std::uint32_t>(buckets_.size());
  buckets_.emplace_back();
  buckets_.back().block = block;
  index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(insert_pos_),
                id);
  return buckets_.back();
}

AddressStore::Inserted AddressStore::insert_into(Bucket& b, std::uint32_t rem,
                                                 std::uint64_t iid) {
  const std::size_t m = b.main, n = b.rems.size();
  std::size_t lo = run_lower_bound(b.rems, b.iids, 0, m, rem, iid);
  if (lo < m && b.rems[lo] == rem && b.iids[lo] == iid)
    return {b.seqs[lo], false};
  std::size_t pos = run_lower_bound(b.rems, b.iids, m, n, rem, iid);
  if (pos < n && b.rems[pos] == rem && b.iids[pos] == iid)
    return {b.seqs[pos], false};
  if (size_ >= static_cast<std::size_t>(kNoSeq))
    throw std::length_error("AddressStore: 2^32-1 address cap reached");
  // Equal rems are contiguous within a run, so the /64 is new iff no
  // neighbour of either run's insertion point shares it.
  bool fresh64 = !(lo > 0 && b.rems[lo - 1] == rem) &&
                 !(lo < m && b.rems[lo] == rem) &&
                 !(pos > m && b.rems[pos - 1] == rem) &&
                 !(pos < n && b.rems[pos] == rem);
  auto seq = static_cast<Seq>(size_++);
  if (fresh64) ++prefix_count_;
  insert_tight(b.rems, pos, rem);
  insert_tight(b.iids, pos, iid);
  insert_tight(b.seqs, pos, seq);
  const std::size_t recent = n + 1 - m;
  if (recent > kRecentFloor && recent * recent > m) merge_recent(b);
  return {seq, true};
}

void AddressStore::merge_recent(Bucket& b) {
  const std::size_t m = b.main, n = b.rems.size();
  b.main = static_cast<std::uint32_t>(n);
  if (m == 0) return;  // the recent run already is the whole bucket
  struct Entry {
    std::uint32_t rem;
    std::uint64_t iid;
    Seq seq;
  };
  std::vector<Entry> recent;
  recent.reserve(n - m);
  for (std::size_t j = m; j < n; ++j)
    recent.push_back({b.rems[j], b.iids[j], b.seqs[j]});
  // Backward pass, largest recent entry first: the main entries above it
  // move up by one slot per recent entry still to place (one memmove per
  // column), then it takes the slot just below them. A key is never in
  // both runs, so its lower bound in the main run is its place.
  std::size_t i = m;  // main entries [0, i) have not moved yet
  for (std::size_t j = recent.size(); j > 0; --j) {
    const Entry& e = recent[j - 1];
    std::size_t at = run_lower_bound(b.rems, b.iids, 0, i, e.rem, e.iid);
    auto shift = [at, i, j](auto& column) {
      std::move_backward(column.begin() + static_cast<std::ptrdiff_t>(at),
                         column.begin() + static_cast<std::ptrdiff_t>(i),
                         column.begin() + static_cast<std::ptrdiff_t>(i + j));
    };
    shift(b.rems);
    shift(b.iids);
    shift(b.seqs);
    b.rems[at + j - 1] = e.rem;
    b.iids[at + j - 1] = e.iid;
    b.seqs[at + j - 1] = e.seq;
    i = at;
  }
}

AddressStore::Inserted AddressStore::insert(const Ipv6Address& addr) {
  return insert_into(bucket_for(block_of(addr)), rem_of(addr), addr.lo64());
}

std::size_t AddressStore::insert_batch(std::span<const Ipv6Address> batch,
                                       std::vector<Ipv6Address>* fresh) {
  std::size_t added = 0;
  Bucket* cached = nullptr;
  std::uint32_t cached_block = 0;
  for (const auto& addr : batch) {
    // Collected batches run in bursts from one network (one device's
    // temporary addresses, one sweep chunk): reuse the last bucket across
    // the run instead of re-searching the index. Bucket creation may
    // reallocate buckets_, so re-find after a cache miss.
    std::uint32_t block = block_of(addr);
    Bucket* b;
    if (cached && cached_block == block) {
      b = cached;
    } else {
      b = &bucket_for(block);
      cached = b;
      cached_block = block;
    }
    Inserted r = insert_into(*b, rem_of(addr), addr.lo64());
    if (r.fresh) {
      ++added;
      if (fresh) fresh->push_back(addr);
    }
  }
  return added;
}

AddressStore::Seq AddressStore::seq_of(const Ipv6Address& addr) const {
  const Bucket* b = find_bucket(block_of(addr));
  if (!b) return kNoSeq;
  std::uint32_t rem = rem_of(addr);
  std::uint64_t iid = addr.lo64();
  for (auto [lo, hi] : {std::pair<std::size_t, std::size_t>{0, b->main},
                        {b->main, b->rems.size()}}) {
    std::size_t at = run_lower_bound(b->rems, b->iids, lo, hi, rem, iid);
    if (at < hi && b->rems[at] == rem && b->iids[at] == iid)
      return b->seqs[at];
  }
  return kNoSeq;
}

std::vector<Ipv6Address> AddressStore::snapshot() const {
  // Sequence numbers are a dense permutation of 0..size-1: scatter each
  // address straight into its first-seen slot.
  std::vector<Ipv6Address> out(size_);
  for (const Bucket& b : buckets_) {
    std::uint64_t block_hi = static_cast<std::uint64_t>(b.block) << 32;
    for (std::size_t i = 0; i < b.iids.size(); ++i)
      out[b.seqs[i]] =
          Ipv6Address::from_halves(block_hi | b.rems[i], b.iids[i]);
  }
  return out;
}

std::size_t AddressStore::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += buckets_.capacity() * sizeof(Bucket);
  bytes += index_.capacity() * sizeof(std::uint32_t);
  for (const Bucket& b : buckets_) {
    bytes += b.rems.capacity() * sizeof(std::uint32_t);
    bytes += b.iids.capacity() * sizeof(std::uint64_t);
    bytes += b.seqs.capacity() * sizeof(Seq);
  }
  return bytes;
}

void AddressStore::save(util::ByteWriter& w) const {
  w.u64(size_);
  w.u64(buckets_.size());
  // Creation order, so load() rebuilds byte-identical state (index_ and
  // prefix_count_ are derived). Per bucket: block, count, then the
  // rem/iid/seq columns, each in merged (rem, iid) order, so the bytes do
  // not depend on where the last merge fell.
  for (const Bucket& b : buckets_) {
    w.u32(b.block);
    w.u64(b.rems.size());
    auto in_order = [&b](auto&& put) {
      const std::size_t m = b.main, n = b.rems.size();
      for (std::size_t i = 0, j = m; i < m || j < n;) {
        bool main_next =
            j == n || (i < m && (b.rems[i] < b.rems[j] ||
                                 (b.rems[i] == b.rems[j] &&
                                  b.iids[i] < b.iids[j])));
        put(main_next ? i++ : j++);
      }
    };
    in_order([&](std::size_t k) { w.u32(b.rems[k]); });
    in_order([&](std::size_t k) { w.u64(b.iids[k]); });
    in_order([&](std::size_t k) { w.u32(b.seqs[k]); });
  }
}

AddressStore AddressStore::load(util::ByteReader& r) {
  AddressStore store;
  std::uint64_t total = r.u64();
  // A bucket encodes at least its block and count (12 bytes), an entry
  // its rem, iid and seq (16 bytes).
  std::uint64_t nbuckets = r.count(r.u64(), 12);
  store.buckets_.reserve(nbuckets);
  for (std::uint64_t i = 0; i < nbuckets; ++i) {
    Bucket b;
    b.block = r.u32();
    std::uint64_t n = r.count(r.u64(), 16);
    b.rems.reserve(n);
    b.iids.reserve(n);
    b.seqs.reserve(n);
    for (std::uint64_t j = 0; j < n; ++j) b.rems.push_back(r.u32());
    for (std::uint64_t j = 0; j < n; ++j) b.iids.push_back(r.u64());
    for (std::uint64_t j = 0; j < n; ++j) b.seqs.push_back(r.u32());
    b.main = static_cast<std::uint32_t>(n);
    for (std::uint64_t j = 0; j < n; ++j) {
      if (j > 0 && (b.rems[j - 1] > b.rems[j] ||
                    (b.rems[j - 1] == b.rems[j] && b.iids[j - 1] >= b.iids[j])))
        throw util::SerializeError(
            "AddressStore: bucket entries not sorted by (rem, iid)");
      if (j == 0 || b.rems[j - 1] != b.rems[j]) ++store.prefix_count_;
    }
    store.size_ += n;
    store.buckets_.push_back(std::move(b));
  }
  if (store.size_ != total)
    throw util::SerializeError("AddressStore: size mismatch in snapshot");
  // Sequence numbers must be a permutation of 0..size-1: snapshot() and
  // every side array indexed by seq rely on it.
  std::vector<bool> taken(store.size_);
  for (const Bucket& b : store.buckets_) {
    for (Seq s : b.seqs) {
      if (s >= store.size_ || taken[s])
        throw util::SerializeError(
            "AddressStore: sequence numbers are not 0..size-1");
      taken[s] = true;
    }
  }
  store.index_.resize(store.buckets_.size());
  for (std::uint32_t i = 0; i < store.index_.size(); ++i) store.index_[i] = i;
  std::sort(store.index_.begin(), store.index_.end(),
            [&store](std::uint32_t a, std::uint32_t b) {
              return store.buckets_[a].block < store.buckets_[b].block;
            });
  // One bucket per block, or an insert would find only one of them.
  for (std::size_t i = 1; i < store.index_.size(); ++i)
    if (store.buckets_[store.index_[i - 1]].block ==
        store.buckets_[store.index_[i]].block)
      throw util::SerializeError("AddressStore: duplicate block bucket");
  return store;
}

}  // namespace tts::net
