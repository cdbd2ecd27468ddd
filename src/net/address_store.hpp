// Compact seen-store of IPv6 addresses, /64-structured, /32-bucketed.
//
// The collection pipeline's dedup sets used to hold every address as an
// individual 16-byte object inside an unordered_set node (plus a parallel
// first-seen-order vector), which costs ~70-90 bytes per address and caps
// population scale far below the paper's 3.04 B-address regime. This store
// exploits the structure of collected IPv6 space instead. Two levels of it,
// in fact: customer delegations rotate their /64 frequently (so a /64 often
// holds only a couple of addresses), but the rotation stays inside the
// provider's stable /32 allocation. Buckets are therefore keyed by the /32
// block — few and fat — and each entry inside a bucket is the remaining
// 96 bits, split into the low half of the network prefix (rem, 32 bits)
// and the IID (64 bits), plus a 32-bit first-seen sequence number, all in
// parallel arrays. Steady-state cost is 16 bytes per address; the per-/64
// cost of the old one-bucket-per-/64 layout (a heap vector pair per
// delegation) is gone.
//
// Entries are ordered by (rem, iid), so a /64's IIDs sort together and the
// /64-level API survives the bucketing change: for_each_prefix() walks
// full /64 prefixes in ascending order with a sorted iid span each, and
// prefix_count() is the number of distinct /64s.
//
// The sequence numbers are the determinism contract: snapshot() returns
// addresses in exact first-insertion order (a function of the event
// sequence only, never of hash or sort layout), so swapping this store
// under AddressCollector/HitlistBuilder leaves every same-seed report
// digest unchanged. They also give each address a dense 0..size-1 id that
// callers use to index side arrays (hitlist provenance).
//
// Buckets live in creation order; a separate index of bucket ids sorted by
// block key gives O(log B) lookup. Each bucket's columns hold two sorted
// runs back to back: the main run, then a small recent run that takes
// every new entry. Lookups binary-search both runs. A fresh entry is a
// positional insert into the recent run, so it moves at most the recent
// run's entries, not the bucket's. Once the recent run outgrows
// max(32, sqrt(main size)) entries, one backward pass merges it into the
// main run, which makes an insert cost amortised O(sqrt(bucket size)). The
// runs share the columns, so capacities (and memory_bytes()) are exactly
// those of one sorted run with tight 9/8 growth. The const readers never
// merge: for_each_prefix() and save() walk both runs in merged order, so
// the traversal and the wire bytes do not depend on where the last merge
// fell. Sequence numbers are 32-bit: the store caps at ~4.29 B addresses,
// which covers the paper's 3.04 B regime; insert() throws beyond that
// rather than wrapping.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "net/ipv6.hpp"

namespace tts::util {
class ByteWriter;
class ByteReader;
}  // namespace tts::util

namespace tts::net {

class AddressStore {
 public:
  /// Dense first-seen sequence number: the n-th distinct address inserted
  /// has seq n.
  using Seq = std::uint32_t;
  static constexpr Seq kNoSeq = ~Seq{0};

  struct Inserted {
    Seq seq;     // the address's first-seen sequence number
    bool fresh;  // true when this call inserted it
  };

  /// Insert one address; idempotent. Returns its (possibly pre-existing)
  /// sequence number. Throws std::length_error at the 2^32-1 address cap.
  Inserted insert(const Ipv6Address& addr);

  /// Insert a batch in order; exactly equivalent to insert() in a loop but
  /// amortizes the bucket lookup over runs of same-block addresses. Fresh
  /// addresses are appended to *fresh (in arrival order) when provided.
  /// Returns the number of addresses that were new.
  std::size_t insert_batch(std::span<const Ipv6Address> batch,
                           std::vector<Ipv6Address>* fresh = nullptr);

  bool contains(const Ipv6Address& addr) const {
    return seq_of(addr) != kNoSeq;
  }
  /// Sequence number of an address, or kNoSeq when absent.
  Seq seq_of(const Ipv6Address& addr) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of distinct /64 prefixes seen.
  std::size_t prefix_count() const { return prefix_count_; }

  /// All addresses in first-seen order (seq order). O(n) scatter.
  std::vector<Ipv6Address> snapshot() const;

  /// Visit /64 prefixes in ascending order: fn(prefix_hi64, iids) with
  /// iids sorted ascending. The traversal order is a total order on the
  /// keys, so it is safe for digested output.
  template <typename Fn>
  void for_each_prefix(Fn&& fn) const {
    std::vector<std::uint64_t> spanning;  // a /64 with entries in both runs
    for (std::uint32_t id : index_) {
      const Bucket& b = buckets_[id];
      const std::uint64_t block_hi = static_cast<std::uint64_t>(b.block) << 32;
      const std::size_t m = b.main, n = b.rems.size();
      for (std::size_t i = 0, j = m; i < m || j < n;) {
        std::uint32_t rem = j == n   ? b.rems[i]
                            : i == m ? b.rems[j]
                                     : std::min(b.rems[i], b.rems[j]);
        std::size_t i2 = i, j2 = j;
        while (i2 < m && b.rems[i2] == rem) ++i2;
        while (j2 < n && b.rems[j2] == rem) ++j2;
        std::span<const std::uint64_t> iids;
        if (j2 == j) {
          iids = {b.iids.data() + i, i2 - i};
        } else if (i2 == i) {
          iids = {b.iids.data() + j, j2 - j};
        } else {
          spanning.clear();
          std::merge(b.iids.begin() + static_cast<std::ptrdiff_t>(i),
                     b.iids.begin() + static_cast<std::ptrdiff_t>(i2),
                     b.iids.begin() + static_cast<std::ptrdiff_t>(j),
                     b.iids.begin() + static_cast<std::ptrdiff_t>(j2),
                     std::back_inserter(spanning));
          iids = spanning;
        }
        fn(block_hi | rem, iids);
        i = i2;
        j = j2;
      }
    }
  }

  /// Exact heap + object footprint of the store (capacities, not sizes):
  /// the bytes/address numerator the collection bench reports.
  std::size_t memory_bytes() const;

  void save(util::ByteWriter& w) const;
  static AddressStore load(util::ByteReader& r);

 private:
  struct Bucket {
    std::uint32_t block = 0;  // hi64 >> 32 of every member address
    // Entries [0, main) are the main run, [main, size) the recent run.
    std::uint32_t main = 0;
    // Parallel arrays, each run sorted by (rem, iid): rem is the low half
    // of the network prefix, so within a run equal-rem entries are one /64.
    std::vector<std::uint32_t> rems;
    std::vector<std::uint64_t> iids;
    std::vector<Seq> seqs;
  };

  /// Bucket holding `block`, or nullptr. Sets insert_pos_ to the index_
  /// position where a new id for this block would go.
  Bucket* find_bucket(std::uint32_t block);
  const Bucket* find_bucket(std::uint32_t block) const;
  Bucket& bucket_for(std::uint32_t block);

  Inserted insert_into(Bucket& b, std::uint32_t rem, std::uint64_t iid);
  /// Fold the recent run into the main run (one backward pass).
  static void merge_recent(Bucket& b);

  std::vector<Bucket> buckets_;       // creation order
  std::vector<std::uint32_t> index_;  // bucket ids sorted by block key
  std::size_t size_ = 0;
  std::size_t prefix_count_ = 0;  // distinct /64s across all buckets
  std::size_t insert_pos_ = 0;    // scratch from the last find_bucket miss
};

}  // namespace tts::net
