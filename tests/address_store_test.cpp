// net::AddressStore: the compact /64-keyed seen-store behind the collector
// and hitlist dedup paths. Properties checked against a reference
// unordered_set and an ordered-map model (across merges of the two-run
// buckets), first-seen order, batch/loop equivalence, serialization round
// trips, and the sorted prefix traversal.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/address_store.hpp"
#include "net/ipv6.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace tts::net {
namespace {

Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return Ipv6Address::from_halves(hi, lo);
}

/// Deterministic stream with deliberate duplicates and /64 reuse: a small
/// prefix pool (bucket collisions) and a small IID pool (exact duplicates).
std::vector<Ipv6Address> random_stream(std::uint64_t seed, std::size_t n,
                                       std::size_t prefixes,
                                       std::size_t iids) {
  util::Rng rng(seed);
  std::vector<Ipv6Address> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(addr(0x20010db800000000ULL + rng.below(prefixes),
                       rng.below(iids)));
  return out;
}

TEST(AddressStore, MatchesReferenceSetUnderRandomInserts) {
  AddressStore store;
  std::unordered_set<Ipv6Address, Ipv6AddressHash> ref;
  std::vector<Ipv6Address> first_seen;
  for (const Ipv6Address& a : random_stream(0xadd7, 4000, 64, 200)) {
    bool fresh_ref = ref.insert(a).second;
    auto [seq, fresh] = store.insert(a);
    ASSERT_EQ(fresh, fresh_ref);
    if (fresh) {
      // Sequence numbers are dense: the n-th distinct address gets seq n.
      ASSERT_EQ(seq, first_seen.size());
      first_seen.push_back(a);
    }
    ASSERT_EQ(store.seq_of(a), seq);
  }
  EXPECT_EQ(store.size(), ref.size());
  EXPECT_GT(store.size(), 1000u);  // the pools actually produced collisions
  for (const Ipv6Address& a : first_seen) EXPECT_TRUE(store.contains(a));
  EXPECT_FALSE(store.contains(addr(0x3fff000000000000ULL, 1)));
  EXPECT_EQ(store.seq_of(addr(0x3fff000000000000ULL, 1)), AddressStore::kNoSeq);
  // snapshot() is exactly first-insertion order.
  EXPECT_EQ(store.snapshot(), first_seen);
}

TEST(AddressStore, InsertBatchEqualsInsertLoop) {
  auto stream = random_stream(0xb47c4, 3000, 16, 150);
  AddressStore loop_store;
  std::vector<Ipv6Address> loop_fresh;
  for (const Ipv6Address& a : stream)
    if (loop_store.insert(a).fresh) loop_fresh.push_back(a);

  // Feed the same stream in uneven batch sizes (including same-/64 runs —
  // random_stream's small prefix pool produces plenty).
  AddressStore batch_store;
  std::vector<Ipv6Address> batch_fresh;
  std::size_t new_total = 0, pos = 0, chunk = 1;
  while (pos < stream.size()) {
    std::size_t n = std::min(chunk, stream.size() - pos);
    new_total += batch_store.insert_batch(
        std::span<const Ipv6Address>(stream.data() + pos, n), &batch_fresh);
    pos += n;
    chunk = chunk % 97 + 1;
  }
  EXPECT_EQ(new_total, loop_fresh.size());
  EXPECT_EQ(batch_fresh, loop_fresh);
  EXPECT_EQ(batch_store.size(), loop_store.size());
  EXPECT_EQ(batch_store.prefix_count(), loop_store.prefix_count());
  EXPECT_EQ(batch_store.snapshot(), loop_store.snapshot());
  for (const Ipv6Address& a : loop_fresh)
    EXPECT_EQ(batch_store.seq_of(a), loop_store.seq_of(a));
}

TEST(AddressStore, SaveLoadRoundTripIsByteIdentical) {
  AddressStore store;
  store.insert_batch(random_stream(0x5e71a11, 2500, 48, 120));

  util::ByteWriter w;
  store.save(w);
  std::string bytes = w.take();

  util::ByteReader r(bytes);
  AddressStore loaded = AddressStore::load(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded.size(), store.size());
  EXPECT_EQ(loaded.prefix_count(), store.prefix_count());
  EXPECT_EQ(loaded.snapshot(), store.snapshot());
  for (const Ipv6Address& a : store.snapshot())
    EXPECT_EQ(loaded.seq_of(a), store.seq_of(a));

  // Re-serializing the loaded store reproduces the exact bytes: the wire
  // form is a pure function of the contents (the snapshot invariant).
  util::ByteWriter w2;
  loaded.save(w2);
  EXPECT_EQ(w2.bytes(), bytes);
}

TEST(AddressStore, LoadRejectsTruncatedBytes) {
  AddressStore store;
  store.insert(addr(0x20010db800000001ULL, 42));
  util::ByteWriter w;
  store.save(w);
  std::string bytes = w.take();
  for (std::size_t cut : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    util::ByteReader r(std::string_view(bytes).substr(0, cut));
    EXPECT_THROW(AddressStore::load(r), util::SerializeError) << "cut " << cut;
  }
}

TEST(AddressStore, ForEachPrefixVisitsSortedPrefixesAndSortedIids) {
  AddressStore store;
  // Inserted in descending prefix order to prove traversal sorts by key,
  // not by creation order.
  store.insert(addr(0x30, 5));
  store.insert(addr(0x20, 9));
  store.insert(addr(0x20, 2));
  store.insert(addr(0x10, 7));
  std::vector<std::uint64_t> prefixes;
  std::size_t total = 0;
  store.for_each_prefix([&](std::uint64_t prefix,
                            std::span<const std::uint64_t> iids) {
    prefixes.push_back(prefix);
    total += iids.size();
    for (std::size_t i = 1; i < iids.size(); ++i)
      EXPECT_LT(iids[i - 1], iids[i]);
  });
  EXPECT_EQ(prefixes, (std::vector<std::uint64_t>{0x10, 0x20, 0x30}));
  EXPECT_EQ(total, store.size());
  EXPECT_EQ(store.prefix_count(), 3u);
}

/// Ordered-map model of the store: (hi64, lo64) -> seq, the first-seen
/// list, and the /32 blocks in creation order. It also tracks each
/// bucket's main/recent run sizes under the store's merge rule (a recent
/// run longer than 32 entries and than sqrt(main) is merged); that only
/// picks the checkpoints, every check holds wherever the merges fell.
struct StoreModel {
  struct Runs {
    std::size_t main = 0, recent = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, AddressStore::Seq> seqs;
  std::vector<Ipv6Address> first_seen;
  std::vector<std::uint32_t> blocks;  // creation order
  std::map<std::uint32_t, Runs> runs;

  /// Applies one insert; returns true when the touched bucket now holds
  /// both a non-empty main run and a non-empty recent run.
  bool insert(const Ipv6Address& a, AddressStore::Inserted got) {
    auto block = static_cast<std::uint32_t>(a.hi64() >> 32);
    auto [it, fresh] = seqs.try_emplace({a.hi64(), a.lo64()},
                                        static_cast<AddressStore::Seq>(
                                            first_seen.size()));
    EXPECT_EQ(got.fresh, fresh) << a.to_string();
    EXPECT_EQ(got.seq, it->second) << a.to_string();
    auto [r, new_block] = runs.try_emplace(block);
    if (new_block) blocks.push_back(block);
    if (fresh) {
      first_seen.push_back(a);
      Runs& b = r->second;
      if (++b.recent > 32 && b.recent * b.recent > b.main) {
        b.main += b.recent;
        b.recent = 0;
      }
    }
    return r->second.main > 0 && r->second.recent > 0;
  }

  /// The wire form of one sorted run per bucket, in creation order.
  std::string encoding() const {
    util::ByteWriter w;
    w.u64(first_seen.size());
    w.u64(blocks.size());
    for (std::uint32_t block : blocks) {
      std::uint64_t lo_hi = static_cast<std::uint64_t>(block) << 32;
      auto first = seqs.lower_bound({lo_hi, 0});
      auto last = seqs.lower_bound({lo_hi + (std::uint64_t{1} << 32), 0});
      w.u32(block);
      w.u64(static_cast<std::uint64_t>(std::distance(first, last)));
      for (auto it = first; it != last; ++it)
        w.u32(static_cast<std::uint32_t>(it->first.first));
      for (auto it = first; it != last; ++it) w.u64(it->first.second);
      for (auto it = first; it != last; ++it) w.u32(it->second);
    }
    return w.take();
  }
};

using PrefixWalk =
    std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>;

PrefixWalk walk_of(const AddressStore& store) {
  PrefixWalk out;
  store.for_each_prefix([&](std::uint64_t prefix,
                            std::span<const std::uint64_t> iids) {
    out.emplace_back(prefix,
                     std::vector<std::uint64_t>(iids.begin(), iids.end()));
  });
  return out;
}

void expect_matches_model(const AddressStore& store, const StoreModel& model) {
  ASSERT_EQ(store.size(), model.first_seen.size());
  EXPECT_EQ(store.snapshot(), model.first_seen);
  PrefixWalk expected;
  for (const auto& [key, seq] : model.seqs) {
    if (expected.empty() || expected.back().first != key.first)
      expected.emplace_back(key.first, std::vector<std::uint64_t>{});
    expected.back().second.push_back(key.second);
  }
  EXPECT_EQ(store.prefix_count(), expected.size());
  EXPECT_EQ(walk_of(store), expected);
  for (const auto& [key, seq] : model.seqs) {
    Ipv6Address a = addr(key.first, key.second);
    ASSERT_EQ(store.seq_of(a), seq) << a.to_string();
    // The neighbouring IID is absent unless the model holds it too.
    Ipv6Address next = addr(key.first, key.second + 1);
    EXPECT_EQ(store.contains(next),
              model.seqs.contains({key.first, key.second + 1}))
        << next.to_string();
  }
  util::ByteWriter w;
  store.save(w);
  std::string bytes = w.take();
  EXPECT_EQ(bytes, model.encoding());
  util::ByteReader r(bytes);
  AddressStore loaded = AddressStore::load(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded.prefix_count(), store.prefix_count());
  EXPECT_EQ(loaded.snapshot(), model.first_seen);
  util::ByteWriter w2;
  loaded.save(w2);
  EXPECT_EQ(w2.bytes(), bytes);
}

/// Seeded stream: `blocks` /32s, `rems` /64s per /32, IIDs from a pool of
/// `iids`, and a `repeat` share of exact repeats of an earlier address.
std::vector<Ipv6Address> model_stream(std::uint64_t seed, std::size_t n,
                                      std::uint64_t blocks,
                                      std::uint64_t rems, std::uint64_t iids,
                                      double repeat) {
  util::Rng rng(seed);
  std::vector<Ipv6Address> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!out.empty() && rng.chance(repeat)) {
      out.push_back(out[rng.below(out.size())]);
      continue;
    }
    std::uint64_t block = 0x20010000ULL + rng.below(blocks) * 0x101;
    out.push_back(addr(block << 32 | rng.below(rems), rng.below(iids)));
  }
  return out;
}

TEST(AddressStore, MatchesOrderedModelAcrossRecentRunMerges) {
  struct Case {
    const char* name;
    std::vector<Ipv6Address> stream;
  };
  const Case cases[] = {
      // One /32 holding more than 50k entries: many merges, a large main
      // run beside a recent run of a few hundred.
      {"one_block", model_stream(0x0b10c, 64000, 1, 1 << 14, 1 << 20, 0.1)},
      // Thin buckets that mostly stay below the merge floor, with /64s
      // shared between the two runs of the fatter ones.
      {"spread", model_stream(0x5b4ead, 30000, 400, 64, 64, 0.2)},
      // A few fat /32s beside many thin ones.
      {"mixed", model_stream(0x313ed, 40000, 12, 1 << 10, 1 << 12, 0.15)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    AddressStore store;
    StoreModel model;
    // Checkpoints: the first two-run insert after each random stride.
    util::Rng pick(0xc4ec4);
    const std::size_t stride = c.stream.size() / 8;
    std::size_t checks = 0, next_check = pick.below(stride);
    for (std::size_t i = 0; i < c.stream.size(); ++i) {
      bool both_runs = model.insert(c.stream[i], store.insert(c.stream[i]));
      if (both_runs && i >= next_check) {
        expect_matches_model(store, model);
        ++checks;
        next_check = i + 1 + pick.below(stride);
      }
    }
    expect_matches_model(store, model);
    EXPECT_GE(checks, 3u);
  }
}

TEST(AddressStore, MemoryFootprintBeatsNodeBasedSetOnClusteredSpace) {
  // The compact layout pays 16 bytes per address steady state with tight
  // (9/8) capacity growth, so bound well under the ~32-byte floor of a
  // node-based set. (The >= 4x win over the legacy unordered_set + order
  // vector is measured by the collection bench, which builds the legacy
  // structures for comparison.)
  AddressStore store;
  store.insert_batch(random_stream(0x3a11, 30000, 64, 1 << 30));
  ASSERT_GT(store.size(), 25000u);
  double per_addr = static_cast<double>(store.memory_bytes()) /
                    static_cast<double>(store.size());
  EXPECT_GT(per_addr, 0.0);
  EXPECT_LT(per_addr, 20.0);
  EXPECT_EQ(AddressStore().memory_bytes(), sizeof(AddressStore));
}

}  // namespace
}  // namespace tts::net
