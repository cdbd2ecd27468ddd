// Collection data-plane bench: memory per collected address and ingest
// throughput of the /64-keyed net::AddressStore behind the collector's
// seen-store, against the legacy layout it replaced (unordered_set node
// per address plus a first-seen order vector).
//
// The perf-smoke lane compares the emitted sample against the committed
// BENCH_collection_throughput.json; store_bytes_per_address,
// legacy_bytes_per_address and compaction_ratio are sim-deterministic
// (capacities are a pure function of the insert sequence), the
// *_per_sec_wall rates are machine-dependent. allocs_per_poll is the
// study's operator new calls per NTP poll (one pool resolve per poll): a
// function of the simulation and the standard library, so it is gated
// like the counts.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <unordered_set>
#include <vector>

#include "alloc_count.hpp"
#include "common.hpp"
#include "core/study.hpp"
#include "net/address_store.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace tts;

namespace {

/// Heap + object footprint of the legacy seen-store, measured on the real
/// containers: a libstdc++ unordered_set node carries a next pointer and
/// the cached hash around the 16-byte address, the allocator adds a
/// 16-byte header per node, the table itself is one pointer per bucket,
/// and the first-seen order vector holds a second copy of every address.
std::size_t legacy_bytes(
    const std::unordered_set<net::Ipv6Address, net::Ipv6AddressHash>& seen,
    const std::vector<net::Ipv6Address>& order) {
  constexpr std::size_t kNode = 8 /*next*/ + sizeof(net::Ipv6Address) +
                                8 /*cached hash*/;
  constexpr std::size_t kMallocHeader = 16;
  return seen.size() * (kNode + kMallocHeader) +
         seen.bucket_count() * sizeof(void*) +
         order.capacity() * sizeof(net::Ipv6Address) +
         sizeof(seen) + sizeof(order);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main() {
  // Collection-only kTiny study: same shape as the sec3 timeline lane, so
  // the address stream has the realistic /64 clustering (privacy-extension
  // IID churn inside stable delegations) the store exploits.
  auto config = core::make_study_config(core::StudyScale::kTiny);
  config.runtime.duration = simnet::days(14);
  config.hitlist_scan_start = simnet::days(12);
  config.enable_hitlist_scan = false;
  config.enable_telescope = false;
  config.enable_actors = false;
  core::Study study(config);
  std::int64_t t0 = bench::bench_wall_ns();
  std::uint64_t allocs_before = bench::allocations();
  study.run();
  std::uint64_t polls =
      std::max<std::uint64_t>(1, study.pool().resolve_calls());
  double allocs_per_poll =
      static_cast<double>(bench::allocations() - allocs_before) /
      static_cast<double>(polls);

  const net::AddressStore& store = study.collector().addresses();
  std::vector<net::Ipv6Address> stream = store.snapshot();
  std::size_t n = stream.size();

  // Legacy layout, actually constructed from the same stream (bucket count
  // and vector capacity measured, not assumed).
  std::unordered_set<net::Ipv6Address, net::Ipv6AddressHash> legacy_seen;
  std::vector<net::Ipv6Address> legacy_order;
  for (const auto& a : stream)
    if (legacy_seen.insert(a).second) legacy_order.push_back(a);

  double store_bpa = static_cast<double>(store.memory_bytes()) /
                     static_cast<double>(n);
  double legacy_bpa =
      static_cast<double>(legacy_bytes(legacy_seen, legacy_order)) /
      static_cast<double>(n);
  double ratio = legacy_bpa / store_bpa;

  // Ingest throughput: replay the stream into a fresh store in
  // collector-sized batches (the record_batch path), then a full
  // membership sweep (the dedup-hit path).
  constexpr std::size_t kBatch = 64;
  net::AddressStore replay;
  std::int64_t t_insert = bench::bench_wall_ns();
  for (std::size_t pos = 0; pos < n; pos += kBatch)
    replay.insert_batch(std::span<const net::Ipv6Address>(
        stream.data() + pos, std::min(kBatch, n - pos)));
  double insert_s =
      static_cast<double>(bench::bench_wall_ns() - t_insert) / 1e9;
  std::int64_t t_lookup = bench::bench_wall_ns();
  std::size_t hits = 0;
  for (const auto& a : stream) hits += replay.contains(a);
  double lookup_s =
      static_cast<double>(bench::bench_wall_ns() - t_lookup) / 1e9;
  double wall_seconds =
      static_cast<double>(bench::bench_wall_ns() - t0) / 1e9;

  util::TextTable t("Collection data plane: seen-store footprint");
  t.set_header({"metric", "value"});
  t.add_row({"addresses collected", util::grouped(std::uint64_t{n})});
  t.add_row({"distinct /64 prefixes",
             util::grouped(std::uint64_t{store.prefix_count()})});
  t.add_row({"store bytes/address", fmt(store_bpa)});
  t.add_row({"legacy bytes/address", fmt(legacy_bpa)});
  t.add_row({"compaction ratio", fmt(ratio)});
  t.add_row({"allocations/poll", fmt(allocs_per_poll)});
  t.add_row({"insert rate (addr/s)",
             insert_s > 0 ? fmt(static_cast<double>(n) / insert_s) : "-"});
  t.add_row({"lookup rate (addr/s)",
             lookup_s > 0 ? fmt(static_cast<double>(n) / lookup_s) : "-"});
  t.render(std::cout);

  bench::BenchMetrics metrics;
  metrics.emplace_back("addresses_collected", std::to_string(n));
  metrics.emplace_back("store_prefixes",
                       std::to_string(store.prefix_count()));
  metrics.emplace_back("store_bytes_per_address", fmt(store_bpa));
  metrics.emplace_back("legacy_bytes_per_address", fmt(legacy_bpa));
  metrics.emplace_back("compaction_ratio", fmt(ratio));
  metrics.emplace_back("allocs_per_poll", fmt(allocs_per_poll));
  metrics.emplace_back("wall_seconds", fmt(wall_seconds));
  if (insert_s > 0)
    metrics.emplace_back("insert_addresses_per_sec_wall",
                         fmt(static_cast<double>(n) / insert_s));
  if (lookup_s > 0)
    metrics.emplace_back("lookup_addresses_per_sec_wall",
                         fmt(static_cast<double>(n) / lookup_s));
  metrics.emplace_back("rss_peak_kb",
                       std::to_string(bench::bench_rss_peak_kb()));
  bench::emit_bench_json("collection_throughput", "tiny", metrics);

  // The acceptance bar this bench exists to hold: the compact store is at
  // least 4x smaller per address than the legacy layout at kTiny scale,
  // and every replayed address was found again.
  bool pass = n > 1000 && hits == n && ratio >= 4.0;
  std::cout << "\nFootprint check (compaction ratio >= 4x, all " << n
            << " addresses found on replay): " << (pass ? "PASS" : "FAIL")
            << "\n";
  return pass ? 0 : 1;
}
