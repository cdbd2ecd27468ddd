// Sharded-dispatch equivalence: the shard count is a performance knob,
// never a semantic one. The same seed must produce bit-identical report
// bytes, identical probe/collection totals, and byte-identical checkpoint
// snapshots whether the synthetic Internet runs on 1, 2, or 4 shards —
// and the conservative barrier protocol must never deliver a cross-shard
// packet into an already-committed window (zero violations).
#include <gtest/gtest.h>

#include <limits>

#include "core/report.hpp"
#include "core/study.hpp"
#include "harness.hpp"
#include "inet/as_registry.hpp"
#include "simnet/fault.hpp"

namespace tts::harness {
namespace {

core::StudyConfig shard_config(std::uint32_t shards) {
  auto config = core::make_study_config(core::StudyScale::kTiny);
  config.population.device_scale = 0.05;
  config.runtime.duration = simnet::days(1);
  config.hitlist_scan_start = simnet::hours(12);
  config.drain = simnet::hours(6);
  config.checkpoint_at = simnet::hours(18);
  config.shards.shards = shards;
  // Force real concurrency even on a single-core CI box: the equivalence
  // claim must hold under actual parallel window execution, not just the
  // serial fallback hardware_concurrency() == 1 would pick.
  config.shards.workers = shards > 1 ? 2 : 0;
  return config;
}

struct ShardRun {
  std::uint64_t report = 0;
  std::string checkpoint;
  std::uint64_t results = 0;
  std::uint64_t ntp_probes = 0;
  std::uint64_t hitlist_probes = 0;
  std::uint64_t collector_requests = 0;
  std::uint64_t collector_distinct = 0;
  std::uint64_t hitlist_full = 0;
  std::uint64_t hitlist_public = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t violations = 0;
};

ShardRun run_study(const core::StudyConfig& config) {
  core::Study study(config);
  study.run();
  ShardRun out;
  std::string md = core::render_markdown(core::build_report(study));
  Fnv64 f;
  f.mix_bytes(md);
  f.mix(static_cast<std::uint64_t>(md.size()));
  out.report = f.value();
  out.checkpoint = study.checkpoint_bytes();
  out.results = study.results().size();
  if (study.ntp_engine()) out.ntp_probes = study.ntp_engine()->probes_launched();
  if (study.hitlist_engine())
    out.hitlist_probes = study.hitlist_engine()->probes_launched();
  out.collector_requests = study.collector().total_requests();
  out.collector_distinct = study.collector().distinct_addresses();
  out.hitlist_full = study.hitlist().full.size();
  out.hitlist_public = study.hitlist().public_list.size();
  out.events = study.events_executed();
  out.windows = study.network().events().shard_windows();
  out.violations = study.network().events().shard_violations();
  return out;
}

TEST(ShardEquivalence, ReportAndCheckpointAreBitIdenticalAcrossShardCounts) {
  ShardRun one = run_study(shard_config(1));
  ShardRun two = run_study(shard_config(2));
  ShardRun four = run_study(shard_config(4));

  ASSERT_FALSE(one.checkpoint.empty());
  EXPECT_EQ(one.report, two.report);
  EXPECT_EQ(one.report, four.report);
  EXPECT_EQ(one.checkpoint, two.checkpoint);
  EXPECT_EQ(one.checkpoint, four.checkpoint);
}

TEST(ShardEquivalence, ProbeRecordsAndTotalsAreConserved) {
  ShardRun one = run_study(shard_config(1));
  ShardRun four = run_study(shard_config(4));

  ASSERT_GT(one.results, 0u);
  ASSERT_GT(one.collector_distinct, 0u);
  ASSERT_GT(one.hitlist_full, 0u);
  EXPECT_EQ(one.results, four.results);
  EXPECT_EQ(one.ntp_probes, four.ntp_probes);
  EXPECT_EQ(one.hitlist_probes, four.hitlist_probes);
  EXPECT_EQ(one.collector_requests, four.collector_requests);
  EXPECT_EQ(one.collector_distinct, four.collector_distinct);
  EXPECT_EQ(one.hitlist_full, four.hitlist_full);
  EXPECT_EQ(one.hitlist_public, four.hitlist_public);
  // The window grid is a function of event times only, so even the total
  // event count and window count match across shard counts.
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.windows, four.windows);
}

TEST(ShardEquivalence, BarrierProtocolNeverViolatesCommittedWindows) {
  for (std::uint32_t shards : {2u, 4u}) {
    ShardRun run = run_study(shard_config(shards));
    EXPECT_GT(run.windows, 0u) << shards << " shards";
    EXPECT_EQ(run.violations, 0u) << shards << " shards";
  }
}

TEST(ShardEquivalence, ObservabilityOnKeepsReportsBitIdentical) {
  // With obs on, shard executors on worker threads write the flight
  // recorder, the registry histograms and the dispatch profiler. The
  // slow-dispatch threshold is out of reach so no wall-time trigger can
  // make the run depend on the host.
  auto observed = [](std::uint32_t shards) {
    auto config = shard_config(shards);
    config.obs.enabled = true;
    config.obs.slow_dispatch_ns = std::numeric_limits<std::int64_t>::max();
    return config;
  };
  EXPECT_EQ(run_study(observed(1)).report, run_study(observed(2)).report);
}

TEST(ShardEquivalence, OneRingTakesExecutorMarksAndDomainZeroSpans) {
  // Outbound loss from every eyeball AS: devices' NTP queries and probe
  // replies die on the shard executors, which append fault marks to the
  // Tracer's ring while domain 0 commits probe spans to it, under the one
  // ring lock.
  auto faulted = [](std::uint32_t shards) {
    auto config = shard_config(shards);
    config.obs.enabled = true;
    config.obs.slow_dispatch_ns = std::numeric_limits<std::int64_t>::max();
    config.on_built = [](core::Study& study) {
      auto eyeballs =
          study.registry().by_category(inet::AsCategory::kCableDslIsp);
      ASSERT_FALSE(eyeballs.empty());
      simnet::FaultScenario faults;
      for (const inet::AsInfo* as : eyeballs)
        for (const net::Ipv6Prefix& prefix : as->prefixes)
          faults.rules.push_back(
              {.prefix = prefix,
               .kind = simnet::FaultKind::kLoss,
               .probability = 0.5,
               .direction = simnet::FaultDirection::kOutbound});
      study.network().install_faults(std::move(faults), &study.metrics(),
                                     &study.flight());
    };
    return config;
  };
  auto report = [](const core::Study& study) {
    return core::render_markdown(core::build_report(study));
  };
  core::Study one(faulted(1));
  one.run();
  core::Study two(faulted(2));
  two.run();
  EXPECT_EQ(report(one), report(two));

  std::size_t fault_marks = 0, probe_spans = 0;
  for (const obs::SpanRecord& rec : two.tracer().records()) {
    if (rec.flight == obs::FlightKind::kFaultInjected) ++fault_marks;
    if (!rec.instant && rec.name.rfind("probe/", 0) == 0) ++probe_spans;
  }
  EXPECT_GT(fault_marks, 0u);
  EXPECT_GT(probe_spans, 0u);
}

TEST(ShardEquivalence, ShardedRunsStaySeedSensitive) {
  auto config = shard_config(4);
  std::uint64_t base = run_study(config).report;
  config.seed ^= 0x9e3779b97f4a7c15ULL;
  EXPECT_NE(base, run_study(config).report);
}

}  // namespace
}  // namespace tts::harness
