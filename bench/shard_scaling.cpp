// Shard-scaling bench: the same seed, the same study, at shard counts
// 1/2/4 — events are bit-identical (the equivalence harness enforces it;
// this bench re-asserts the executed-event count), only the wall clock may
// move. The same study on the legacy single-queue dispatcher (shards=0)
// is timed too, as the cost one shard is measured against; it runs fewer
// events (no per-device churn or device-start events), so its count is
// not compared. Emits a schema-1 perf sample with events/sec-wall per
// shard count, the wall-rate speedups, and the legacy rate and one-shard
// wall ratio (reporting only); the perf-smoke lane diffs it against
// bench/baselines/BENCH_shard_scaling.json.
//
// The 4-shard speedup is hard-gated at >= 1.5x only when the host actually
// has >= 4 hardware threads: on the 1-core CI container the parallel
// schedule degenerates to (at best) the serial one and the gate would
// measure the scheduler, not the sharding.
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/study.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace tts;

namespace {

struct ShardSample {
  std::uint32_t shards = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
};

ShardSample run_at(std::uint32_t shards) {
  auto config = core::make_study_config(bench::bench_scale());
  config.shards.shards = shards;  // workers default to min(shards, hw)
                                  // 0 = the legacy dispatcher
  core::Study study(std::move(config));
  std::int64_t t0 = bench::bench_wall_ns();
  study.run();
  ShardSample s;
  s.shards = shards;
  s.events = study.events_executed();
  s.wall_seconds =
      static_cast<double>(bench::bench_wall_ns() - t0) / 1e9;
  if (s.wall_seconds > 0)
    s.events_per_sec = static_cast<double>(s.events) / s.wall_seconds;
  return s;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

}  // namespace

int main() {
  // ttslint: allow(thread-confine) reason=reads host parallelism for the bench banner; creates no threads
  const unsigned hw = std::thread::hardware_concurrency();
  std::cerr << "[bench] shard scaling (scale="
            << bench::scale_label(bench::bench_scale()) << ", hw_threads="
            << hw << ")...\n";

  auto timed = [](std::uint32_t shards) {
    ShardSample s = run_at(shards);
    std::cerr << "[bench] shards=" << s.shards << ": " << s.events
              << " events in " << fmt(s.wall_seconds) << " s ("
              << fmt(s.events_per_sec) << " events/s)\n";
    return s;
  };
  const ShardSample legacy = timed(0);
  std::vector<ShardSample> samples;
  for (std::uint32_t shards : {1u, 2u, 4u}) samples.push_back(timed(shards));

  util::TextTable table("Shard scaling (same seed, bit-identical events)");
  table.set_header({"shards", "events", "wall s", "events/s", "speedup"});
  table.add_row({"legacy", std::to_string(legacy.events),
                 fmt(legacy.wall_seconds), fmt(legacy.events_per_sec), "-"});
  for (const ShardSample& s : samples)
    table.add_row({std::to_string(s.shards), std::to_string(s.events),
                   fmt(s.wall_seconds), fmt(s.events_per_sec),
                   fmt(s.events_per_sec / samples.front().events_per_sec)});
  table.add_note("shard count is a perf knob: executed events (and every");
  table.add_note("report/checkpoint byte) are identical at every count.");
  table.add_note("legacy is the unsharded dispatcher, the default run; it");
  table.add_note("executes fewer events, so compare wall time, not rates.");
  table.render(std::cout);

  int rc = 0;
  // The equivalence claim, re-checked where the perf numbers are made.
  for (const ShardSample& s : samples) {
    if (s.events != samples.front().events) {
      std::cerr << "[bench] FAIL: event count diverged at shards="
                << s.shards << " (" << s.events << " vs "
                << samples.front().events << ")\n";
      rc = 1;
    }
  }

  double wall_ratio1 = samples[0].wall_seconds / legacy.wall_seconds;
  std::cerr << "[bench] one shard takes " << fmt(wall_ratio1)
            << "x the legacy wall time\n";
  double speedup2 = samples[1].events_per_sec / samples[0].events_per_sec;
  double speedup4 = samples[2].events_per_sec / samples[0].events_per_sec;
  if (hw >= 4) {
    if (speedup4 < 1.5) {
      std::cerr << "[bench] FAIL: 4-shard speedup " << fmt(speedup4)
                << "x < 1.5x on a " << hw << "-thread host\n";
      rc = 1;
    }
  } else {
    std::cerr << "[bench] note: " << hw << " hardware thread(s) — the "
              << "1.5x 4-shard gate needs >= 4; reporting only\n";
  }

  bench::emit_bench_json("shard_scaling",
                         bench::scale_label(bench::bench_scale()), {
      {"events_executed", std::to_string(samples[0].events)},
      {"events_per_sec_wall_shards1", fmt(samples[0].events_per_sec)},
      {"events_per_sec_wall_shards2", fmt(samples[1].events_per_sec)},
      {"events_per_sec_wall_shards4", fmt(samples[2].events_per_sec)},
      {"events_per_sec_wall_speedup_2x", fmt(speedup2)},
      {"events_per_sec_wall_speedup_4x", fmt(speedup4)},
      {"events_per_sec_wall_legacy", fmt(legacy.events_per_sec)},
      {"wall_ratio_shards1_vs_legacy", fmt(wall_ratio1)},
  });
  return rc;
}
