// Section 3.2: "we see a constant rate of new addresses over the complete
// collection period" — the daily first-sighting timeline of the collector.
//
// The perf-smoke lane compares this binary's sample against the committed
// BENCH_sec3_timeline.json. allocs_per_probe is the study's operator new
// calls divided by the probes it launched: a function of the simulation
// and the standard library, so it is gated like the counts.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "alloc_count.hpp"
#include "common.hpp"
#include "core/study.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace tts;

int main() {
  auto config = core::make_study_config(core::StudyScale::kTiny);
  config.runtime.duration = simnet::days(14);
  config.hitlist_scan_start = simnet::days(12);
  config.enable_hitlist_scan = false;
  config.enable_telescope = false;
  config.enable_actors = false;
  // The perf-smoke lane compares this binary's sample against the
  // committed BENCH_sec3_timeline.json, so the dispatch profiler must be
  // on regardless of the epilogue setting.
  config.obs.enabled = true;
  core::Study study(config);
  std::int64_t t0 = bench::bench_wall_ns();
  std::uint64_t allocs_before = bench::allocations();
  study.run();
  std::uint64_t allocs = bench::allocations() - allocs_before;
  double wall_seconds =
      static_cast<double>(bench::bench_wall_ns() - t0) / 1e9;
  std::uint64_t probes = 0;
  for (const scan::ScanEngine* engine :
       {study.ntp_engine(), study.hitlist_engine()})
    if (engine) probes += engine->probes_launched();
  char allocs_per_probe[32];
  std::snprintf(allocs_per_probe, sizeof allocs_per_probe, "%.6g",
                static_cast<double>(allocs) /
                    static_cast<double>(std::max<std::uint64_t>(1, probes)));
  bench::emit_bench_json("sec3_timeline", study, wall_seconds, "tiny",
                         {{"allocs_per_probe", allocs_per_probe}});

  const auto& daily = study.collector().daily_new();
  std::vector<std::pair<std::int64_t, std::uint64_t>> days(daily.begin(),
                                                           daily.end());
  std::sort(days.begin(), days.end());

  util::TextTable t("Section 3.2: new distinct addresses per day");
  t.set_header({"day", "new addresses", "bar"});
  std::uint64_t peak = 1;
  for (const auto& [day, n] : days) peak = std::max(peak, n);
  for (const auto& [day, n] : days) {
    std::string bar(static_cast<std::size_t>(50.0 * static_cast<double>(n) /
                                             static_cast<double>(peak)),
                    '#');
    t.add_row({std::to_string(day), util::grouped(n), bar});
  }
  t.add_note("Paper: the rate of new addresses stays roughly constant over "
             "four weeks (dynamic readdressing keeps supplying fresh ones).");
  t.render(std::cout);

  // Shape: after the first day (cold start), daily new counts stay within
  // a factor of ~3 of each other — no collapse toward zero.
  std::uint64_t lo = ~0ULL, hi = 0;
  for (std::size_t i = 1; i + 1 < days.size(); ++i) {
    lo = std::min(lo, days[i].second);
    hi = std::max(hi, days[i].second);
  }
  bool pass = days.size() >= 10 && lo > 0 && hi < lo * 4;
  std::cout << "\nShape check (no diminishing-returns collapse within the "
               "window): "
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
