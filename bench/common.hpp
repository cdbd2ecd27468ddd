// Shared bench scaffolding: every table/figure binary runs one full study
// and prints a paper-vs-measured table. The scale defaults to kSmall
// (roughly 25k devices, ~30 s); set TTS_BENCH_SCALE=tiny|small|medium to
// trade statistics for time.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/study.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace tts::bench {

inline core::StudyScale bench_scale() {
  const char* env = std::getenv("TTS_BENCH_SCALE");
  if (!env) return core::StudyScale::kSmall;
  std::string v = env;
  if (v == "tiny") return core::StudyScale::kTiny;
  if (v == "medium") return core::StudyScale::kMedium;
  return core::StudyScale::kSmall;
}

inline std::string scale_label(core::StudyScale scale) {
  switch (scale) {
    case core::StudyScale::kTiny: return "tiny";
    case core::StudyScale::kMedium: return "medium";
    default: return "small";
  }
}

/// Metrics epilogue (heartbeat timeline + final metrics + spans) after the
/// shared study; set TTS_BENCH_METRICS=0 to suppress it.
inline bool bench_metrics_enabled() {
  const char* env = std::getenv("TTS_BENCH_METRICS");
  return !(env && std::string(env) == "0");
}

/// Wall-clock read for the perf-trajectory samples. Observational only:
/// nothing simulated may branch on it (ttslint enforces that elsewhere).
inline std::int64_t bench_wall_ns() {
  auto t =
      // ttslint: allow(wall-clock) reason=observational perf sampling for BENCH_*.json only
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Peak resident set (VmHWM) in kB from /proc/self/status; 0 when the
/// field is unavailable (non-Linux).
inline std::int64_t bench_rss_peak_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    return std::strtoll(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

/// BENCH_*.json metrics in emission order: key and its JSON number text.
using BenchMetrics = std::vector<std::pair<std::string, std::string>>;

/// Write one versioned perf-trajectory sample (schema v1, see DESIGN.md
/// "Perf trajectory") to the path in TTS_BENCH_JSON. No-op when the
/// variable is unset. tools/benchdiff classifies each metric by its key.
inline void emit_bench_json(const std::string& name, const std::string& scale,
                            const BenchMetrics& metrics) {
  const char* path = std::getenv("TTS_BENCH_JSON");
  if (!path || !*path) return;
  std::ofstream out(path);
  out << "{\n  \"schema\": 1,\n  \"name\": \"" << name << "\",\n"
      << "  \"scale\": \"" << scale << "\",\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << "    \"" << metrics[i].first << "\": " << metrics[i].second
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "  }\n}\n";
  std::cerr << "[bench] wrote perf sample " << path << " (" << name
            << ")\n";
}

/// The standard sample of one finished study. The sim-deterministic counts
/// (events, addresses, probes, pending peak, token wait) are bit-stable for
/// a given seed and scale; the wall metrics (mean dispatch time,
/// wall_seconds, throughput, RSS) vary with the machine — tools/benchdiff
/// applies a separate tolerance to them. `extra` metrics follow the counts.
inline void emit_bench_json(const std::string& name,
                            const core::Study& study, double wall_seconds,
                            const std::string& scale,
                            const BenchMetrics& extra = {}) {
  BenchMetrics metrics;
  auto add_u64 = [&metrics](const std::string& key, std::uint64_t v) {
    metrics.emplace_back(key, std::to_string(v));
  };
  auto add_i64 = [&metrics](const std::string& key, std::int64_t v) {
    metrics.emplace_back(key, std::to_string(v));
  };
  auto add_f = [&metrics](const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    metrics.emplace_back(key, buf);
  };

  std::uint64_t events = study.events_executed();
  std::uint64_t addresses = study.collector().distinct_addresses();
  std::uint64_t launched = 0, completed = 0;
  std::uint64_t pending_peak = 0;
  for (const scan::ScanEngine* engine :
       {study.ntp_engine(), study.hitlist_engine()}) {
    if (!engine) continue;
    launched += engine->probes_launched();
    completed += engine->probes_completed();
    pending_peak = std::max<std::uint64_t>(pending_peak,
                                           engine->pending_peak());
  }
  add_u64("events_executed", events);
  add_u64("addresses_collected", addresses);
  add_u64("probes_launched", launched);
  add_u64("probes_completed", completed);
  add_u64("scan_pending_peak", pending_peak);
  if (const scan::ScanEngine* ntp = study.ntp_engine())
    add_i64("token_wait_p95_us", ntp->token_wait().percentile(0.95));
  metrics.insert(metrics.end(), extra.begin(), extra.end());

  const obs::Histogram& dispatch =
      study.network().events().dispatch_wall_ns();
  if (dispatch.count() > 0) {
    // The exact mean: wall-clock percentiles still step a bucket (up to
    // 12.5%) on run-to-run noise, too coarse to diff.
    add_f("dispatch_mean_ns", dispatch.mean());
    add_i64("dispatch_max_ns", dispatch.max());
  }
  add_f("wall_seconds", wall_seconds);
  if (wall_seconds > 0) {
    add_f("events_per_sec_wall", static_cast<double>(events) / wall_seconds);
    add_f("addresses_per_sec_wall",
          static_cast<double>(addresses) / wall_seconds);
  }
  add_i64("rss_peak_kb", bench_rss_peak_kb());
  emit_bench_json(name, scale, metrics);
}

/// Run the standard study once (shared by the whole binary). When
/// TTS_BENCH_JSON is set, a perf sample is emitted right after the run
/// (name from TTS_BENCH_NAME, default "shared_study").
inline core::Study& shared_study() {
  // ttslint: allow(shared-state) reason=memoised bench fixture, initialised once in single-threaded main before any measurement
  static core::Study* study = [] {
    auto config = core::make_study_config(bench_scale());
    config.obs.enabled = bench_metrics_enabled();
    auto* s = new core::Study(std::move(config));
    std::cerr << "[bench] running study (scale=" << scale_label(bench_scale())
              << ")...\n";
    std::int64_t t0 = bench_wall_ns();
    s->run();
    double wall_seconds = static_cast<double>(bench_wall_ns() - t0) / 1e9;
    std::cerr << "[bench] study done: " << s->events_executed()
              << " events, "
              << s->collector().distinct_addresses()
              << " addresses collected\n";
    if (const auto* budget = s->scan_budget()) {
      std::cerr << "[bench] shared scan budget: " << budget->max_pps()
                << " pps cap";
      if (const auto* ntp = s->ntp_engine())
        std::cerr << ", ntp " << budget->grants(ntp->budget_client())
                  << " grants (" << budget->borrowed(ntp->budget_client())
                  << " borrowed)";
      if (const auto* hit = s->hitlist_engine())
        std::cerr << ", hitlist " << budget->grants(hit->budget_client())
                  << " grants (" << budget->borrowed(hit->budget_client())
                  << " borrowed)";
      std::cerr << ", " << budget->wakes() << " pump wakes, "
                << s->overflow_dropped() << " overflow drops\n";
    }
    const char* sample_name = std::getenv("TTS_BENCH_NAME");
    emit_bench_json(sample_name && *sample_name ? sample_name
                                                : "shared_study",
                    *s, wall_seconds, scale_label(bench_scale()));
    if (s->config().obs.enabled)
      std::cerr << "\n[bench] observability epilogue "
                   "(TTS_BENCH_METRICS=0 to silence)\n"
                << s->observability_report() << "\n";
    return s;
  }();
  return *study;
}

/// "measured (paper: X)" cell helper.
inline std::string vs_paper(const std::string& measured,
                            const std::string& paper) {
  return measured + "  [paper: " + paper + "]";
}

inline void print_scale_note(util::TextTable& table) {
  table.add_note(
      "Populations are scaled down by orders of magnitude vs the paper;");
  table.add_note(
      "compare shapes (ordering, ratios, crossovers), not absolute counts.");
}

}  // namespace tts::bench
