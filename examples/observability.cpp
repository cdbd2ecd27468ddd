// Observability: run the tiny study with the obs block enabled and show
// everything tts::obs records along the way — the heartbeat timeline (one
// row per virtual day), the final metrics table (per-protocol scan
// counters, per-server collection counts, event-queue dispatch histogram),
// the span aggregates, a machine-readable JSONL dump, a
// Perfetto-loadable causal trace of probe lifecycles, and a flight-recorder
// dump of the same telemetry ring.
#include <fstream>
#include <iostream>

#include "core/study.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "util/format.hpp"

using namespace tts;

int main() {
  core::StudyConfig config = core::make_study_config(core::StudyScale::kTiny);
  config.obs.enabled = true;

  core::Study study(std::move(config));
  std::cout << "Running the tiny study with observability enabled...\n\n";
  study.run();

  // The one-call report: timeline + final metrics + span aggregates.
  std::cout << study.observability_report() << "\n";

  // The same registry, read piecemeal: accessors and exported instruments
  // are the same cells, so these always agree.
  const obs::Registry& metrics = study.metrics();
  std::cout << "Spot checks (accessor == registry):\n";
  std::cout << "  collector.total_requests()  = "
            << study.collector().total_requests() << "\n";
  std::cout << "  ntp_requests (registry)     = "
            << metrics.find_counter("ntp_requests")->value() << "\n";
  const scan::ScanEngine* engine = study.ntp_engine();
  if (engine) {
    std::cout << "  ntp engine probes launched  = "
              << engine->probes_launched() << " (token-bucket wait p95 "
              << engine->token_wait().percentile(0.95) << " us)\n";
  }
  const obs::Histogram* dispatch =
      metrics.find_histogram("simnet_dispatch_wall_ns");
  if (dispatch) {
    std::cout << "  event dispatch wall p50/p95 = "
              << dispatch->percentile(0.5) << " / "
              << dispatch->percentile(0.95) << " ns over "
              << util::grouped(dispatch->count()) << " events\n";
  }

  // Machine-readable exports of the end-of-run snapshot, rolled up the
  // same way the report table is (per-server families keep their top_n
  // members plus one {series=other} aggregate, so cardinality is bounded).
  obs::RegistrySnapshot snap = obs::apply_rollup(
      metrics.snapshot(study.network().now()), core::Study::metrics_rollup());
  std::string jsonl = obs::to_jsonl(snap);
  std::cout << "\nJSONL export: " << snap.values.size()
            << " instruments, " << jsonl.size() << " bytes. First lines:\n";
  std::size_t shown = 0, pos = 0;
  while (shown < 3 && pos < jsonl.size()) {
    std::size_t end = jsonl.find('\n', pos);
    std::cout << "  " << jsonl.substr(pos, end - pos) << "\n";
    pos = end + 1;
    ++shown;
  }
  if (!obs::parse_jsonl(jsonl).has_value()) {
    std::cerr << "JSONL round-trip failed!\n";
    return 1;
  }
  std::cout << "  ... (round-trips through obs::parse_jsonl)\n";

  // Causal probe-lifecycle traces on the virtual-time axis: load
  // tts_trace.json at ui.perfetto.dev (or chrome://tracing). Every probe
  // lifecycle (stage -> grant -> launch -> retry -> record) shares one
  // TraceId, so its spans stack on a single async track. Same seed, same
  // bytes: the export holds sim time only.
  std::string trace = obs::to_chrome_trace(study.tracer());
  std::ofstream("tts_trace.json") << trace;
  std::cout << "\nWrote tts_trace.json (" << trace.size()
            << " bytes, " << study.tracer().completed()
            << " ring entries committed, " << study.tracer().dropped()
            << " overwritten; the ring keeps the most recent "
            << study.tracer().capacity() << ")\n";

  // The anomaly flight recorder appends typed, trace-linked marks (breaker
  // transitions, sheds, dropped retries, fault injections, slow
  // dispatches) to the same ring as the spans and dumps the ring's tail on
  // trigger rules, so a dump shows the probe spans around the anomaly.
  // Nothing anomalous happens in the pristine tiny study, so trigger a
  // dump by hand — scan_campaign's fault scenarios show the automatic
  // breaker-open and fault-burst dumps.
  obs::FlightRecorder& flight = study.flight();
  flight.trigger("example-walkthrough");
  // ttslint: allow(barrier-only) reason=post-run walkthrough: the study finished before this report
  if (!flight.dumps().empty()) {
    // ttslint: allow(barrier-only) reason=post-run walkthrough: the study finished before this report
    const auto& [reason, text] = flight.dumps().back();
    std::ofstream("tts_flight.txt") << text;
    std::cout << "Wrote tts_flight.txt (trigger: " << reason << ", the "
              << "newest 64 ring entries)\n";
  }
  return 0;
}
