// The end-to-end study pipeline (the paper's whole experimental setup).
//
// Study wires every substrate together: generates the synthetic Internet,
// joins 11 capture-enabled NTP servers to the pool (netspeed-tuned to a
// target zone share, Section 3.1), starts the device runtime, feeds every
// newly collected address into a real-time scan campaign, builds and sweeps
// the hitlist in the final week, and runs the telescope with the two
// third-party actors in parallel. After run(), the accessors expose the raw
// material every table/figure bench consumes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/eui64_analysis.hpp"
#include "core/snapshot.hpp"
#include "hitlist/hitlist.hpp"
#include "inet/as_registry.hpp"
#include "inet/population.hpp"
#include "inet/services.hpp"
#include "ntp/collector.hpp"
#include "ntp/monitor.hpp"
#include "ntp/ntp_server.hpp"
#include "ntp/pool.hpp"
#include "obs/flight.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scan/engine.hpp"
#include "scan/results.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "telescope/actors.hpp"
#include "telescope/classifier.hpp"
#include "telescope/prober.hpp"

namespace tts::obs {
struct TableRollup;
}

namespace tts::core {

/// Opt-in observability for a study run. The metrics registry and the
/// accessor-backing instruments are always live (they cost one atomic add
/// on their hot paths); `enabled` additionally turns on the wall-clock
/// dispatch histogram, span tracing, and the heartbeat timeline.
struct ObservabilityConfig {
  bool enabled = false;
  /// A timed dispatch whose wall time exceeds this is marked in the
  /// telemetry ring and triggers a dump (the known ~9 ms tail trips this).
  std::int64_t slow_dispatch_ns = 1'000'000;
};

struct StudyConfig {
  std::uint64_t seed = 20240720;

  ObservabilityConfig obs;

  inet::PopulationConfig population;
  inet::RuntimeConfig runtime;
  hitlist::SourceConfig hitlist;
  simnet::NetworkConfig network;
  /// Sharded event dispatch: shards > 0 partitions the synthetic Internet
  /// by routed prefix into per-shard queues advanced in parallel between
  /// conservative time-window barriers. Same seed + same shard plan =>
  /// bit-identical reports and checkpoints at EVERY shard count (the shard
  /// count is a performance knob, not a semantic one). 0 = the classic
  /// single-queue dispatcher. A zero lookahead defaults to the network's
  /// minimum latency.
  simnet::ShardPlan shards;

  /// Countries hosting our capture servers (default: the paper's 11).
  std::vector<std::string> server_countries;
  /// Target share of each zone's traffic our server receives after
  /// netspeed tuning.
  double pool_share = 0.35;

  /// Aggregate probe budget across BOTH engines (one shared uplink, the
  /// paper's Section 3 setup): the NTP feed and the hitlist sweep draw
  /// equal fair shares of this single rate. An idle engine's share is
  /// lent to the busy one and reclaimed within about one token gap.
  double scan_pps = 2000;
  /// Cap on each engine's staged probe intents: bounds the pending queue
  /// (and memory) regardless of hitlist size; a full queue pushes back on
  /// the feed instead of queueing (scan_backpressure_events).
  std::size_t scan_max_pending = 4096;
  /// Cap on the study-side buffer of collector addresses refused with
  /// kQueueFull. Beyond it addresses are dropped and counted
  /// (scan_overflow_dropped) instead of growing the deque without bound.
  std::size_t overflow_cap = 65536;
  simnet::SimTime hitlist_scan_start = simnet::days(21);
  /// Retry schedule for timed-out probes, applied to both engines
  /// (default: no retries — probes tally their first timeout).
  scan::RetryPolicy scan_retry;
  /// Per-routed-prefix circuit breaking on both engines (default off).
  scan::BreakerConfig scan_breaker;

  bool enable_ntp_scans = true;
  bool enable_hitlist_scan = true;
  bool enable_telescope = true;
  bool enable_actors = true;
  /// Run the pool-monitoring model against every pool server: misses decay
  /// a server's score out of rotation, recoveries promote it back
  /// (exercised end to end by the fault-injection harness).
  bool enable_pool_monitor = false;
  /// Monitor knobs (vantage is allocated by the study; duration is clamped
  /// to the collection window).
  ntp::PoolMonitorConfig pool_monitor;

  /// Runs after every component is built (registry, population, pool,
  /// engines), right before the event loop. Scripted impairments install
  /// here, scripted against generated artifacts (an eyeball prefix, our
  /// servers' addresses), via Study::network().install_faults(...) and
  /// install_routes(...).
  std::function<void(class Study&)> on_built;

  /// Virtual time allowed after the collection window for in-flight scans
  /// and delayed covert probes to finish.
  simnet::SimDuration drain = simnet::days(3);

  /// Sim time at which run() captures a data-plane checkpoint
  /// (checkpoint_bytes() after the run; 0 = no checkpoint). A resumed run
  /// (resume_from) must use the same checkpoint_at as the run that wrote
  /// the snapshot, so both runs schedule the identical event sequence.
  simnet::SimTime checkpoint_at = 0;
};

/// Ready-made scales. kTiny keeps unit tests fast; kSmall is the default
/// bench scale; kMedium trades minutes of runtime for tighter statistics.
enum class StudyScale { kTiny, kSmall, kMedium };
StudyConfig make_study_config(StudyScale scale);

class Study {
 public:
  explicit Study(StudyConfig config);
  ~Study();

  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  /// Execute the full pipeline. Call once.
  void run();

  /// Resume a checkpointed study: call before run() with the bytes a prior
  /// run's checkpoint_bytes() produced (same config, same seed). run()
  /// then replays deterministically to the checkpoint time, verifies every
  /// data-plane section against the snapshot byte for byte (throws
  /// SnapshotDivergence naming the diverged subsystems otherwise), and
  /// continues to the horizon — the final report is byte-identical to an
  /// uninterrupted run's.
  void resume_from(std::string_view snapshot_bytes);

  /// Serialized snapshot captured at config().checkpoint_at (empty until
  /// the run reaches that time, or when checkpointing is off).
  const std::string& checkpoint_bytes() const { return checkpoint_; }

  // ---- raw material for the analyses ----
  const StudyConfig& config() const { return config_; }
  const inet::AsRegistry& registry() const { return *registry_; }
  const inet::Population& population() const { return *population_; }
  const ntp::AddressCollector& collector() const { return collector_; }
  const ntp::NtpPool& pool() const { return pool_; }
  const hitlist::Hitlist& hitlist() const { return hitlist_; }
  const scan::ResultStore& results() const { return results_; }
  const analysis::Eui64Accumulator& eui64() const { return eui64_; }
  const simnet::Network& network() const { return *network_; }
  simnet::Network& network() { return *network_; }

  /// Snapshot of all NTP-collected addresses.
  std::vector<net::Ipv6Address> ntp_addresses() const {
    return collector_.snapshot();
  }

  /// Per-server distinct address counts in deployment order (Table 7).
  std::vector<std::pair<std::string, std::uint64_t>> per_server_counts()
      const;

  /// Overall NTP-campaign hit rate: successful probes / probes sent
  /// (Section 6 reports 0.42 permille at Internet scale).
  double ntp_hit_rate() const;

  /// Telescope outcome (empty when the telescope was disabled).
  telescope::ClassifierReport telescope_report() const;
  const telescope::PoolProber* prober() const { return prober_.get(); }
  const std::vector<std::unique_ptr<telescope::ScanningActor>>& actors()
      const {
    return actors_;
  }

  const scan::ScanEngine* ntp_engine() const { return ntp_engine_.get(); }
  const scan::ScanEngine* hitlist_engine() const {
    return hitlist_engine_.get();
  }
  /// The pool monitor (nullptr unless config().enable_pool_monitor).
  const ntp::PoolMonitor* pool_monitor() const { return monitor_.get(); }
  /// The shared pacing budget both engines draw from (nullptr when all
  /// scanning is disabled). Non-const so tests can attach a grant observer.
  scan::SharedBudget* scan_budget() { return scan_budget_.get(); }
  const scan::SharedBudget* scan_budget() const { return scan_budget_.get(); }
  /// Collector addresses dropped because the overflow buffer hit its cap.
  std::uint64_t overflow_dropped() const { return overflow_dropped_.value(); }
  /// Current depth of the collector-overflow buffer (<= overflow_cap).
  std::size_t overflow_depth() const { return ntp_overflow_.size(); }

  std::uint64_t events_executed() const { return events_.executed(); }

  // ---- observability ----
  const obs::Registry& metrics() const { return metrics_; }
  obs::Registry& metrics() { return metrics_; }
  const obs::Tracer& tracer() const { return tracer_; }
  /// Anomaly flight recorder: triggers and dumps over tracer()'s ring
  /// (disabled unless config().obs.enabled). Non-const so tests and tools
  /// can trigger an on-demand dump.
  const obs::FlightRecorder& flight() const { return flight_; }
  obs::FlightRecorder& flight() { return flight_; }
  /// Heartbeat timeline (nullptr unless config().obs.enabled).
  const obs::Heartbeat* heartbeat() const { return heartbeat_.get(); }

  /// Full human-readable report: final metrics table, heartbeat timeline
  /// (when enabled) and span aggregates.
  std::string observability_report() const;
  /// The key per-day progress columns the timeline table shows.
  static std::vector<std::string> timeline_columns();
  /// The rollup the final-metrics table applies: population-proportional
  /// families keep their largest members plus one "other" row.
  static obs::TableRollup metrics_rollup();

 private:
  void build_pool();
  void build_telescope();
  void build_shards();
  net::Ipv6Address allocate_infra_address(const std::string& country,
                                          std::uint16_t tag);
  /// `at` is the nominal checkpoint time: at a sharded barrier the queue
  /// sits between windows, so the event's own timestamp is passed in
  /// rather than read back from the clock.
  // ttslint: barrier_only
  StudySnapshot capture_snapshot(simnet::SimTime at) const;
  /// Replays the snapshot against live state; only sound between windows.
  // ttslint: barrier_only
  void verify_restore(const StudySnapshot& live) const;

  StudyConfig config_;
  util::Rng rng_;

  // Declared before every instrumented component so the registry outlives
  // them all (members destroy in reverse order): a component's destructor
  // may drop its instruments from a still-live registry.
  obs::Registry metrics_;
  mutable obs::Tracer tracer_;
  obs::FlightRecorder flight_;

  simnet::EventQueue events_;
  std::unique_ptr<simnet::Network> network_;
  /// Address -> event-domain map (domain 1+i per AS, infra pinned to 0).
  /// Network holds a pointer; populated by build_shards().
  simnet::ShardMap shard_map_;
  std::optional<inet::AsRegistry> registry_;
  std::optional<inet::Population> population_;

  ntp::NtpPool pool_;
  ntp::AddressCollector collector_;
  std::vector<std::unique_ptr<ntp::NtpServer>> our_servers_;
  std::vector<std::unique_ptr<ntp::NtpServer>> background_servers_;
  std::unique_ptr<ntp::PoolMonitor> monitor_;

  std::unique_ptr<inet::InternetRuntime> runtime_;
  hitlist::Hitlist hitlist_;
  /// Per-AS build slices of a sharded hitlist build (index = as_index);
  /// each slot is written by exactly one domain, merged on domain 0.
  std::vector<std::vector<hitlist::PartialEntry>> hitlist_partials_;

  scan::ResultStore results_;
  /// One token source for both engines (created in the constructor so
  /// harness tests can attach a grant observer before run()); declared
  /// before the engines, which hold pointers into it.
  std::unique_ptr<scan::SharedBudget> scan_budget_;
  std::unique_ptr<scan::ScanEngine> ntp_engine_;
  std::unique_ptr<scan::ScanEngine> hitlist_engine_;
  /// Collector addresses refused with kQueueFull, drained back into the
  /// NTP engine via a pull source; bounded by config_.overflow_cap
  /// (drops beyond it are counted, not silent).
  std::deque<net::Ipv6Address> ntp_overflow_;
  bool ntp_overflow_active_ = false;
  obs::Counter overflow_dropped_;

  analysis::Eui64Accumulator eui64_;

  std::unique_ptr<telescope::PoolProber> prober_;
  std::vector<std::unique_ptr<telescope::ScanningActor>> actors_;

  std::unique_ptr<obs::Heartbeat> heartbeat_;

  /// Parsed snapshot a resumed run verifies against (set by resume_from).
  std::optional<StudySnapshot> restore_;
  /// Serialized snapshot captured at config_.checkpoint_at.
  std::string checkpoint_;

  std::uint32_t next_infra_ = 1;
  bool ran_ = false;
};

}  // namespace tts::core
