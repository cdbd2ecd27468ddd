// The zgrab2-style scan engine (Section 4.1).
//
// Targets arrive either in real time (the AddressCollector feeds every new
// NTP-sourced address) or in bulk (the hitlist sweep, pulled in chunks).
// The engine enforces the study's ethical-scanning mechanics: a shared
// packet budget (SharedBudget — one uplink across engines, weighted fair
// borrowing), randomised 10 s - 10 min delays between the per-protocol
// probes of one target, and a 3-day blackout before any address is scanned
// again. Each protocol probe performs a full byte-level exchange (probe.cpp:
// one dialogue per protocol over a client stream that owns its TLS framing)
// and records one ScanRecord.
//
// Pacing is pull-based and the engine owns no timer: submissions only
// stage *intents* in a bounded PendingQueue and report the engine's
// earliest due time to its budget, whose single pump timer drives the
// engine through two steps (PumpClient). settle() does the token-free work
// — pull bulk sources into free staging room, re-stage quarantined intents
// whose lane has room, park due heads whose route is withdrawn and shed
// those an open breaker refuses — and launch() starts the due head on a
// granted token, inline. The budget re-settles the engine after every
// launch, so a slot the launch frees is refilled (or taken by a parked
// intent) at once. A full lane applies backpressure to the submitter, so
// the pending depth stays O(max_pending) instead of O(total targets) and
// `scan_token_wait_us` measures the real pacing delay (launch minus token
// accrual, bounded by the burst bank) rather than the position of a probe
// in a bulk backlog.
//
// All campaign counters (submitted / skipped / launched / completed, the
// per-protocol splits, the token-bucket wait and queue-delay histograms,
// pending depth/peak, backpressure events, pump wake-ups) are obs
// instruments; the accessors read the same cells, and a Registry in the
// config exports them labelled with the campaign dataset.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scan/budget.hpp"
#include "scan/pending_queue.hpp"
#include "scan/results.hpp"
#include "scan/retry.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"

namespace tts::obs {
class FlightRecorder;
}

namespace tts::scan {

/// One probe in flight (defined in probe.cpp).
struct ProbeState;

struct ScanEngineConfig {
  /// Probe budget per second of virtual time for an engine that owns its
  /// budget privately (budget == nullptr). The paper scans at up to
  /// 100 kpps; the simulation defaults lower since its populations are
  /// scaled down by orders of magnitude.
  double max_pps = 2000;
  /// Share one uplink with other engines: acquire tokens from this budget
  /// (which must outlive the engine) instead of a private one; max_pps is
  /// then ignored. Optional.
  SharedBudget* budget = nullptr;
  /// Fair-share weight of this engine on the (shared) budget.
  double budget_weight = 1.0;
  simnet::SimDuration min_protocol_delay = simnet::sec(10);
  simnet::SimDuration max_protocol_delay = simnet::minutes(10);
  /// TCP connect give-up (must not exceed ScanEngine::kProbeTimeout, or
  /// connects would outlive their own probe guard).
  simnet::SimDuration connect_timeout = simnet::sec(5);
  /// Retry schedule applied to every protocol (default: no retries).
  RetryPolicy retry;
  /// Per-routed-prefix circuit breaking (default off).
  BreakerConfig breaker;
  /// Per-dataset-lane cap on staged probe intents: bounds pending_depth()
  /// and therefore the engine's memory, whatever the bulk feed size.
  std::size_t max_pending = 4096;
  net::Ipv6Address scanner_address;
  Dataset dataset = Dataset::kNtp;
  /// SNI offered in TLS probes ("" = none: we scan addresses, not names).
  std::string sni;
  std::uint64_t seed = 0x5ca9;

  /// Export the engine's instruments (labelled dataset=...); must outlive
  /// the engine. Optional.
  obs::Registry* registry = nullptr;
  /// Span per probe round-trip ("probe/<proto>", virtual launch->done) plus
  /// the causal lifecycle spans: every staged probe mints a seed-stable
  /// TraceId at submission and threads it through staging, budget grant,
  /// launch, retry re-stage, breaker shed and the final record. Optional.
  obs::Tracer* tracer = nullptr;
  /// Anomaly flight recorder: breaker transitions, sheds and dropped
  /// retries land as typed marks (trace-linked) in its Tracer's ring; a
  /// breaker opening triggers a dump. Optional; must outlive the engine.
  obs::FlightRecorder* flight = nullptr;
};

/// Outcome of a single-target submission.
enum class SubmitResult : std::uint8_t {
  kAccepted,  ///< staged; the pump will launch it as the budget allows
  kBlackout,  ///< inside its rescan blackout; skipped (counted)
  kQueueFull, ///< staging lane at capacity; backpressure (counted, the
              ///< target is NOT blackout-marked and may be resubmitted)
};

class ScanEngine : private PumpClient {
 public:
  /// A target accepted for scanning is skipped for this long afterwards
  /// (the paper's ethical-scanning rule, Section 4.1).
  static constexpr simnet::SimDuration kRescanBlackout = simnet::days(3);
  /// Per-probe guard: a probe with no conclusion by then records kTimeout.
  static constexpr simnet::SimDuration kProbeTimeout = simnet::sec(8);

  /// Pull source for bulk feeds: return up to `max_n` fresh targets; an
  /// empty result marks the source as drained and unregisters it. Called
  /// repeatedly as staging room frees up; the source must advance its own
  /// cursor between calls.
  using SourceFn =
      std::function<std::vector<net::Ipv6Address>(std::size_t max_n)>;
  /// Invoked (if set) every time a submission is refused with kQueueFull.
  using BackpressureFn = std::function<void(Dataset)>;

  /// Throws std::invalid_argument on inverted protocol-delay ranges,
  /// non-positive max_pps (private budget), non-positive budget_weight,
  /// a zero max_pending, or a connect_timeout outside (0, kProbeTimeout].
  ScanEngine(simnet::Network& network, ResultStore& results,
             ScanEngineConfig config);
  ~ScanEngine();

  ScanEngine(const ScanEngine&) = delete;
  ScanEngine& operator=(const ScanEngine&) = delete;

  /// Queue a target for a full multi-protocol scan. Returns false when the
  /// target was not accepted (blackout or backpressure); use try_submit()
  /// to distinguish.
  bool submit(const net::Ipv6Address& target) {
    return try_submit(target) == SubmitResult::kAccepted;
  }
  SubmitResult try_submit(const net::Ipv6Address& target) {
    return try_submit(target, config_.dataset);
  }
  /// Submit into a specific dataset lane (results are tagged with `lane`).
  SubmitResult try_submit(const net::Ipv6Address& target, Dataset lane);

  /// Queue many targets (hitlist sweep). The vector is copied into an
  /// internal pull source and fed to the pump chunk-by-chunk, so staging
  /// stays bounded no matter how large the sweep is.
  void submit_bulk(const std::vector<net::Ipv6Address>& targets);

  /// Register a pull source the pump drains as staging room frees up.
  void add_source(SourceFn fn) { add_source(std::move(fn), config_.dataset); }
  void add_source(SourceFn fn, Dataset lane);
  /// Sources registered and not yet drained.
  std::size_t sources_pending() const { return sources_.size(); }

  void set_backpressure_callback(BackpressureFn fn) {
    on_backpressure_ = std::move(fn);
  }

  std::uint64_t submitted() const { return submitted_.value(); }
  std::uint64_t skipped_blackout() const { return skipped_blackout_.value(); }
  std::uint64_t backpressure_events() const {
    return backpressure_.value();
  }
  std::uint64_t probes_launched() const { return probes_launched_.value(); }
  std::uint64_t probes_completed() const { return probes_completed_.value(); }
  std::uint64_t probes_launched(Protocol proto) const {
    return launched_by_proto_[static_cast<std::size_t>(proto)].value();
  }
  std::uint64_t probes_completed(Protocol proto) const {
    return completed_by_proto_[static_cast<std::size_t>(proto)].value();
  }
  /// Timed-out probes re-staged for another attempt.
  std::uint64_t retries_staged() const { return retries_.value(); }
  /// Retry attempts (attempt > 0) that completed with kSuccess.
  std::uint64_t retry_successes() const { return retry_success_.value(); }
  /// Retries abandoned because the staging lane was full at re-stage time.
  std::uint64_t retries_dropped() const { return retry_dropped_.value(); }
  /// Probes shed at admission by an open breaker (recorded as timeouts).
  std::uint64_t breaker_shed() const {
    return breaker_ ? breaker_->sheds() : 0;
  }
  /// Due intents quarantined because their target's route was withdrawn.
  /// No token is spent and no record is synthesized — the intent merely
  /// parks until the route returns, so the probe-record conservation law
  /// gains the invariant
  ///   route_deferred == route_requeued + quarantine_depth.
  std::uint64_t route_deferred() const { return route_deferred_.value(); }
  /// Quarantined intents re-staged through the PendingQueue after their
  /// route was re-announced.
  std::uint64_t route_requeued() const { return route_requeued_.value(); }
  /// Intents parked in the route quarantine right now.
  std::size_t quarantine_depth() const { return quarantine_.size(); }
  /// The per-prefix breaker set (nullptr when breaking is disabled).
  const CircuitBreakerSet* breaker() const {
    return breaker_ ? &*breaker_ : nullptr;
  }
  /// Budget pump wakes counted on this engine (SharedBudget::wakes(id)):
  /// summed over a budget's engines they equal its timer firings. A
  /// saturated sweep launches ~(kBurstSlots + 1) probes per wake, so this
  /// stays well under probes_launched().
  std::uint64_t pump_wakes() const {
    return budget_->wakes(budget_id_).value();
  }

  /// The budget this engine draws tokens from (shared or private).
  const SharedBudget& budget() const { return *budget_; }
  SharedBudget& budget() { return *budget_; }
  SharedBudget::ClientId budget_client() const { return budget_id_; }

  /// Virtual-time wait the token bucket imposed on each granted slot (us):
  /// launch time minus the consumed token's accrual time. Bounded by the
  /// budget's burst bank (~kBurstSlots token gaps).
  const obs::Histogram& token_wait() const { return token_wait_; }
  /// Staging delay per probe (us): launch time minus the intent's
  /// not-before time. Shows token starvation of a backlogged lane.
  const obs::Histogram& queue_delay() const { return queue_delay_; }
  /// Virtual launch-to-completion time per probe (us), all protocols.
  const obs::Histogram& probe_rtt() const { return probe_rtt_; }
  /// Staged intents right now (bounded by max_pending per lane).
  std::size_t pending_depth() const { return queue_.size(); }
  /// Lifetime high-water mark of pending_depth().
  std::size_t pending_peak() const { return queue_.peak(); }

  const ScanEngineConfig& config() const { return config_; }

  /// Raw retry/jitter stream state, for study snapshots: equal states
  /// prove two runs' stochastic scan decisions have not diverged.
  std::array<std::uint64_t, 4> rng_state() const { return rng_.state(); }

 private:
  /// Stage the first-protocol intent for an accepted target.
  void stage_target(const net::Ipv6Address& target, Dataset lane);
  /// Mint the next seed-stable TraceId for `lane` (staging order is
  /// deterministic, so same-seed runs mint identical ids; the lane tag in
  /// the top byte keeps ids engine-distinct when lanes are per-engine).
  std::uint64_t mint_trace(Dataset lane) {
    return ((static_cast<std::uint64_t>(lane) + 1) << 56) | ++next_trace_;
  }
  /// Attach trace context to a freshly built intent: mint its TraceId and
  /// open the lifecycle ("target/<proto>") and staging ("probe/stage")
  /// spans. No-op without a tracer.
  void begin_intent_trace(ScanIntent& intent);
  /// Close the staging span with the instant that ends it (grant or shed).
  void end_stage_span(const ScanIntent& intent, obs::Tracer::NameId how);
  /// Stage the next protocol of `intent`'s chain after a launch at `slot`.
  void stage_successor(const ScanIntent& intent, simnet::SimTime slot);
  /// Start the probe `intent` names (probe.cpp). One ProbeState carries
  /// the intent, the record under construction and the connection, so
  /// every callback of the probe captures just that state.
  void launch_probe(const ScanIntent& intent, simnet::SimTime at);
  /// The TCP probes (probe.cpp): connect, TLS handshake for the TLS
  /// protocols, then the protocol's dialogue over one client stream.
  void probe_tcp(const std::shared_ptr<ProbeState>& probe);
  /// The CoAP probe (probe.cpp): one confirmable GET over UDP.
  void probe_coap(const std::shared_ptr<ProbeState>& probe);
  /// Probe completion: invoked exactly once per launched probe, by
  /// ProbeState::finish.
  void complete_probe(ProbeState& probe);
  friend struct ProbeState;
  /// Drop an intent refused by its prefix breaker: synthesize the timeout
  /// record (conserving the one-outcome-per-probe tally) and keep the
  /// protocol chain going so later probes can close the breaker again.
  void shed_probe(const ScanIntent& intent, simnet::SimTime now);
  /// Re-stage quarantined intents whose routes have been re-announced.
  /// Runs at route-announce commits (`announced`: every parked intent is
  /// checked) and in every settle(), where it is a no-op unless a lane an
  /// intent found full has room again — so a lane-full park re-stages as
  /// soon as a slot frees. An intent its lane cannot take gets no staging
  /// span. True when it staged any.
  bool drain_quarantine(simnet::SimTime now, bool announced);
  /// Probe completion: breaker feedback, retry re-staging, result tally.
  void finish_probe(const ScanIntent& intent, ScanRecord record);
  void refill_from_sources();
  /// The budget's token-free step: refill, drain the quarantine, park or
  /// shed due heads until the head (if due) is launchable.
  std::optional<simnet::SimTime> settle(simnet::SimTime now) override;
  /// The budget's launch step: start the due head on the token at `slot`.
  void launch(simnet::SimTime slot, simnet::SimTime now) override;
  /// Earliest time the engine has work: now while a source has staging
  /// room, else the first staged not-before time.
  std::optional<simnet::SimTime> due() const;
  void report_due() { budget_->report_due(budget_id_, due()); }
  void update_pending_gauges();
  void enroll_metrics();

  simnet::Network& network_;
  ResultStore& results_;
  ScanEngineConfig config_;
  util::Rng rng_;
  std::optional<CircuitBreakerSet> breaker_;

  std::unordered_map<net::Ipv6Address, simnet::SimTime, net::Ipv6AddressHash>
      last_scan_;
  PendingQueue queue_;
  /// Intents pulled due while their target sat in withdrawn space: parked
  /// FIFO here (no token, no record) until re-announcement re-stages them.
  std::vector<ScanIntent> quarantine_;
  /// Bit d set: a quarantined intent found Dataset lane d full and waits
  /// for room there.
  std::uint8_t full_lanes_ = 0;
  static std::uint8_t lane_bit(Dataset lane) {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(lane));
  }
  struct Source {
    SourceFn fn;
    Dataset lane;
  };
  std::vector<Source> sources_;
  BackpressureFn on_backpressure_;
  /// Engines without a shared budget own a single-client one.
  std::unique_ptr<SharedBudget> own_budget_;
  SharedBudget* budget_ = nullptr;
  SharedBudget::ClientId budget_id_ = 0;
  /// Dispatch category of the per-probe guard timers.
  simnet::EventQueue::CategoryId probe_cat_;
  std::uint64_t next_ephemeral_ = 40000;
  std::uint16_t next_coap_message_id_ = 1;

  obs::Counter submitted_;
  obs::Counter skipped_blackout_;
  obs::Counter backpressure_;
  obs::Counter probes_launched_;
  obs::Counter probes_completed_;
  obs::Counter retries_;
  obs::Counter retry_success_;
  obs::Counter retry_dropped_;
  obs::Counter route_deferred_;
  obs::Counter route_requeued_;
  std::array<obs::Counter, kProtocolCount> launched_by_proto_;
  std::array<obs::Counter, kProtocolCount> completed_by_proto_;
  obs::Histogram retry_delay_;
  obs::Histogram token_wait_;
  obs::Histogram queue_delay_;
  obs::Histogram probe_rtt_;
  obs::Gauge pending_gauge_;
  obs::Gauge pending_peak_gauge_;
  // Pre-interned "probe/<proto>" span names: each launch passes a 32-bit
  // id to the tracer, no string work at all.
  std::array<obs::Tracer::NameId, kProtocolCount> span_ids_{};
  // Causal-trace vocabulary, also pre-interned: per-proto lifecycle span
  // ("target/<proto>", submit -> final record), the staging span and the
  // stage-transition instants.
  std::array<obs::Tracer::NameId, kProtocolCount> lifecycle_ids_{};
  obs::Tracer::NameId stage_name_ = 0;
  obs::Tracer::NameId grant_name_ = 0;
  obs::Tracer::NameId retry_name_ = 0;
  obs::Tracer::NameId shed_name_ = 0;
  obs::Tracer::NameId record_name_ = 0;
  obs::Tracer::NameId quarantine_name_ = 0;
  /// Per-lane monotone trace counter (see mint_trace).
  std::uint64_t next_trace_ = 0;
};

}  // namespace tts::scan
