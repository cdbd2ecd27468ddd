// The zgrab2-style scan engine (Section 4.1).
//
// Targets arrive either in real time (the AddressCollector feeds every new
// NTP-sourced address) or in bulk (the hitlist sweep, pulled in chunks).
// The engine enforces the study's ethical-scanning mechanics: a shared
// packet budget (SharedBudget — one uplink across engines, equal-share fair
// borrowing), randomised 10 s - 10 min delays between the per-protocol
// probes of one target, and a 3-day blackout before any address is scanned
// again. Each protocol probe performs a full byte-level exchange (probe.cpp:
// one dialogue per protocol over a client stream that owns its TLS framing)
// and records one outcome, with a full ScanRecord kept for a success.
//
// Pacing is pull-based and the engine owns no timer: submissions only
// stage *intents* in a bounded PendingQueue and report the engine's
// earliest due time to its budget, whose single pump timer drives the
// engine through two steps (PumpClient). settle() does the token-free work
// — pull bulk sources into free staging room, re-stage quarantined intents
// once the queue has room, park due heads whose route is withdrawn and shed
// those an open breaker refuses — and launch() starts the due head on a
// granted token, inline. The budget re-settles the engine after every
// launch, so a slot the launch frees is refilled (or taken by a parked
// intent) at once. A full queue applies backpressure to the submitter, so
// the pending depth stays O(max_pending) instead of O(total targets) and
// `scan_token_wait_us` measures the real pacing delay (launch minus token
// accrual, bounded by the burst bank) rather than the position of a probe
// in a bulk backlog.
//
// All campaign counters (submitted / skipped / launched / completed, the
// per-protocol splits, the token-bucket wait and queue-delay histograms,
// pending depth/peak, backpressure events, pump wake-ups) are obs
// instruments; the accessors read the same cells, and a Registry in the
// config exports them labelled with the campaign dataset. An engine scans
// one dataset: its records, tallies and trace ids carry config.dataset,
// and a study runs one engine per dataset on a shared budget.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scan/budget.hpp"
#include "scan/pending_queue.hpp"
#include "scan/results.hpp"
#include "scan/retry.hpp"
#include "simnet/network.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace tts::obs {
class FlightRecorder;
}

namespace tts::scan {

class ScanEngine;
class TlsClientSession;

/// One probe in flight, in its ScanEngine slab slot from launch to finish:
/// the intent it launched, the launch time, its span, source port and
/// CoAP message id, the client stream of a TCP probe and, from first
/// contact on, the record it fills. A probe that never reaches its target
/// builds no record: its outcome is only tallied. The methods are in
/// probe.cpp.
struct ProbeState {
  ScanEngine* engine = nullptr;
  ScanIntent intent;
  simnet::SimTime at = 0;  // launch
  obs::Tracer::SpanId span = obs::Tracer::kNoSpan;  // "probe/<proto>"
  /// This slot's index in the slab, and its generation: bumped each time
  /// the slot is freed, so a callback of an earlier occupant is stale.
  std::uint32_t index = 0;
  std::uint32_t generation = 0;
  std::uint32_t next_free = 0;  // while vacant: the next vacant slot
  std::uint16_t src_port = 0;
  /// The message id a CoAP probe's reply must echo.
  std::uint16_t coap_message_id = 0;
  simnet::TcpConnectionPtr conn;  // kept so finish() can close it
  /// The TLS session of a TLS probe.
  std::shared_ptr<TlsClientSession> tls;
  /// Built at contact: a connect that succeeds, or a CoAP reply. Held
  /// out of line, so a slot stays small for the probes that never get
  /// one.
  std::unique_ptr<ScanRecord> record;

  Protocol protocol() const {
    return static_cast<Protocol>(intent.chain_pos);
  }
  /// Build the record on first contact and return it.
  ScanRecord& open_record();
  /// Send one protocol message, framed as TLS application data when the
  /// probe runs behind TLS.
  void send(std::vector<std::uint8_t> wire);
  /// Record `outcome` and free the slot; the probe must not be touched
  /// afterwards.
  void finish(Outcome outcome);
  const std::string& sni() const;
};

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
  simnet::SimDuration min_protocol_delay = simnet::sec(10);
  simnet::SimDuration max_protocol_delay = simnet::minutes(10);
  /// TCP connect give-up: a connect that never completes ends its probe
  /// with kTimeout here, with no guard event. Must not exceed
  /// ScanEngine::kProbeTimeout, the probe's own deadline.
  simnet::SimDuration connect_timeout = simnet::sec(5);
  /// Retry schedule applied to every protocol (default: no retries).
  RetryPolicy retry;
  /// Per-routed-prefix circuit breaking (default off).
  BreakerConfig breaker;
  /// Cap on staged probe intents: bounds pending_depth() and therefore
  /// the engine's memory, whatever the bulk feed size.
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
  kQueueFull, ///< staging queue at capacity; backpressure (counted, the
              ///< target is NOT blackout-marked and may be resubmitted)
};

class ScanEngine : private PumpClient {
 public:
  /// A target accepted for scanning is skipped for this long afterwards
  /// (the paper's ethical-scanning rule, Section 4.1).
  static constexpr simnet::SimDuration kRescanBlackout = simnet::days(3);
  /// Per-probe deadline after launch: a probe with no conclusion by then
  /// records kTimeout. Its guard event is armed only where something can
  /// still be waiting at the deadline: on an established connection and on
  /// a CoAP send. A connect that never completes is ended by its own
  /// connect_timeout; one that reports at or after the deadline (only an
  /// injected delay can make it that slow) records kTimeout too.
  static constexpr simnet::SimDuration kProbeTimeout = simnet::sec(8);

  /// Pull source for bulk feeds: return up to `max_n` fresh targets; an
  /// empty result marks the source as drained and unregisters it. Called
  /// repeatedly as staging room frees up; the source must advance its own
  /// cursor between calls.
  using SourceFn =
      std::function<std::vector<net::Ipv6Address>(std::size_t max_n)>;

  /// Throws std::invalid_argument on inverted protocol-delay ranges,
  /// non-positive max_pps (private budget), a zero max_pending, or a
  /// connect_timeout outside (0, kProbeTimeout].
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
  SubmitResult try_submit(const net::Ipv6Address& target);

  /// Queue many targets (hitlist sweep). The vector is copied into an
  /// internal pull source and fed to the pump chunk-by-chunk, so staging
  /// stays bounded no matter how large the sweep is.
  void submit_bulk(const std::vector<net::Ipv6Address>& targets);

  /// Register a pull source the pump drains as staging room frees up.
  void add_source(SourceFn fn);
  /// Sources registered and not yet drained.
  std::size_t sources_pending() const { return sources_.size(); }

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
  /// Retries abandoned because the staging queue was full at re-stage time.
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
  /// not-before time. Shows token starvation of a backlogged engine.
  const obs::Histogram& queue_delay() const { return queue_delay_; }
  /// Virtual launch-to-completion time per probe (us), all protocols.
  const obs::Histogram& probe_rtt() const { return probe_rtt_; }
  /// Staged intents right now (bounded by max_pending).
  std::size_t pending_depth() const { return queue_.size(); }
  /// Lifetime high-water mark of pending_depth().
  std::size_t pending_peak() const { return queue_.peak(); }

  const ScanEngineConfig& config() const { return config_; }

  /// Raw retry/jitter stream state, for study snapshots: equal states
  /// prove two runs' stochastic scan decisions have not diverged.
  std::array<std::uint64_t, 4> rng_state() const { return rng_.state(); }

 private:
  /// Stage the first-protocol intent for an accepted target.
  void stage_target(const net::Ipv6Address& target);
  /// Mint the next seed-stable TraceId (staging order is deterministic, so
  /// same-seed runs mint identical ids; the dataset tag in the top byte
  /// keeps the ids of a study's engines distinct).
  std::uint64_t mint_trace() {
    return ((static_cast<std::uint64_t>(config_.dataset) + 1) << 56) |
           ++next_trace_;
  }
  /// Attach trace context to a freshly built intent: mint its TraceId and
  /// open the lifecycle ("target/<proto>") and staging ("probe/stage")
  /// spans. No-op without a tracer.
  void begin_intent_trace(ScanIntent& intent);
  /// Close the staging span with the instant that ends it (grant or shed).
  void end_stage_span(const ScanIntent& intent, obs::Tracer::NameId how);
  /// Stage the next protocol of `intent`'s chain after a launch at `slot`.
  void stage_successor(const ScanIntent& intent, simnet::SimTime slot);
  /// A probe callback's capture: the engine, the probe's slot and the
  /// slot's generation at launch. 16 trivially copyable bytes, so it stays
  /// inside std::function's local buffer and util::Task's inline one; once
  /// the probe has finished, get() returns nullptr and the callback does
  /// nothing (probe.cpp).
  struct ProbeRef {
    ScanEngine* engine;
    std::uint32_t index;
    std::uint32_t generation;
    ProbeState* get() const;
  };
  /// Start the probe `intent` names (probe.cpp) in a slab slot; every
  /// callback of the probe captures a ProbeRef to it.
  void launch_probe(const ScanIntent& intent, simnet::SimTime at);
  /// The guard (probe.cpp): finish the probe `ref` names with kTimeout at
  /// `deadline` unless it has finished by then.
  void arm_guard(ProbeRef ref, simnet::SimTime deadline);
  /// The TCP probes (probe.cpp): connect, TLS handshake for the TLS
  /// protocols, then the protocol's dialogue over one client stream.
  void probe_tcp(ProbeState& probe, ProbeRef ref);
  /// The CoAP probe (probe.cpp): one confirmable GET over UDP.
  void probe_coap(ProbeState& probe, ProbeRef ref);
  /// Probe completion (probe.cpp): invoked exactly once per launched
  /// probe, by ProbeState::finish; frees the probe's slot.
  void complete_probe(ProbeState& probe, Outcome outcome);
  friend struct ProbeState;
  /// A vacant slab slot, growing the slab by a chunk when none is left.
  ProbeState& acquire_probe();
  /// Vacate a finished probe's slot: bump its generation, drop its stream
  /// and record.
  void release_probe(ProbeState& probe);
  ProbeState& probe_slot(std::uint32_t index) {
    return probe_chunks_[index / kProbeChunk][index % kProbeChunk];
  }
  /// Drop an intent refused by its prefix breaker: tally a timeout
  /// (conserving the one-outcome-per-probe tally) and keep the
  /// protocol chain going so later probes can close the breaker again.
  void shed_probe(const ScanIntent& intent, simnet::SimTime now);
  /// Re-stage quarantined intents whose routes have been re-announced.
  /// Runs at route-announce commits (`announced`: every parked intent is
  /// checked) and in every settle(), where it is a no-op unless the queue
  /// an intent found full has room again — so a queue-full park re-stages
  /// as soon as a slot frees. An intent the queue cannot take gets no
  /// staging span. True when it staged any.
  bool drain_quarantine(simnet::SimTime now, bool announced);
  /// Probe completion: breaker feedback, retry re-staging, then the final
  /// outcome: a success stores `record` (built at contact, so non-null),
  /// any other outcome is only tallied.
  void finish_probe(const ScanIntent& intent, Outcome outcome,
                    ScanRecord* record);
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

  util::FlatMap<net::Ipv6Address, simnet::SimTime, net::Ipv6AddressFlatHash>
      last_scan_;
  PendingQueue queue_;
  /// Intents pulled due while their target sat in withdrawn space: parked
  /// FIFO here (no token, no record) until re-announcement re-stages them.
  std::vector<ScanIntent> quarantine_;
  /// A quarantined intent found the queue full and waits for room there.
  bool quarantine_found_full_ = false;
  std::vector<SourceFn> sources_;
  /// Engines without a shared budget own a single-client one.
  std::unique_ptr<SharedBudget> own_budget_;
  SharedBudget* budget_ = nullptr;
  SharedBudget::ClientId budget_id_ = 0;
  /// Dispatch category of the per-probe guard timers.
  simnet::EventQueue::CategoryId probe_cat_;
  /// The probe slab: chunks of kProbeChunk slots that never move, so a
  /// ProbeState& stays valid however the slab grows while it is held.
  /// Vacant slots are threaded through ProbeState::next_free.
  static constexpr std::uint32_t kProbeChunk = 256;
  static constexpr std::uint32_t kNoProbe = ~std::uint32_t{0};
  std::vector<std::unique_ptr<ProbeState[]>> probe_chunks_;
  std::uint32_t free_probe_ = kNoProbe;
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
  /// Monotone trace counter (see mint_trace).
  std::uint64_t next_trace_ = 0;
};

}  // namespace tts::scan
