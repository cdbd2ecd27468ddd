// Graceful degradation for the scan engine: retry policies and per-prefix
// circuit breaking.
//
// RetryPolicy re-stages a timed-out probe through the PendingQueue with an
// exponentially backed-off not_before (seed-derived jitter keeps retries
// deterministic), so pacing and the SharedBudget govern retries exactly
// like first attempts. CircuitBreakerSet tracks one breaker per routed
// prefix (config-length mask of the target): a run of consecutive timeouts
// opens the breaker and probes to the prefix are shed at admission; after a
// cool-down the breaker half-opens and admits a trickle of trial probes — a
// conclusive outcome (anything proving the path answers: success, refusal,
// even a malformed reply) closes it, a trial timeout re-opens it.
//
// Both mechanisms are pure state machines over sim-time; all transitions
// and shed decisions are counted so the chaos harness can prove probe
// conservation and breaker convergence.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/ipv6.hpp"
#include "obs/metrics.hpp"
#include "simnet/time.hpp"
#include "util/rng.hpp"

namespace tts::scan {

/// Retry schedule for timed-out probes. Disabled by default (max_retries
/// 0): enabling it re-stages each timeout up to max_retries times with
/// exponential backoff before the final timeout is recorded.
struct RetryPolicy {
  std::uint32_t max_retries = 0;
  simnet::SimDuration base_backoff = simnet::sec(4);
  double multiplier = 2.0;
  simnet::SimDuration max_backoff = simnet::minutes(4);
  /// Uniform jitter as a fraction of the computed backoff, drawn from the
  /// engine's seeded stream: delay in [backoff, backoff * (1 + jitter)).
  double jitter = 0.25;

  bool enabled() const { return max_retries > 0; }

  /// Backoff before retry number `retry_index` (1-based), jittered.
  simnet::SimDuration backoff(std::uint32_t retry_index,
                              util::Rng& rng) const;
};

struct BreakerConfig {
  bool enabled = false;
  /// Breakers key on target & /prefix_len — the "routed prefix" the engine
  /// treats as one reachability domain.
  unsigned prefix_len = 48;
  /// Consecutive timeouts within a prefix that open its breaker.
  std::uint32_t open_after = 8;
  /// Cool-down before an open breaker half-opens.
  simnet::SimDuration open_for = simnet::minutes(5);
};

/// The per-prefix breaker collection. Pure decision logic — the engine
/// calls would_admit() before spending a budget token, note_launch() when
/// the probe actually launches, shed() when it drops a refused intent, and
/// on_outcome() from every probe completion.
class CircuitBreakerSet {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };
  /// Trial probes a half-open breaker admits (in flight at once).
  static constexpr std::uint32_t kHalfOpenProbes = 1;

  explicit CircuitBreakerSet(BreakerConfig config);

  /// Would a probe to `target` be admitted at `now`? No state mutation —
  /// safe to call and then not launch (e.g. the budget refused a token).
  bool would_admit(const net::Ipv6Address& target,
                   simnet::SimTime now) const;
  /// Commit an admitted launch: performs the open -> half-open transition
  /// when the cool-down has expired and claims a trial slot while half-open.
  void note_launch(const net::Ipv6Address& target, simnet::SimTime now);
  /// Count one probe shed because would_admit() said no.
  void shed() { shed_.inc(); }
  /// Feed a probe outcome back. `conclusive` means the path answered
  /// (success, RST, TLS failure, malformed bytes) — only silence keeps a
  /// breaker unhappy.
  void on_outcome(const net::Ipv6Address& target, bool conclusive,
                  simnet::SimTime now);

  State state(const net::Ipv6Address& target) const;
  /// Breaker key of a target (target & /prefix_len).
  net::Ipv6Address key_of(const net::Ipv6Address& target) const {
    return target.masked(config_.prefix_len);
  }

  const BreakerConfig& config() const { return config_; }
  std::uint64_t opens() const { return opens_.value(); }
  std::uint64_t closes() const { return closes_.value(); }
  std::uint64_t half_opens() const { return half_opens_.value(); }
  std::uint64_t sheds() const { return shed_.value(); }
  /// Prefixes currently open or half-open (i.e. not admitting freely).
  std::int64_t tripped_now() const { return tripped_gauge_.value(); }

  /// Enroll the breaker instruments into `registry` under `labels`,
  /// attributed to `owner` (the engine enrolls these next to its own).
  void enroll(obs::Registry& registry, const obs::Labels& labels,
              const void* owner);

  /// Called on every state transition with the breaker's prefix key — the
  /// engine forwards these to the anomaly flight recorder. At most one
  /// observer; empty function detaches.
  using TransitionFn = std::function<void(
      const net::Ipv6Address& prefix, State from, State to,
      simnet::SimTime now)>;
  void set_transition_observer(TransitionFn fn) {
    on_transition_ = std::move(fn);
  }

 private:
  struct Breaker {
    State state = State::kClosed;
    std::uint32_t timeout_streak = 0;
    simnet::SimTime open_until = 0;
    std::uint32_t trials_in_flight = 0;
  };

  void open(const net::Ipv6Address& prefix, Breaker& b, simnet::SimTime now);
  void notify(const net::Ipv6Address& prefix, State from, State to,
              simnet::SimTime now) {
    if (on_transition_) on_transition_(prefix, from, to, now);
  }

  BreakerConfig config_;
  TransitionFn on_transition_;
  /// Keyed lookups only — never iterated, so the unordered map cannot leak
  /// hash order into any observable behaviour.
  std::unordered_map<net::Ipv6Address, Breaker, net::Ipv6AddressHash>
      by_prefix_;

  obs::Counter opens_;
  obs::Counter closes_;
  obs::Counter half_opens_;
  obs::Counter shed_;
  obs::Gauge tripped_gauge_;
};

}  // namespace tts::scan
