// Anomaly flight recorder: a bounded ring of typed events that subsystems
// append to cheaply (no strings, no allocation on the hot path once notes
// are interned) and that dumps itself when something anomalous happens —
// a breaker opening, a burst of fault injections, a dispatch blowing its
// wall-time threshold — or on demand from the Study.
//
// Events carry both clocks: the sim timestamp is read from the attached
// EventQueue; the wall timestamp comes from a caller-installed clock
// function (obs::Tracer::wall_clock_ns), so this file never reads ambient
// time itself and stays off the ttslint wall-clock allowlist. Wall values
// are observational only — dump() excludes them, so same-seed dumps are
// bit-identical.
//
// Dumps are rate-limited in sim time and bounded in count; each is a
// rendered snapshot of the ring tail at trigger time, kept alongside its
// reason so a post-run report (or a test) can ask "what was the system
// doing just before the breaker opened?".
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simnet/time.hpp"

namespace tts::simnet {
class EventQueue;
}

namespace tts::obs {

enum class FlightKind : std::uint8_t {
  kBreakerOpen,
  kBreakerHalfOpen,
  kBreakerClose,
  kBreakerShed,
  kFaultInjected,
  kSlowDispatch,
  kRetryStaged,
  kRetryDropped,
  kNote,
  /// A scripted fault rule/outage window opened or closed (detail names
  /// the kind, a = the rule/outage index, b = its prefix/host hi64).
  kFaultWindowOpen,
  kFaultWindowClose,
  /// An ImpairmentPlane route transition committed at a barrier (a/b =
  /// the prefix address halves); bursts of withdrawals feed the
  /// route-flap trigger.
  kRouteWithdrawn,
  kRouteAnnounced,
};
inline constexpr std::size_t kFlightKindCount = 13;

std::string_view to_string(FlightKind kind);

struct FlightEvent {
  simnet::SimTime sim = 0;
  /// Wall timestamp (ns) when a wall clock is installed; 0 otherwise.
  /// Observational only — never rendered into dump().
  std::int64_t wall_ns = 0;
  /// Causal trace the event belongs to (0 = none); links the recorder to
  /// the Tracer's probe-lifecycle spans.
  std::uint64_t trace = 0;
  /// Kind-specific payload (e.g. breaker prefix halves, dispatch wall ns).
  std::int64_t a = 0;
  std::int64_t b = 0;
  FlightKind kind = FlightKind::kNote;
  /// Interned detail string (FlightRecorder::note), 0 = none.
  std::uint32_t detail = 0;
};

class FlightRecorder {
 public:
  using NoteId = std::uint32_t;
  using WallClockFn = std::int64_t (*)();

  explicit FlightRecorder(std::size_t capacity = 2048);

  /// Sim-time source; without one, events record sim time 0.
  void set_sim_clock(const simnet::EventQueue* events) { events_ = events; }
  /// Wall-time source (e.g. &Tracer::wall_clock_ns); without one, events
  /// record wall_ns 0 unless the caller supplies a measured value.
  void set_wall_clock(WallClockFn fn) { wall_clock_ = fn; }
  /// A disabled recorder's record()/trigger() are no-ops.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Intern a detail string once (idempotent); id 0 is the empty string.
  NoteId note(std::string_view text);
  const std::string& note_text(NoteId id) const { return notes_[id]; }

  /// Append one event. `wall_ns` 0 means "stamp from the installed wall
  /// clock"; callers that already measured wall time (the dispatch
  /// profiler) pass their measurement instead.
  void record(FlightKind kind, NoteId detail = 0, std::uint64_t trace = 0,
              std::int64_t a = 0, std::int64_t b = 0,
              std::int64_t wall_ns = 0);

  /// Auto-dump when `burst` events of `kind` land within `window` of sim
  /// time (e.g. 64 fault injections within one virtual second).
  void add_trigger(FlightKind kind, std::uint32_t burst,
                   simnet::SimDuration window, std::string reason);
  /// Dump now (rate-limited like an automatic trigger: at most 8 dumps, one
  /// virtual minute apart, per kMaxDumps / kMinDumpGap in flight.cpp;
  /// repeated triggers inside the gap are counted in suppressed()).
  void trigger(std::string_view reason);

  /// Ring contents, oldest first.
  std::vector<FlightEvent> events() const;
  /// Rendered table of the newest `max_events` ring events (sim clock
  /// only — bit-identical across same-seed runs).
  std::string dump(std::size_t max_events = 64) const;

  std::uint64_t recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
  }
  std::uint64_t overwritten() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overwritten_;
  }
  std::uint64_t triggers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return triggers_;
  }
  std::uint64_t suppressed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return suppressed_;
  }
  /// (reason, rendered dump) pairs, oldest first, at most 8.
  /// Returns a reference into the recorder: read only once appends have
  /// quiesced (post-run, or from a barrier commit).
  // ttslint: barrier_only
  const std::vector<std::pair<std::string, std::string>>& dumps() const {
    return dumps_;
  }

 private:
  struct TriggerRule {
    FlightKind kind;
    std::uint32_t burst;
    simnet::SimDuration window;
    std::string reason;
    /// Circular buffer of the last `burst` matching sim times.
    std::vector<simnet::SimTime> recent;
    std::size_t next = 0;
    std::uint64_t seen = 0;
  };

  simnet::SimTime sim_now() const;
  void trigger_locked(std::string_view reason);
  std::vector<FlightEvent> events_locked() const;
  std::string dump_locked(std::size_t max_events) const;

  /// Guards every mutable member below: sharded runs append from
  /// concurrent shard executors (fault injections, slow dispatches).
  mutable std::mutex mu_;
  const simnet::EventQueue* events_ = nullptr;
  WallClockFn wall_clock_ = nullptr;
  bool enabled_ = true;
  std::size_t capacity_;
  std::vector<FlightEvent> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
  std::vector<std::string> notes_;
  std::vector<TriggerRule> rules_;
  simnet::SimTime last_dump_at_ = -1;
  std::uint64_t triggers_ = 0;
  std::uint64_t suppressed_ = 0;
  std::vector<std::pair<std::string, std::string>> dumps_;
};

}  // namespace tts::obs
