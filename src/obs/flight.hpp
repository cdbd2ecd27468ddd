// Anomaly flight recorder: triggers and dumps over the Tracer's ring.
// Subsystems append typed marks cheaply (no strings, no allocation on the
// hot path once details are interned through the Tracer); each mark lands
// in the Tracer's one bounded ring next to the probe spans, and the
// recorder dumps the ring's tail when something anomalous happens — a
// breaker opening, a burst of fault injections, a dispatch blowing its
// wall-time threshold — or on demand from the Study.
//
// Marks carry the sim clock only; the Tracer's enable flag gates them.
// Dumps render sim time only, so same-seed dumps are bit-identical.
//
// Dumps are rate-limited in sim time and bounded in count; each is a
// rendered snapshot of the ring tail at trigger time, kept alongside its
// reason so a post-run report (or a test) can ask "what was the system
// doing just before the breaker opened?".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace tts::obs {

/// One flight mark read back from the ring (FlightRecorder::events).
struct FlightEvent {
  simnet::SimTime sim = 0;
  /// Causal trace the mark belongs to (0 = none); links it to the probe
  /// lifecycle spans of the same TraceId.
  std::uint64_t trace = 0;
  /// Kind-specific payload (e.g. breaker prefix halves, dispatch wall ns).
  std::int64_t a = 0;
  std::int64_t b = 0;
  FlightKind kind = FlightKind::kBreakerOpen;
  /// Interned detail text ("" = none).
  std::string detail;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(Tracer& tracer) : tracer_(tracer) {}

  /// The ring the marks land in; intern details through it.
  Tracer& tracer() { return tracer_; }

  /// Append one mark to the Tracer's ring, then evaluate the trigger
  /// rules. A disabled Tracer drops it.
  void record(FlightKind kind, Tracer::NameId detail = Tracer::kNoName,
              Tracer::TraceId trace = 0, std::int64_t a = 0,
              std::int64_t b = 0);

  /// Auto-dump when `burst` marks of `kind` land within `window` of sim
  /// time (e.g. 64 fault injections within one virtual second).
  void add_trigger(FlightKind kind, std::uint32_t burst,
                   simnet::SimDuration window, std::string reason);
  /// Dump now (rate-limited like an automatic trigger: at most 8 dumps, one
  /// virtual minute apart, per kMaxDumps / kMinDumpGap in flight.cpp;
  /// repeated triggers inside the gap are counted in suppressed()).
  void trigger(std::string_view reason);

  /// The flight marks still in the ring, oldest first.
  std::vector<FlightEvent> events() const;
  /// Rendered table of the newest `max_entries` ring entries — spans,
  /// instants and marks (sim clock only — bit-identical across same-seed
  /// runs).
  std::string dump(std::size_t max_entries = 64) const;

  std::uint64_t triggers() const {
    auto lock = tracer_.lock_ring();
    return triggers_;
  }
  std::uint64_t suppressed() const {
    auto lock = tracer_.lock_ring();
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

  void trigger_locked(std::string_view reason);
  std::string dump_locked(std::size_t max_entries) const;

  /// Every mutable member below is guarded by the Tracer's ring lock:
  /// sharded runs append from concurrent shard executors.
  Tracer& tracer_;
  std::vector<TriggerRule> rules_;
  simnet::SimTime last_dump_at_ = -1;
  std::uint64_t triggers_ = 0;
  std::uint64_t suppressed_ = 0;
  std::vector<std::pair<std::string, std::string>> dumps_;
};

}  // namespace tts::obs
