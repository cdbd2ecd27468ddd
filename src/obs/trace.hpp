// Span tracing for pipeline stages, in both clocks at once: wall time
// (steady_clock, observational only — it never feeds back into the
// simulation) and virtual time (the simnet::EventQueue clock, so a span
// covering an async probe round-trip reports the simulated RTT).
//
// Span names are interned once (name -> NameId) and the hot path carries
// only the 32-bit id: open(NameId) does no string work at all, and repeat
// open(string_view) calls cost one hash lookup, not an allocation. Per-name
// aggregates (count / total / max in each clock, plus a log-scale
// sim-duration histogram) are a flat vector indexed by NameId.
//
// Completed spans land in a bounded ring buffer, so long runs keep the
// recent detail and never grow unbounded. Scoped spans handle synchronous
// stages; the open()/close() pair handles stages that finish in a later
// event-queue callback (probe launch -> completion).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simnet/event_queue.hpp"

namespace tts::obs {

struct SpanRecord {
  std::string name;
  simnet::SimTime sim_begin = 0;
  simnet::SimTime sim_end = 0;
  std::int64_t wall_ns = 0;
  std::uint32_t depth = 0;  // nesting level at open time (0 = top level)
  /// Causal trace this span belongs to (0 = not trace-linked). All spans
  /// of one probe lifecycle carry the same TraceId, so an exporter can
  /// group stage/grant/launch/retry/record onto one timeline.
  std::uint64_t trace = 0;
  /// Zero-duration marker (Tracer::instant) rather than an open/close pair.
  bool instant = false;

  simnet::SimDuration sim_duration() const { return sim_end - sim_begin; }
};

struct SpanStats {
  /// Sim-duration histogram: bucket b counts spans with
  /// 2^(b-1) <= duration < 2^b time units (bucket 0 = zero-length spans);
  /// the last bucket absorbs everything longer.
  static constexpr std::size_t kHistBuckets = 24;

  std::uint64_t count = 0;
  simnet::SimDuration total_sim = 0;
  simnet::SimDuration max_sim = 0;
  std::int64_t total_wall_ns = 0;
  std::int64_t max_wall_ns = 0;
  std::array<std::uint64_t, kHistBuckets> sim_hist{};

  static std::size_t bucket_of(simnet::SimDuration d);
};

class Tracer {
 public:
  using SpanId = std::uint64_t;
  using NameId = std::uint32_t;
  /// Causal trace identity threaded through every stage of one logical
  /// operation (a probe lifecycle). Minted by the producer (seed-stable —
  /// e.g. ScanEngine derives it from the staging sequence, never from a
  /// clock), 0 means "no trace".
  using TraceId = std::uint64_t;
  static constexpr SpanId kNoSpan = 0;

  explicit Tracer(std::size_t capacity = 4096);

  /// The wall clock every obs component and the event queue's dispatch
  /// profiler share (steady_clock, ns). This is the one sanctioned
  /// ambient-time read: callers (EventQueue, FlightRecorder, bench
  /// emitters) take the value as data instead of reading clocks
  /// themselves, keeping the ttslint wall-clock allowlist at this file.
  static std::int64_t wall_clock_ns();

  /// Virtual-time source; without one, spans record sim times of 0.
  void set_sim_clock(const simnet::EventQueue* events) { events_ = events; }

  /// A disabled tracer's open() is a no-op returning kNoSpan (no wall-clock
  /// reads on the hot path).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Intern a span name once (idempotent); open(NameId) is then free of
  /// string hashing entirely. Enrol at setup time, trace on the hot path.
  NameId intern(std::string_view name);
  const std::string& name_of(NameId name) const { return names_[name]; }

  SpanId open(NameId name) { return open(name, /*trace=*/0); }
  SpanId open(std::string_view name) { return open(intern(name)); }
  /// Open a span linked to a causal trace: the completed record carries
  /// `trace`, so exporters can reassemble one probe's whole lifecycle.
  SpanId open(NameId name, TraceId trace);
  void close(SpanId id);

  /// Record a zero-duration marker (grant, retry, shed, record...) on a
  /// trace. Counted in the per-name stats and the ring like any span; a
  /// disabled tracer ignores it.
  void instant(NameId name, TraceId trace);

  /// RAII span for synchronous stages.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    Scope(Tracer& tracer, NameId name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    SpanId id_;
  };

  Scope span(std::string_view name) { return Scope(*this, name); }
  Scope span(NameId name) { return Scope(*this, name); }

  /// The most recent completed spans in completion order (ring contents).
  std::vector<SpanRecord> records() const;
  /// Aggregates over *all* completed spans, keyed by span name (an ordered
  /// map, so report output is stable). Built on demand from the per-id
  /// vector; bind it to a local when reading more than one entry.
  std::map<std::string, SpanStats> stats() const;
  /// Aggregate for one interned name (hot-path-shaped accessor).
  const SpanStats& stats_of(NameId name) const { return stats_[name]; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Completed-span ring capacity.
  std::size_t capacity() const { return capacity_; }
  std::size_t open_spans() const { return open_count_; }

 private:
  // Open spans live in reusable slots (no per-span node allocation on the
  // hot path); a SpanId packs the slot index and a generation counter so a
  // stale close of a recycled slot is ignored.
  struct Active {
    NameId name = 0;
    simnet::SimTime sim_begin = 0;
    std::int64_t wall_begin_ns = 0;
    std::uint32_t depth = 0;
    std::uint32_t gen = 0;
    std::uint64_t trace = 0;
    bool in_use = false;
  };

  void commit(SpanRecord rec, NameId name);
  simnet::SimTime sim_now() const { return events_ ? events_->now() : 0; }

  const simnet::EventQueue* events_ = nullptr;
  bool enabled_ = true;
  std::size_t capacity_;
  std::vector<SpanRecord> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;  // records overwritten in the ring
  std::vector<Active> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t open_count_ = 0;
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, NameId, StringHash, std::equal_to<>> ids_;
  std::vector<std::string> names_;     // NameId -> name
  std::vector<SpanStats> stats_;       // NameId -> aggregate
};

}  // namespace tts::obs
