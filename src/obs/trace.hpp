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
// The Tracer owns the run's one telemetry ring: completed spans, instants
// and the FlightRecorder's typed anomaly marks (FlightKind) land in the
// same bounded ring of plain entries, so an anomaly sits on the timeline
// of the probe spans around it and long runs never grow unbounded. Scoped
// spans handle synchronous stages; the open()/close() pair handles stages
// that finish in a later event-queue callback (probe launch -> completion).
//
// Threading: open()/close() and the span slots are domain-0 only. Marks
// also come from shard executors (fault injections, slow dispatches), so
// one mutex guards the ring, the aggregates and the interner.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simnet/event_queue.hpp"

namespace tts::obs {

/// Typed anomaly marks (FlightRecorder::record), stored in the Tracer's
/// ring next to the spans.
enum class FlightKind : std::uint8_t {
  kBreakerOpen,
  kBreakerHalfOpen,
  kBreakerClose,
  kBreakerShed,
  kFaultInjected,
  kSlowDispatch,
  kRetryDropped,
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
inline constexpr std::size_t kFlightKindCount = 11;

/// The mark's name in the ring, dumps and trace exports ("breaker_open").
std::string_view to_string(FlightKind kind);

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
  /// Zero-duration marker (Tracer::instant or a flight mark) rather than
  /// an open/close pair.
  bool instant = false;
  /// Set on flight marks only: the anomaly's kind (`name` is its
  /// to_string), its interned detail text and kind-specific payload.
  std::optional<FlightKind> flight;
  std::string detail;
  std::int64_t a = 0;
  std::int64_t b = 0;

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
  /// NameId of the empty name: a mark without detail text.
  static constexpr NameId kNoName = 0;

  explicit Tracer(std::size_t capacity = 4096);

  /// The wall clock every obs component and the event queue's dispatch
  /// profiler share (steady_clock, ns). This is the one sanctioned
  /// ambient-time read: callers (EventQueue, bench emitters) take the
  /// value as data instead of reading clocks themselves, keeping the
  /// ttslint wall-clock allowlist at this file.
  static std::int64_t wall_clock_ns();

  /// Virtual-time source; without one, spans record sim times of 0.
  void set_sim_clock(const simnet::EventQueue* events) { events_ = events; }

  /// A disabled tracer's open() is a no-op returning kNoSpan (no wall-clock
  /// reads on the hot path); instants and flight marks are dropped too.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Intern a span name or mark detail once (idempotent); open(NameId) is
  /// then free of string hashing entirely. Enrol at setup time, trace on
  /// the hot path.
  NameId intern(std::string_view name);
  /// A reference into the interner: read once interning has quiesced.
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

  /// The ring's contents in commit order: completed spans, instants and
  /// flight marks, oldest first.
  std::vector<SpanRecord> records() const;
  /// Aggregates over *all* committed entries, keyed by name (an ordered
  /// map, so report output is stable). Built on demand from the per-id
  /// vector; bind it to a local when reading more than one entry.
  std::map<std::string, SpanStats> stats() const;
  /// Aggregate for one interned name (hot-path-shaped accessor; read once
  /// appends have quiesced).
  const SpanStats& stats_of(NameId name) const { return stats_[name]; }
  /// Entries committed to the ring (spans, instants and marks).
  std::uint64_t completed() const {
    auto lock = lock_ring();
    return completed_;
  }
  /// Entries the bounded ring has overwritten.
  std::uint64_t dropped() const {
    auto lock = lock_ring();
    return dropped_;
  }
  /// Ring capacity.
  std::size_t capacity() const { return capacity_; }
  std::size_t open_spans() const { return open_count_; }

 private:
  // The FlightRecorder appends marks and renders dumps under mu_, so its
  // trigger state shares the ring's lock.
  friend class FlightRecorder;

  /// What a ring entry is: a FlightKind value for a mark, or one of these.
  static constexpr std::uint8_t kSpanEntry = 0xfe;
  static constexpr std::uint8_t kInstantEntry = 0xff;

  /// One ring slot: names are interned ids, so a commit copies no string.
  struct Entry {
    simnet::SimTime sim_begin = 0;
    simnet::SimTime sim_end = 0;
    std::int64_t wall_ns = 0;
    TraceId trace = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
    NameId name = 0;
    NameId detail = 0;
    std::uint32_t depth = 0;
    std::uint8_t kind = kSpanEntry;
  };

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

  /// Hold the ring lock (the FlightRecorder's trigger state shares it).
  std::unique_lock<std::mutex> lock_ring() const {
    return std::unique_lock<std::mutex>(mu_);
  }
  void commit(const Entry& entry);
  void commit_locked(const Entry& entry);
  /// Append a flight mark at the current sim time; returns that time.
  simnet::SimTime mark_locked(FlightKind kind, NameId detail, TraceId trace,
                              std::int64_t a, std::int64_t b);
  /// The newest `max_entries` ring entries, oldest first.
  std::vector<SpanRecord> records_locked(std::size_t max_entries) const;
  simnet::SimTime sim_now() const { return events_ ? events_->now() : 0; }

  const simnet::EventQueue* events_ = nullptr;
  bool enabled_ = true;
  std::size_t capacity_;
  /// Guards the ring, its counters, the aggregates and the interner.
  mutable std::mutex mu_;
  std::vector<Entry> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;  // entries overwritten in the ring
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
  std::array<NameId, kFlightKindCount> flight_names_{};
};

}  // namespace tts::obs
