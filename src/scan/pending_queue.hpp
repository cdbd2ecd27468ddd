// Bounded staging for one scan engine's probe intents.
//
// The pull-based pacing pump (scan::SharedBudget's one timer driving each
// ScanEngine's settle and launch steps) stores *intents* here — (target,
// position in the protocol chain, not-before time) — instead of
// pre-reserving rate-limiter slots at submission; slots come from the
// engine's scan::SharedBudget at launch time. The queue has one capacity,
// and a full queue pushes back on the submitter instead of growing without
// bound; fairness between datasets is the budget's job, since each dataset
// has its own engine. Pulls are earliest-first, and ties at equal
// not-before times break by staging order, keeping pull order (and
// therefore every downstream RNG draw) deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv6.hpp"
#include "simnet/time.hpp"

namespace tts::scan {

/// One staged probe: the pump launches it at the first token-bucket slot at
/// or after `not_before`.
struct ScanIntent {
  simnet::SimTime not_before = 0;
  /// Index into the engine's protocol order (the stagger chain position).
  std::uint8_t chain_pos = 0;
  /// Retry attempt: 0 for the first probe, incremented each re-stage.
  std::uint8_t attempt = 0;
  net::Ipv6Address target;
  // Causal tracing context, carried but never read by the queue itself.
  // New fields go after `target`: engine and tests build intents with
  // positional designated initializers over the fields above.
  /// obs::Tracer::TraceId of the probe lifecycle (0 = tracing off).
  std::uint64_t trace = 0;
  /// Open whole-lifecycle span (submit -> record), closed by the engine at
  /// the final outcome. obs::Tracer::SpanId; 0 = none.
  std::uint64_t lifecycle_span = 0;
  /// Open staging span (stage -> grant/shed), closed when the pump pulls
  /// or sheds this intent. obs::Tracer::SpanId; 0 = none.
  std::uint64_t stage_span = 0;
};

class PendingQueue {
 public:
  explicit PendingQueue(std::size_t capacity);

  /// Stage an intent. False when the queue is at capacity — the caller
  /// must apply backpressure instead of queueing.
  bool push(ScanIntent intent);

  bool full() const { return heap_.size() == capacity_; }
  /// push() never lets size() pass the capacity.
  std::size_t free_slots() const { return capacity_ - heap_.size(); }

  /// Earliest not_before (nullopt when empty).
  std::optional<simnet::SimTime> next_not_before() const;
  /// Pop the earliest intent with not_before <= now; nullopt when nothing
  /// is due.
  std::optional<ScanIntent> pull_due(simnet::SimTime now);
  /// The intent the next pull_due(now) would return, without popping it —
  /// lets the pump decide (breaker admission) before spending a budget
  /// token on it.
  const ScanIntent* peek_due(simnet::SimTime now) const;

  std::size_t size() const { return heap_.size(); }
  /// High-water mark of size() over the queue's lifetime.
  std::size_t peak() const { return peak_; }
  bool empty() const { return heap_.empty(); }

 private:
  /// A staged intent's place in the queue: the heap orders these 24-byte
  /// keys, and the intent itself stays put in slab_ until it is pulled.
  struct Key {
    simnet::SimTime not_before;
    std::uint64_t seq;   // staging-order tie-break: deterministic pulls
    std::uint32_t slot;  // index into slab_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.not_before != b.not_before) return a.not_before > b.not_before;
      return a.seq > b.seq;
    }
  };

  /// A binary min-heap of keys kept with std::push_heap / std::pop_heap.
  std::vector<Key> heap_;
  std::vector<ScanIntent> slab_;
  std::vector<std::uint32_t> free_;  // vacant slab_ indices
  std::size_t capacity_;
  std::size_t peak_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tts::scan
