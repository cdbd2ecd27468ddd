// Bounded, dataset-fair staging for scan probe intents.
//
// The pull-based pacing pump (scan::SharedBudget's one timer driving each
// ScanEngine's settle and launch steps) stores *intents* here — (target,
// position in the protocol chain, not-before time) — instead of
// pre-reserving rate-limiter slots at submission; slots come from the
// engine's scan::SharedBudget at launch time. Each dataset gets its own
// lane with its own capacity, so a bulk hitlist sweep can never crowd out
// the real-time NTP feed: pulls round-robin across lanes with due work, and
// a full lane pushes back on the submitter instead of growing without
// bound. Ties at equal not-before times break by staging order, keeping
// pull order (and therefore every downstream RNG draw) deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv6.hpp"
#include "scan/results.hpp"
#include "simnet/time.hpp"

namespace tts::scan {

/// One staged probe: the pump launches it at the first token-bucket slot at
/// or after `not_before`.
struct ScanIntent {
  simnet::SimTime not_before = 0;
  Dataset dataset = Dataset::kNtp;
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
  explicit PendingQueue(std::size_t lane_capacity);

  /// Stage an intent. False when the intent's lane is at capacity — the
  /// caller must apply backpressure instead of queueing.
  bool push(ScanIntent intent);

  bool full(Dataset lane) const { return free_slots(lane) == 0; }
  std::size_t free_slots(Dataset lane) const;

  /// Earliest not_before across all lanes (nullopt when empty).
  std::optional<simnet::SimTime> next_not_before() const;
  /// Pop one intent with not_before <= now, round-robin across lanes with
  /// due work so no dataset starves another. nullopt when nothing is due.
  std::optional<ScanIntent> pull_due(simnet::SimTime now);
  /// The intent the next pull_due(now) would return, without popping or
  /// advancing the round-robin cursor — lets the pump decide (breaker
  /// admission) before spending a budget token on it.
  const ScanIntent* peek_due(simnet::SimTime now) const;

  std::size_t size() const { return slab_.size() - free_.size(); }
  std::size_t lane_size(Dataset lane) const;
  std::size_t lane_capacity() const { return lane_capacity_; }
  /// High-water mark of size() over the queue's lifetime.
  std::size_t peak() const { return peak_; }
  bool empty() const { return size() == 0; }

 private:
  /// A staged intent's place in its lane: the heap orders these 24-byte
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
  using Lane = std::vector<Key>;

  std::array<Lane, kDatasetCount> lanes_;
  std::vector<ScanIntent> slab_;
  std::vector<std::uint32_t> free_;  // vacant slab_ indices
  std::size_t lane_capacity_;
  std::size_t peak_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t rr_next_ = 0;  // lane offset the next pull starts from
};

}  // namespace tts::scan
