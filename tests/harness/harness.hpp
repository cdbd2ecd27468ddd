// Shared helpers for the scenario/soak harness (ctest -L harness).
//
// The harness proves the shared-budget pacing properties end to end:
// GrantLog taps SharedBudget's grant observer and answers the questions the
// invariants are phrased in (how many grants in the worst 1-second window,
// how many per client before some cutoff, is the whole sequence
// bit-identical between runs), FakePacer is a plain budget client (its
// work is due while any is left; each grant launches one unit) that needs
// none of the scan stack, and Fnv64 folds arbitrary run artifacts into one
// fingerprint for determinism checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scan/budget.hpp"
#include "simnet/event_queue.hpp"

namespace tts::harness {

struct Grant {
  scan::SharedBudget::ClientId client;
  simnet::SimTime slot;  // consumed token's accrual time
  simnet::SimTime at;    // grant (launch) time

  bool operator==(const Grant& o) const {
    return client == o.client && slot == o.slot && at == o.at;
  }
};

/// Records every grant a SharedBudget hands out, in order.
class GrantLog {
 public:
  void attach(scan::SharedBudget& budget) {
    budget.set_grant_observer(
        [this](scan::SharedBudget::ClientId id, simnet::SimTime slot,
               simnet::SimTime at) { grants_.push_back({id, slot, at}); });
  }

  const std::vector<Grant>& grants() const { return grants_; }
  std::size_t size() const { return grants_.size(); }

  std::vector<simnet::SimTime> times() const {
    std::vector<simnet::SimTime> out;
    out.reserve(grants_.size());
    for (const Grant& g : grants_) out.push_back(g.at);
    return out;
  }

  std::uint64_t count(scan::SharedBudget::ClientId id) const {
    std::uint64_t n = 0;
    for (const Grant& g : grants_) n += g.client == id;
    return n;
  }
  /// Grants of `id` strictly before `cutoff` — per-client share over an
  /// interval where every client was still backlogged.
  std::uint64_t count_before(scan::SharedBudget::ClientId id,
                             simnet::SimTime cutoff) const {
    std::uint64_t n = 0;
    for (const Grant& g : grants_) n += g.client == id && g.at < cutoff;
    return n;
  }
  /// Grant time of `id`'s first grant at or after `t` (-1 when none).
  simnet::SimTime first_at_or_after(scan::SharedBudget::ClientId id,
                                    simnet::SimTime t) const {
    for (const Grant& g : grants_)
      if (g.client == id && g.at >= t) return g.at;
    return -1;
  }

 private:
  std::vector<Grant> grants_;
};

/// Largest number of events inside any half-open window [t, t + window):
/// the sliding-window rate the pacing invariant bounds.
inline std::size_t max_window_count(std::vector<simnet::SimTime> times,
                                    simnet::SimDuration window) {
  std::sort(times.begin(), times.end());
  std::size_t best = 0, lo = 0;
  for (std::size_t hi = 0; hi < times.size(); ++hi) {
    while (times[hi] - times[lo] >= window) ++lo;
    best = std::max(best, hi - lo + 1);
  }
  return best;
}

/// FNV-1a accumulator for determinism fingerprints.
class Fnv64 {
 public:
  Fnv64& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv64& mix(std::int64_t v) { return mix(static_cast<std::uint64_t>(v)); }
  Fnv64& mix(const Grant& g) {
    return mix(static_cast<std::uint64_t>(g.client)).mix(g.slot).mix(g.at);
  }
  /// Straight FNV-1a over a byte string (whole-report digests).
  Fnv64& mix_bytes(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Minimal SharedBudget client: `work` abstract sends, each launched on a
/// token the budget's pump grants.
class FakePacer : private scan::PumpClient {
 public:
  FakePacer(simnet::EventQueue& events, scan::SharedBudget& budget,
            std::string name)
      : events_(events), budget_(budget) {
    id_ = budget_.add_client(std::move(name), this);
  }
  ~FakePacer() { budget_.remove_client(id_); }

  void add_work(std::uint64_t n) {
    work_ += n;
    budget_.report_due(id_, events_.now());
  }

  scan::SharedBudget::ClientId id() const { return id_; }
  std::uint64_t done() const { return done_; }
  std::uint64_t work_left() const { return work_; }

 private:
  std::optional<simnet::SimTime> settle(simnet::SimTime now) override {
    if (work_ == 0) return std::nullopt;
    return now;
  }
  void launch(simnet::SimTime /*slot*/, simnet::SimTime /*now*/) override {
    --work_;
    ++done_;
  }

  simnet::EventQueue& events_;
  scan::SharedBudget& budget_;
  scan::SharedBudget::ClientId id_;
  std::uint64_t work_ = 0;
  std::uint64_t done_ = 0;
};

}  // namespace tts::harness
