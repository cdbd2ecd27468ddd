// Shared pacing budget across scan engines.
//
// The paper's scanner shares one uplink between the real-time NTP feed and
// the hitlist sweep (Section 3); the aggregate send rate is what passive
// observers see and classify, so it must be a first-class invariant rather
// than an emergent property of per-engine token buckets. SharedBudget is
// that single token source: clients (scan engines) register with a weight,
// and tokens are granted by start-time fair queuing over the *backlogged*
// clients, which makes the budget
//
//   - work-conserving: an idle client's share is lendable — the sole busy
//     client takes every token (counted in scan_budget_borrowed_slots);
//   - weighted: under saturation, grants converge to the configured weight
//     ratios (each client's virtual finish tag advances by 1/weight per
//     grant, and the smallest start tag wins the next token);
//   - promptly reclaimable: a client going idle->busy re-enters at the
//     current virtual time (no credit for the idle period, no banked debt
//     against it), so its first grant arrives within about one token gap —
//     scan_budget_reclaim_us measures the realized latency.
//
// Tokens accrue one global gap (1e6/max_pps us) apart and at most
// kBurstSlots gaps' worth may be banked; older tokens evaporate. The bank
// is what lets a pump wake once per batch instead of once per grant (see
// ScanEngine's coalesced pump) while bounding any burst to kBurstSlots + 1
// launches.
//
// Clients pull: try_acquire() consumes a token or refuses (token not yet
// accrued, or a backlogged peer's turn), suggested_wake() says when to try
// again, and the budget nudges armed-and-waiting peers via their WakeFn
// when capacity frees up early (a peer drained or deregistered).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/time.hpp"

namespace tts::scan {

/// Token gaps' worth of unused capacity a budget may bank: the largest
/// burst a single pump wake launches (minus one), and so the bound on a
/// granted token's wait.
inline constexpr std::int64_t kBurstSlots = 2;

struct SharedBudgetConfig {
  /// Aggregate probe budget per second of virtual time, across all clients.
  double max_pps = 2000;
  /// Export per-client instruments (scan_budget_grants,
  /// scan_budget_borrowed_slots, scan_budget_reclaim_us, labelled
  /// client=<name>); must outlive the budget. Optional.
  obs::Registry* registry = nullptr;
};

class SharedBudget {
 public:
  using ClientId = std::size_t;
  /// Nudge: the client's earliest acquirable slot moved earlier (a peer
  /// drained or left); re-arm the pump.
  using WakeFn = std::function<void()>;
  /// Observer invoked on every grant: client, the consumed token's accrual
  /// time (slot <= at), and the grant time. Test harnesses and send-log
  /// style instrumentation hook here.
  using GrantFn = std::function<void(ClientId id, simnet::SimTime slot,
                                     simnet::SimTime at)>;

  /// Throws std::invalid_argument on non-positive max_pps.
  explicit SharedBudget(SharedBudgetConfig config);
  ~SharedBudget();

  SharedBudget(const SharedBudget&) = delete;
  SharedBudget& operator=(const SharedBudget&) = delete;

  /// Register a client. Weight must be positive; ties in the fair-queue
  /// arbitration break towards earlier registrations. The WakeFn may be
  /// empty for clients that poll anyway (tests).
  ClientId add_client(std::string name, double weight, WakeFn wake = {});
  /// Deregister: drops the client's instruments and wakes waiting peers.
  void remove_client(ClientId id);

  /// Declare whether `id` has due work blocked only on tokens. Accurate
  /// flags are what peers' fair shares are computed against; a client that
  /// sets true must keep pumping (acquire or re-flag) until it sets false.
  void set_backlog(ClientId id, bool backlogged, simnet::SimTime now);

  /// Consume one token at `now`. Returns the token's accrual time
  /// (in (now - kBurstSlots * gap, now]), or nullopt when the next token
  /// has not accrued yet or a backlogged peer with an earlier fair-queue
  /// tag owns it.
  std::optional<simnet::SimTime> try_acquire(ClientId id, simnet::SimTime now);

  /// Earliest future time a try_acquire(id) could succeed given current
  /// state (>= now). Peers' grants can move it later; set_backlog(false) /
  /// remove_client move it earlier and fire the waiters' WakeFns.
  simnet::SimTime next_slot(ClientId id, simnet::SimTime now) const;
  /// next_slot(), plus the burst-bank slack when no backlogged peer is
  /// contending: an uncontended pump may oversleep by kBurstSlots gaps and
  /// launch the banked batch in one wake (the coalescing that cuts pump
  /// event counts); a contended pump must not, or banked tokens would
  /// evaporate unused.
  simnet::SimTime suggested_wake(ClientId id, simnet::SimTime now) const;

  simnet::SimDuration gap() const { return gap_; }
  double max_pps() const { return config_.max_pps; }
  std::int64_t burst_slots() const { return kBurstSlots; }

  std::size_t clients() const { return clients_.size(); }
  std::uint64_t grants(ClientId id) const { return clients_[id]->grants.value(); }
  /// Grants taken beyond the client's contended share while some peer was
  /// idle — lent capacity actually used.
  std::uint64_t borrowed(ClientId id) const {
    return clients_[id]->borrowed.value();
  }
  /// Virtual-time latency from a client turning busy (set_backlog true) to
  /// its first grant.
  const obs::Histogram& reclaim(ClientId id) const {
    return clients_[id]->reclaim;
  }

  void set_grant_observer(GrantFn fn) { on_grant_ = std::move(fn); }

 private:
  struct Client {
    std::string name;
    double weight = 1.0;
    WakeFn wake;
    bool active = false;
    bool backlogged = false;
    /// SFQ finish tag: advances 1/weight per grant; max(finish, vtime_) is
    /// the start tag arbitration compares.
    double finish = 0.0;
    /// Time the client turned busy; -1 when idle or already served.
    simnet::SimTime wanted_since = -1;
    obs::Counter grants;
    obs::Counter borrowed;
    obs::Histogram reclaim{obs::Histogram::exponential(100, 4.0, 12)};
  };

  double start_tag(const Client& c) const {
    return c.finish > vtime_ ? c.finish : vtime_;
  }
  /// True when a backlogged peer of `id` holds an earlier (winning) tag.
  bool deferred_to_peer(ClientId id) const;
  void wake_waiting_peers(ClientId except);

  SharedBudgetConfig config_;
  /// Whole-microsecond floor of the exact token gap 1e6/max_pps.
  simnet::SimDuration gap_;
  /// Fractional gap remainder in 2^-32 us units, error-fed into frac_acc_
  /// per grant: each carry out of the low 32 bits stretches that step by
  /// 1 us, so the long-run grant rate equals max_pps exactly even for
  /// non-divisor rates (no floats in the steady state).
  std::uint64_t frac_step_ = 0;
  std::uint64_t frac_acc_ = 0;
  /// Accrual time of the next unconsumed token (tokens older than
  /// kBurstSlots gaps evaporate — the bank floor is now - burst*gap).
  simnet::SimTime next_accrual_ = 0;
  /// SFQ virtual time: start tag of the last granted token. Freshly busy
  /// clients re-enter here, which is exactly the no-banked-credit rule.
  double vtime_ = 0.0;
  std::vector<std::unique_ptr<Client>> clients_;
  GrantFn on_grant_;
};

}  // namespace tts::scan
