// Shared pacing budget across scan engines, and the one scan pump.
//
// The paper's scanner shares one uplink between the real-time NTP feed and
// the hitlist sweep (Section 3); the aggregate send rate is what passive
// observers see and classify, so it must be a first-class invariant rather
// than an emergent property of per-engine token buckets. SharedBudget is
// that single token source and the single scheduler that spends it:
// clients (scan engines) register, and tokens are granted by start-time
// fair queuing over the clients with work due, which makes the budget
//
//   - work-conserving: an idle client's share is lendable — the sole busy
//     client takes every token (counted in scan_budget_borrowed_slots);
//   - equal-share: under saturation, every busy client gets the same
//     number of grants (each client's virtual finish tag advances by 1 per
//     grant, and the smallest start tag wins the next token);
//   - promptly reclaimable: a client going idle->busy re-enters at the
//     current virtual time (no credit for the idle period, no banked debt
//     against it), so its first grant arrives within about one token gap —
//     scan_budget_reclaim_us measures the realized latency.
//
// Tokens accrue one global gap (1e6/max_pps us) apart and at most
// kBurstSlots gaps' worth may be banked; older tokens evaporate.
//
// The budget owns the only pump timer. Clients never ask for tokens: they
// report their earliest due time when it may have moved (report_due), and
// at each wake the budget runs every due client's token-free step
// (PumpClient::settle), then hands out every banked token — at most
// kBurstSlots + 1 — in fair order to the clients with work due, calling
// PumpClient::launch once per grant and re-settling that client after it.
// It then re-arms at the earlier of the next due time and, while work is
// token-blocked, the time the bank refills (the next token plus kBurstSlots
// gaps — the oversleep that batches a saturated sweep into one wake per
// kBurstSlots + 1 grants, contended or not). A report that makes work due
// mid-sleep pulls the wake forward to the next token, which is what keeps
// a newly busy client's reclaim within a gap or two.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/event_queue.hpp"
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

/// The two steps the budget's pump drives on each client.
class PumpClient {
 public:
  /// Token-free work at `now`: stage what there is room for and clear due
  /// heads that must not spend a token. Returns the earliest time a staged
  /// head is launchable (<= now: launch() may follow at once), or nullopt
  /// when nothing is staged.
  virtual std::optional<simnet::SimTime> settle(simnet::SimTime now) = 0;
  /// Launch the due head on the token accrued at `slot` (slot <= now).
  virtual void launch(simnet::SimTime slot, simnet::SimTime now) = 0;

 protected:
  ~PumpClient() = default;
};

class SharedBudget {
 public:
  using ClientId = std::size_t;
  /// Observer invoked on every grant: client, the consumed token's accrual
  /// time (slot <= at), and the grant time. Test harnesses and send-log
  /// style instrumentation hook here.
  using GrantFn = std::function<void(ClientId id, simnet::SimTime slot,
                                     simnet::SimTime at)>;

  /// The pump timer runs on `events` ("scan_pump" dispatch category), which
  /// must outlive the budget. Throws std::invalid_argument on non-positive
  /// max_pps.
  SharedBudget(simnet::EventQueue& events, SharedBudgetConfig config);
  ~SharedBudget();

  SharedBudget(const SharedBudget&) = delete;
  SharedBudget& operator=(const SharedBudget&) = delete;

  /// Register a client, which must stay alive until remove_client. Ties
  /// in the fair-queue arbitration break towards earlier registrations. A
  /// null client holds a share that never has work.
  ClientId add_client(std::string name, PumpClient* client = nullptr);
  /// Deregister: the budget never calls the client again and drops its
  /// instruments.
  void remove_client(ClientId id);

  /// The client's earliest due time may have moved outside a pump wake
  /// (work staged by a submission, a new source, a retry, a re-announced
  /// route): record it and, if it is due before the pump's wake, wake at
  /// the first token at or after it.
  void report_due(ClientId id, std::optional<simnet::SimTime> due);

  simnet::SimDuration gap() const { return gap_; }
  double max_pps() const { return config_.max_pps; }
  std::int64_t burst_slots() const { return kBurstSlots; }

  std::uint64_t grants(ClientId id) const { return clients_[id]->grants.value(); }
  /// Grants taken beyond the client's contended share while some peer was
  /// idle — lent capacity actually used.
  std::uint64_t borrowed(ClientId id) const {
    return clients_[id]->borrowed.value();
  }
  /// Virtual-time latency from a client reporting due work to its first
  /// grant.
  const obs::Histogram& reclaim(ClientId id) const {
    return clients_[id]->reclaim;
  }
  /// Pump timer firings.
  std::uint64_t wakes() const { return wakes_; }
  /// Firings counted on `id`: each firing counts on exactly one client —
  /// the first one served, or, when none is, the one whose due time armed
  /// the timer — so the per-client counts sum to wakes().
  const obs::Counter& wakes(ClientId id) const { return clients_[id]->wakes; }

  void set_grant_observer(GrantFn fn) { on_grant_ = std::move(fn); }

 private:
  static constexpr simnet::SimTime kIdle =
      std::numeric_limits<simnet::SimTime>::max();

  struct Client {
    /// Null once removed (or for a share that never has work); every
    /// other field of a null client is ignored.
    PumpClient* pump = nullptr;
    /// Earliest launchable time of the client's staged work (kIdle: none).
    simnet::SimTime due = kIdle;
    /// SFQ finish tag: advances 1 per grant; max(finish, vtime_) is the
    /// start tag arbitration compares.
    std::uint64_t finish = 0;
    /// Time the client reported due work; -1 when idle or already served.
    simnet::SimTime wanted_since = -1;
    obs::Counter grants;
    obs::Counter borrowed;
    obs::Counter wakes;
    obs::Histogram reclaim;
  };

  std::uint64_t start_tag(const Client& c) const {
    return c.finish > vtime_ ? c.finish : vtime_;
  }
  /// One timer firing: settle, grant every banked token in fair order,
  /// re-arm.
  void pump();
  /// Run `c`'s token-free step and store the due time it returns.
  void settle(Client& c, simnet::SimTime now);
  /// Arm the timer for the earliest client wake (or cancel it).
  void rearm();

  simnet::EventQueue& events_;
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
  std::uint64_t vtime_ = 0;
  std::vector<std::unique_ptr<Client>> clients_;
  GrantFn on_grant_;
  std::uint64_t wakes_ = 0;
  /// The client whose due time the armed deadline serves.
  ClientId armed_by_ = 0;
  /// The pump wake (declared last: destroyed first, so no firing can reach
  /// a half-destroyed budget).
  simnet::Timer timer_;
};

}  // namespace tts::scan
