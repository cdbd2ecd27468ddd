#include "scan/budget.hpp"

#include <cmath>
#include <stdexcept>

namespace tts::scan {

SharedBudget::SharedBudget(SharedBudgetConfig config)
    : config_(config) {
  if (!(config_.max_pps > 0))
    throw std::invalid_argument("SharedBudget: max_pps must be positive");
  double exact = 1e6 / config_.max_pps;
  auto gap = static_cast<simnet::SimDuration>(exact);
  gap_ = gap < 1 ? 1 : gap;
  // The fractional part of the exact gap, in 2^-32 us units. Truncating
  // the gap to whole microseconds overshoots the cap (max_pps=4096 ->
  // 244 us = 4098.4 pps); the integer error-feedback accumulator below
  // stretches every 2^32/frac_step_-th step by 1 us so the long-run rate
  // is exactly max_pps, with no floats in the steady state. Exact-divisor
  // rates have frac_step_ == 0 and byte-identical grant sequences.
  if (exact > static_cast<double>(gap_)) {
    double frac = exact - static_cast<double>(gap_);
    auto step = static_cast<std::uint64_t>(
        std::llround(frac * 4294967296.0));  // 2^32
    if (step >= (1ULL << 32)) {
      ++gap_;
      step = 0;
    }
    frac_step_ = step;
  }
}

SharedBudget::~SharedBudget() {
  if (config_.registry)
    for (const auto& c : clients_) config_.registry->drop_owner(c.get());
}

SharedBudget::ClientId SharedBudget::add_client(std::string name,
                                                double weight, WakeFn wake) {
  if (!(weight > 0) || !std::isfinite(weight))
    throw std::invalid_argument(
        "SharedBudget: client weight must be positive and finite");
  auto client = std::make_unique<Client>();
  client->name = std::move(name);
  client->weight = weight;
  client->wake = std::move(wake);
  client->active = true;
  // Late joiners enter at the current virtual time, same as an idle->busy
  // transition: no retroactive claim on capacity spent before they existed.
  client->finish = vtime_;
  if (config_.registry) {
    obs::Labels labels{{"client", client->name}};
    config_.registry->enroll(client->grants, "scan_budget_grants", labels,
                             client.get());
    config_.registry->enroll(client->borrowed, "scan_budget_borrowed_slots",
                             labels, client.get());
    config_.registry->enroll(client->reclaim, "scan_budget_reclaim_us",
                             std::move(labels), client.get());
  }
  clients_.push_back(std::move(client));
  return clients_.size() - 1;
}

void SharedBudget::remove_client(ClientId id) {
  Client& c = *clients_[id];
  if (!c.active) return;
  c.active = false;
  c.backlogged = false;
  c.wanted_since = -1;
  if (config_.registry) config_.registry->drop_owner(&c);
  wake_waiting_peers(id);
}

void SharedBudget::set_backlog(ClientId id, bool backlogged,
                               simnet::SimTime now) {
  Client& c = *clients_[id];
  if (backlogged && !c.backlogged) c.wanted_since = now;
  if (!backlogged) c.wanted_since = -1;
  bool was = c.backlogged;
  c.backlogged = backlogged;
  // A drained client frees its share immediately: peers armed for a
  // contended (later) slot can now claim the next token.
  if (was && !backlogged) wake_waiting_peers(id);
}

bool SharedBudget::deferred_to_peer(ClientId id) const {
  double mine = start_tag(*clients_[id]);
  for (ClientId j = 0; j < clients_.size(); ++j) {
    if (j == id) continue;
    const Client& peer = *clients_[j];
    if (!peer.active || !peer.backlogged) continue;
    double theirs = start_tag(peer);
    if (theirs < mine || (theirs == mine && j < id)) return true;
  }
  return false;
}

std::optional<simnet::SimTime> SharedBudget::try_acquire(ClientId id,
                                                         simnet::SimTime now) {
  Client& c = *clients_[id];
  simnet::SimTime bank_floor = now - kBurstSlots * gap_;
  simnet::SimTime slot =
      next_accrual_ > bank_floor ? next_accrual_ : bank_floor;
  if (slot > now) return std::nullopt;  // next token not accrued yet
  if (deferred_to_peer(id)) return std::nullopt;

  double start = start_tag(c);
  // Borrowing: this grant would have lost the arbitration to an idle peer
  // (whose tag re-enters at vtime_) — i.e. it consumes lent capacity
  // beyond the contended fair share.
  bool peer_idle = false;
  for (ClientId j = 0; j < clients_.size(); ++j) {
    if (j == id) continue;
    const Client& peer = *clients_[j];
    if (!peer.active || peer.backlogged) continue;
    double theirs = start_tag(peer);
    if (theirs < start || (theirs == start && j < id)) peer_idle = true;
  }

  frac_acc_ += frac_step_;
  next_accrual_ =
      slot + gap_ + static_cast<simnet::SimDuration>(frac_acc_ >> 32);
  frac_acc_ &= 0xffffffffULL;
  vtime_ = start;
  c.finish = start + 1.0 / c.weight;
  c.grants.inc();
  if (peer_idle) c.borrowed.inc();
  if (c.wanted_since >= 0) {
    c.reclaim.record(now - c.wanted_since);
    c.wanted_since = -1;
  }
  if (on_grant_) on_grant_(id, slot, now);
  return slot;
}

simnet::SimTime SharedBudget::next_slot(ClientId id, simnet::SimTime now) const {
  simnet::SimTime bank_floor = now - kBurstSlots * gap_;
  simnet::SimTime accrue =
      next_accrual_ > bank_floor ? next_accrual_ : bank_floor;
  simnet::SimTime at = accrue > now ? accrue : now;
  // Deferred to a peer: its grant(s) advance the virtual time; retry one
  // gap later (the peer is backlogged, hence armed and consuming).
  if (deferred_to_peer(id)) at += gap_;
  return at;
}

simnet::SimTime SharedBudget::suggested_wake(ClientId id,
                                             simnet::SimTime now) const {
  simnet::SimTime at = next_slot(id, now);
  for (ClientId j = 0; j < clients_.size(); ++j) {
    if (j == id) continue;
    const Client& peer = *clients_[j];
    if (peer.active && peer.backlogged) return at;  // contended: no slack
  }
  // Uncontended: oversleep by the bank and launch the batch in one wake.
  return at + kBurstSlots * gap_;
}

void SharedBudget::wake_waiting_peers(ClientId except) {
  for (ClientId j = 0; j < clients_.size(); ++j) {
    if (j == except) continue;
    Client& peer = *clients_[j];
    if (peer.active && peer.backlogged && peer.wake) peer.wake();
  }
}

}  // namespace tts::scan
