#include "scan/budget.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tts::scan {

SharedBudget::SharedBudget(simnet::EventQueue& events,
                           SharedBudgetConfig config)
    : events_(events),
      config_(config),
      timer_(events, [this] { pump(); },
             events.register_category("scan_pump")) {
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
                                                PumpClient* client) {
  auto c = std::make_unique<Client>();
  c->pump = client;
  // Late joiners enter at the current virtual time, same as an idle->busy
  // transition: no retroactive claim on capacity spent before they existed.
  c->finish = vtime_;
  if (config_.registry) {
    obs::Labels labels{{"client", std::move(name)}};
    config_.registry->enroll(c->grants, "scan_budget_grants", labels,
                             c.get());
    config_.registry->enroll(c->borrowed, "scan_budget_borrowed_slots",
                             labels, c.get());
    config_.registry->enroll(c->reclaim, "scan_budget_reclaim_us",
                             std::move(labels), c.get());
  }
  clients_.push_back(std::move(c));
  return clients_.size() - 1;
}

void SharedBudget::remove_client(ClientId id) {
  Client& c = *clients_[id];
  c.pump = nullptr;
  if (config_.registry) config_.registry->drop_owner(&c);
  // The armed deadline may have served this client: re-arm for the rest.
  rearm();
}

void SharedBudget::report_due(ClientId id, std::optional<simnet::SimTime> due) {
  Client& c = *clients_[id];
  const simnet::SimTime now = events_.now();
  c.due = due.value_or(kIdle);
  if (c.due > now)
    c.wanted_since = -1;
  else if (c.wanted_since < 0)
    c.wanted_since = now;
  if (c.due == kIdle) return;
  // No oversleep for work that just arrived: wake at its first token.
  simnet::SimTime at = std::max(c.due, next_accrual_);
  if (timer_.armed() && timer_.deadline() <= at) return;
  timer_.arm(at);
  armed_by_ = id;
}

void SharedBudget::settle(Client& c, simnet::SimTime now) {
  c.due = c.pump->settle(now).value_or(kIdle);
  if (c.due > now) c.wanted_since = -1;
}

void SharedBudget::pump() {
  const simnet::SimTime now = events_.now();
  ++wakes_;
  // Clients with nothing due keep their reported time: their token-free
  // step has nothing to do before it.
  for (const auto& c : clients_)
    if (c->pump && c->due <= now) settle(*c, now);

  Client* counted = nullptr;
  const ClientId none = clients_.size();
  for (;;) {
    simnet::SimTime slot = std::max(next_accrual_, now - kBurstSlots * gap_);
    if (slot > now) break;  // the bank is empty
    // The smallest start tag among clients with work due wins the token
    // (ties: earliest registration). The smallest among idle clients says
    // whether the win borrows: it would have lost to an idle peer, whose
    // tag re-enters at vtime_, so it spends lent capacity.
    ClientId winner = none, idle = none;
    for (ClientId j = 0; j < clients_.size(); ++j) {
      const Client& c = *clients_[j];
      if (!c.pump) continue;
      ClientId& best = c.due <= now ? winner : idle;
      if (best == none || start_tag(c) < start_tag(*clients_[best])) best = j;
    }
    if (winner == none) break;  // nothing due
    Client& c = *clients_[winner];
    std::uint64_t start = start_tag(c);
    if (idle != none) {
      std::uint64_t theirs = start_tag(*clients_[idle]);
      if (theirs < start || (theirs == start && idle < winner))
        c.borrowed.inc();
    }
    frac_acc_ += frac_step_;
    next_accrual_ =
        slot + gap_ + static_cast<simnet::SimDuration>(frac_acc_ >> 32);
    frac_acc_ &= 0xffffffffULL;
    vtime_ = start;
    c.finish = start + 1;
    c.grants.inc();
    if (c.wanted_since >= 0) {
      c.reclaim.record(now - c.wanted_since);
      c.wanted_since = -1;
    }
    if (on_grant_) on_grant_(winner, slot, now);
    if (!counted) counted = &c;
    c.pump->launch(slot, now);
    settle(c, now);
  }
  (counted ? *counted : *clients_[armed_by_]).wakes.inc();
  rearm();
}

void SharedBudget::rearm() {
  // Work due at or after the next token wakes exactly then; work blocked
  // on tokens sleeps until the bank is full again, so one wake launches
  // kBurstSlots + 1 grants.
  const simnet::SimTime refilled = next_accrual_ + kBurstSlots * gap_;
  simnet::SimTime best = kIdle;
  for (ClientId j = 0; j < clients_.size(); ++j) {
    const Client& c = *clients_[j];
    if (!c.pump || c.due == kIdle) continue;
    simnet::SimTime at = c.due >= next_accrual_ ? c.due : refilled;
    if (at < best) {
      best = at;
      armed_by_ = j;
    }
  }
  if (best == kIdle)
    timer_.cancel();
  else
    timer_.arm(best);
}

}  // namespace tts::scan
