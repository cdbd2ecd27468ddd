#include "scan/retry.hpp"

#include <algorithm>
#include <cmath>

namespace tts::scan {

simnet::SimDuration RetryPolicy::backoff(std::uint32_t retry_index,
                                         util::Rng& rng) const {
  // retry_index is 1-based; treat a (buggy-caller) 0 like the first retry
  // instead of letting the unsigned underflow produce
  // pow(multiplier, 4.29e9) = inf.
  std::uint32_t exponent = retry_index > 0 ? retry_index - 1 : 0;
  double scale = std::pow(multiplier, static_cast<double>(exponent));
  auto base = static_cast<simnet::SimDuration>(
      std::min(static_cast<double>(max_backoff),
               static_cast<double>(base_backoff) * scale));
  base = std::clamp<simnet::SimDuration>(base, 0, max_backoff);
  if (jitter <= 0.0 || base == 0) return base;
  auto spread = static_cast<std::uint64_t>(static_cast<double>(base) * jitter);
  if (spread == 0) return base;
  // The cap bounds the effective delay: clamp after jitter, or a base at
  // or near max_backoff would overshoot the cap by up to jitter x.
  auto jittered = base + static_cast<simnet::SimDuration>(rng.below(spread));
  return std::min(jittered, max_backoff);
}

CircuitBreakerSet::CircuitBreakerSet(BreakerConfig config)
    : config_(config) {}

void CircuitBreakerSet::enroll(obs::Registry& registry,
                               const obs::Labels& labels, const void* owner) {
  registry.enroll(opens_, "scan_breaker_opens", labels, owner);
  registry.enroll(closes_, "scan_breaker_closes", labels, owner);
  registry.enroll(half_opens_, "scan_breaker_half_opens", labels, owner);
  registry.enroll(shed_, "scan_breaker_shed", labels, owner);
  registry.enroll(tripped_gauge_, "scan_breaker_tripped_prefixes", labels,
                  owner);
}

CircuitBreakerSet::State CircuitBreakerSet::state(
    const net::Ipv6Address& target) const {
  auto it = by_prefix_.find(key_of(target));
  return it == by_prefix_.end() ? State::kClosed : it->second.state;
}

bool CircuitBreakerSet::would_admit(const net::Ipv6Address& target,
                                    simnet::SimTime now) const {
  auto it = by_prefix_.find(key_of(target));
  if (it == by_prefix_.end()) return true;
  const Breaker& b = it->second;
  switch (b.state) {
    case State::kClosed:
      return true;
    case State::kOpen:
      // Past the cool-down the breaker will half-open on the next launch;
      // admit iff a trial slot would be free.
      return now >= b.open_until;
    case State::kHalfOpen:
      return b.trials_in_flight < kHalfOpenProbes;
  }
  return true;
}

void CircuitBreakerSet::note_launch(const net::Ipv6Address& target,
                                    simnet::SimTime now) {
  net::Ipv6Address key = key_of(target);
  auto it = by_prefix_.find(key);
  if (it == by_prefix_.end()) return;
  Breaker& b = it->second;
  if (b.state == State::kOpen && now >= b.open_until) {
    b.state = State::kHalfOpen;
    b.trials_in_flight = 0;
    half_opens_.inc();
    notify(key, State::kOpen, State::kHalfOpen, now);
  }
  if (b.state == State::kHalfOpen) ++b.trials_in_flight;
}

void CircuitBreakerSet::open(const net::Ipv6Address& prefix, Breaker& b,
                             simnet::SimTime now) {
  State from = b.state;
  if (b.state == State::kClosed) tripped_gauge_.add(1);
  b.state = State::kOpen;
  b.open_until = now + config_.open_for;
  b.trials_in_flight = 0;
  b.timeout_streak = 0;
  opens_.inc();
  notify(prefix, from, State::kOpen, now);
}

void CircuitBreakerSet::on_outcome(const net::Ipv6Address& target,
                                   bool conclusive, simnet::SimTime now) {
  net::Ipv6Address key = key_of(target);
  if (conclusive) {
    auto it = by_prefix_.find(key);
    if (it == by_prefix_.end()) return;
    Breaker& b = it->second;
    b.timeout_streak = 0;
    if (b.trials_in_flight > 0) --b.trials_in_flight;
    if (b.state != State::kClosed) {
      // The prefix answered: whatever state the breaker was in, it closes.
      State from = b.state;
      b.state = State::kClosed;
      tripped_gauge_.add(-1);
      closes_.inc();
      notify(key, from, State::kClosed, now);
    }
    return;
  }
  Breaker& b = by_prefix_[key];
  if (b.trials_in_flight > 0) --b.trials_in_flight;
  switch (b.state) {
    case State::kClosed:
      if (++b.timeout_streak >= config_.open_after) open(key, b, now);
      break;
    case State::kHalfOpen:
      // The trial probe also went unanswered: back to open, fresh cool-down.
      open(key, b, now);
      break;
    case State::kOpen:
      // A straggler from before the trip; the cool-down already runs.
      break;
  }
}

}  // namespace tts::scan
