#include "simnet/route.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/flight.hpp"
#include "simnet/event_queue.hpp"

namespace tts::simnet {

RoutePlane::RoutePlane(RouteScenario scenario, obs::Registry* registry)
    : scenario_(std::move(scenario)), registry_(registry) {
  // Group the script per prefix, preserving first-appearance order so the
  // compiled tables are a pure function of the scenario, never of a hash.
  /// Keyed lookups only — never iterated.
  std::unordered_map<net::Ipv6Prefix, std::uint32_t, net::Ipv6PrefixHash>
      index_of;
  struct Scripted {
    SimTime effective;
    RouteOp op;
    std::size_t order;  // scenario position, the tie-break at equal times
  };
  std::vector<std::vector<Scripted>> per_route;
  std::vector<PrefixIndex::Entry> entries;  // (prefix, index into routes_)
  for (std::size_t i = 0; i < scenario_.events.size(); ++i) {
    const RouteEvent& ev = scenario_.events[i];
    auto [it, inserted] = index_of.try_emplace(
        ev.prefix, static_cast<std::uint32_t>(routes_.size()));
    if (inserted) {
      entries.emplace_back(ev.prefix, it->second);
      routes_.push_back(Route{ev.prefix, {}});
      per_route.emplace_back();
    }
    // Overflow-safe effective time: an origination near the horizon of
    // representable time saturates instead of wrapping.
    SimTime effective = ev.at > kRouteForever - scenario_.convergence
                            ? kRouteForever
                            : ev.at + scenario_.convergence;
    per_route[it->second].push_back(Scripted{effective, ev.op, i});
  }

  index_ = PrefixIndex(std::move(entries));

  // Compile each prefix's events into sorted, non-overlapping down-windows.
  // Prefixes start announced; redundant events (withdraw while down,
  // announce while up) change nothing and are dropped.
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    std::vector<Scripted>& script = per_route[r];
    std::sort(script.begin(), script.end(),
              [](const Scripted& a, const Scripted& b) {
                if (a.effective != b.effective)
                  return a.effective < b.effective;
                return a.order < b.order;
              });
    bool down = false;
    for (const Scripted& ev : script) {
      if (ev.op == RouteOp::kWithdraw && !down) {
        down = true;
        routes_[r].down.push_back(DownWindow{ev.effective, kRouteForever});
      } else if (ev.op == RouteOp::kAnnounce && down) {
        down = false;
        routes_[r].down.back().until = ev.effective;
        // A zero-width window (announce converging at the same instant as
        // the withdraw) never blackholes anything and commits nothing.
        if (routes_[r].down.back().until == routes_[r].down.back().from)
          routes_[r].down.pop_back();
      }
    }
  }

  // Every down-window edge is one committed transition; ordered by
  // (effective, route) so same-instant commits across prefixes run in
  // first-appearance order.
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    for (const DownWindow& w : routes_[r].down) {
      if (w.from < kRouteForever)
        transitions_.push_back(Transition{
            w.from, static_cast<std::uint32_t>(r), RouteOp::kWithdraw});
      if (w.until < kRouteForever)
        transitions_.push_back(Transition{
            w.until, static_cast<std::uint32_t>(r), RouteOp::kAnnounce});
    }
  }
  std::sort(transitions_.begin(), transitions_.end(),
            [](const Transition& a, const Transition& b) {
              if (a.effective != b.effective) return a.effective < b.effective;
              return a.route < b.route;
            });

  if (!registry_) return;
  registry_->enroll(withdrawals_, "route_withdrawals", {}, this);
  registry_->enroll(announcements_, "route_announcements", {}, this);
  registry_->enroll(blackholed_, "route_blackholed", {}, this);
}

RoutePlane::~RoutePlane() {
  if (registry_) registry_->drop_owner(this);
}

void RoutePlane::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_ = recorder;
  if (!flight_) return;
  withdraw_note_ = flight_->note("withdraw");
  announce_note_ = flight_->note("announce");
}

bool RoutePlane::withdrawn_scripted(const net::Ipv6Address& dst,
                                    SimTime now) const {
  std::span<const std::uint32_t> route = index_.longest(dst);
  if (route.empty()) return false;  // one route per prefix: route[0]
  const std::vector<DownWindow>& down = routes_[route[0]].down;
  auto it = std::upper_bound(down.begin(), down.end(), now,
                             [](SimTime t, const DownWindow& w) {
                               return t < w.from;
                             });
  if (it == down.begin()) return false;
  --it;  // the last window with from <= now
  return now < it->until;
}

void RoutePlane::arm(EventQueue& events) {
  if (armed_ || transitions_.empty()) return;
  armed_ = true;
  EventQueue::CategoryId cat = events.register_category("route");
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    // The domain-0 event marks the effective instant; the state the rest
    // of the stack reacts to flips at the next window barrier, when every
    // domain is quiescent.
    events.schedule_on(0, transitions_[i].effective, cat,
                       [this, &events, i] {
                         events.run_at_barrier([this, i] { commit(i); });
                       });
  }
}

void RoutePlane::commit(std::size_t index) {
  const Transition& t = transitions_[index];
  const net::Ipv6Prefix& prefix = routes_[t.route].prefix;
  bool withdraw = t.op == RouteOp::kWithdraw;
  if (withdraw)
    withdrawals_.inc();
  else
    announcements_.inc();
  if (flight_)
    flight_->record(withdraw ? obs::FlightKind::kRouteWithdrawn
                             : obs::FlightKind::kRouteAnnounced,
                    withdraw ? withdraw_note_ : announce_note_, /*trace=*/0,
                    static_cast<std::int64_t>(prefix.address().hi64()),
                    static_cast<std::int64_t>(prefix.address().lo64()));
  for (const TransitionFn& fn : subscribers_) fn(prefix, t.op, t.effective);
}

}  // namespace tts::simnet
