// Deterministic, scenario-scripted BGP-style reachability plane.
//
// A RouteScenario is a declarative script of announce/withdraw events over
// IPv6 prefixes (whole-AS /32s or any more-specific prefix) at sim times;
// each event takes effect one modeled `convergence` delay after its
// scripted origination, exactly as a real withdrawal/announcement needs to
// propagate before transit stops (or resumes) carrying packets. Network
// consults the installed RoutePlane *before* the FaultPlane on every UDP
// send and TCP connect — verdict precedence is route -> outage -> rules —
// and a destination whose longest-matching scripted prefix is withdrawn is
// blackholed: datagrams vanish, connects time out.
//
// Reachability is a pure function of (destination, now): all scripted
// events compile at construction into per-prefix sorted down-windows,
// found through a read-only PrefixIndex (one hash probe per distinct
// scripted prefix length, behind a top-16-bit coverage bit), so the
// data-path verdict takes no locks and draws no randomness, making it safe
// to evaluate from any shard executor and bit-identical at every shard
// count. A more-specific scripted prefix shadows a covering one (an
// announced /48 keeps its addresses reachable while the surrounding /32 is
// down) — standard LPM semantics: the longest covering entry decides.
//
// Control-plane *transitions* — the moments the adaptive stack reacts to —
// commit at window barriers: arm() schedules one domain-0 event per
// effective transition whose barrier commit bumps the route_* counters,
// records a typed FlightRecorder event, and invokes subscribers (scan
// engines re-staging quarantined targets, the pool monitor re-scoring
// servers). Barrier sequences are a pure function of simulation content,
// so sharded runs stay bit-identical at shard counts 1/2/4.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "net/ipv6.hpp"
#include "obs/metrics.hpp"
#include "simnet/prefix_index.hpp"
#include "simnet/time.hpp"

namespace tts::obs {
class FlightRecorder;
}

namespace tts::simnet {

class EventQueue;

enum class RouteOp : std::uint8_t {
  kWithdraw,  ///< the prefix drops out of the global table
  kAnnounce,  ///< the prefix is (re-)announced and converges back
};

/// A withdraw that is never re-announced keeps its prefix down forever.
inline constexpr SimTime kRouteForever = std::numeric_limits<SimTime>::max();

/// One scripted routing event. `at` is the origination instant; the data
/// plane flips at `at + convergence` (the scenario-wide modeled BGP
/// propagation delay).
struct RouteEvent {
  net::Ipv6Prefix prefix;
  RouteOp op = RouteOp::kWithdraw;
  SimTime at = 0;
};

struct RouteScenario {
  std::vector<RouteEvent> events;
  /// Modeled convergence delay between an event's origination and the
  /// moment transit actually stops (or resumes) forwarding.
  SimDuration convergence = sec(30);

  void withdraw(const net::Ipv6Prefix& prefix, SimTime at) {
    events.push_back(RouteEvent{prefix, RouteOp::kWithdraw, at});
  }
  void announce(const net::Ipv6Prefix& prefix, SimTime at) {
    events.push_back(RouteEvent{prefix, RouteOp::kAnnounce, at});
  }
  bool empty() const { return events.empty(); }
};

class RoutePlane {
 public:
  /// Transition observer, invoked from the barrier commit of each
  /// effective transition. `effective` is the scripted flip instant (the
  /// commit itself runs at the following barrier), so staging decisions
  /// keyed on it are shard-count-invariant.
  using TransitionFn = std::function<void(
      const net::Ipv6Prefix& prefix, RouteOp op, SimTime effective)>;

  /// Instruments enroll into `registry` (may be null) under route_* names;
  /// the registry must outlive the plane. Redundant scripted events (a
  /// withdraw of an already-down prefix, an announce of a live one) are
  /// dropped here: only state-changing transitions are kept and counted.
  RoutePlane(RouteScenario scenario, obs::Registry* registry);
  ~RoutePlane();
  RoutePlane(const RoutePlane&) = delete;
  RoutePlane& operator=(const RoutePlane&) = delete;

  /// Pure reachability query: true when `dst`'s longest-matching scripted
  /// prefix is inside a down-window at `now`. Unscripted space is always
  /// routed. Lock-free and draw-free — callable from any shard executor.
  /// Inline fast path: scripted space is a sliver of the address space, so
  /// almost every query resolves "routed" on the index's coverage bit test
  /// (the send/connect hot path pays no call and no table probe for it).
  bool withdrawn(const net::Ipv6Address& dst, SimTime now) const {
    if (!index_.may_cover(dst)) return false;
    return withdrawn_scripted(dst, now);
  }

  /// Data-path verdict: withdrawn(), plus one route_blackholed count when
  /// the packet dies. Call exactly once per datagram / connect attempt.
  bool blackholes(const net::Ipv6Address& dst, SimTime now) {
    if (!withdrawn(dst, now)) return false;
    blackholed_.inc();
    return true;
  }

  /// Schedule the barrier commits for every effective transition on
  /// `events` (domain 0, category "route"). Call once, at setup time;
  /// `events` must outlive the plane.
  void arm(EventQueue& events);

  /// Register a transition observer (setup-time only — before events run).
  void subscribe(TransitionFn fn) { subscribers_.push_back(std::move(fn)); }

  /// Report every committed transition to `recorder` as
  /// FlightKind::kRouteWithdrawn / kRouteAnnounced (a/b = prefix address
  /// halves); a withdrawal-burst trigger on the recorder then dumps
  /// context during route flaps. nullptr detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  const RouteScenario& scenario() const { return scenario_; }
  /// Effective (state-changing) transitions compiled from the scenario.
  std::size_t transition_count() const { return transitions_.size(); }

  std::uint64_t withdrawals() const { return withdrawals_.value(); }
  std::uint64_t announcements() const { return announcements_.value(); }
  std::uint64_t blackholed() const { return blackholed_.value(); }

 private:
  /// Down while from <= now < until.
  struct DownWindow {
    SimTime from = 0;
    SimTime until = kRouteForever;
  };
  struct Route {
    net::Ipv6Prefix prefix;
    std::vector<DownWindow> down;  // sorted, non-overlapping
  };
  /// One effective transition, in (effective, route) order.
  struct Transition {
    SimTime effective = 0;
    std::uint32_t route = 0;  // index into routes_
    RouteOp op = RouteOp::kWithdraw;
  };

  /// Commit transition `index`: count it, record the flight event, invoke
  /// subscribers. Mutates cross-domain-read reaction state downstream, so
  /// it must run between windows.
  // ttslint: barrier_only
  void commit(std::size_t index);

  /// Slow half of withdrawn(): longest match + down-window probe, reached
  /// only when the coverage bit says some scripted prefix may cover `dst`.
  bool withdrawn_scripted(const net::Ipv6Address& dst, SimTime now) const;

  RouteScenario scenario_;
  std::vector<Route> routes_;  // first-appearance order (deterministic)
  /// Scripted prefixes; each entry's id is its route's index into routes_.
  PrefixIndex index_;
  std::vector<Transition> transitions_;
  std::vector<TransitionFn> subscribers_;
  obs::Registry* registry_;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint32_t withdraw_note_ = 0;
  std::uint32_t announce_note_ = 0;
  bool armed_ = false;

  obs::Counter withdrawals_;    // transitions to down, at commit
  obs::Counter announcements_;  // transitions back to routed, at commit
  obs::Counter blackholed_;     // packets/connects killed on the data path
};

}  // namespace tts::simnet
