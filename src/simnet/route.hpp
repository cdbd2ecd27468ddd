// The route part of a scripted impairment scenario: BGP-style
// reachability.
//
// A RouteScenario is a declarative script of announce/withdraw events over
// IPv6 prefixes (whole-AS /32s or any more-specific prefix) at sim times;
// each event takes effect one modeled `convergence` delay after its
// scripted origination, exactly as a real withdrawal/announcement needs to
// propagate before transit stops (or resumes) carrying packets. A
// destination whose longest-matching scripted prefix is withdrawn is
// blackholed: datagrams vanish, connects time out. A more-specific
// scripted prefix shadows a covering one (an announced /48 keeps its
// addresses reachable while the surrounding /32 is down). The route part
// is checked first in simnet::ImpairmentPlane's verdict (route -> outage
// -> rules; see simnet/impairment.hpp) and draws no randomness.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/ipv6.hpp"
#include "simnet/time.hpp"

namespace tts::simnet {

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

/// The impairment plane, named for callers that use its route part.
class ImpairmentPlane;
using RoutePlane = ImpairmentPlane;

}  // namespace tts::simnet

// The plane itself, so this header keeps giving its includers the whole
// RoutePlane API.
#include "simnet/impairment.hpp"
