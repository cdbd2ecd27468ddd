// RoutePlane: scripted down-window compilation (convergence delay,
// redundant-event dropping, zero-width windows), longest-prefix-match
// shadowing, barrier-committed transitions (counters, subscribers, flight
// events) and the Network integration (UDP blackhole, TCP connect timeout,
// verdict precedence over the fault plane).
#include <gtest/gtest.h>

#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "simnet/route.hpp"

namespace tts::simnet {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_halves(hi, lo);
}

constexpr std::uint64_t kAsNet = 0x20010db800000000ULL;
constexpr std::uint64_t kOtherNet = 0x2400cb0000000000ULL;

net::Ipv6Prefix as_prefix() { return net::Ipv6Prefix(addr(kAsNet, 0), 32); }
net::Ipv6Prefix site_prefix() {
  // A /48 inside the /32 (site bits live in the third 16-bit group).
  return net::Ipv6Prefix(addr(kAsNet | 0x00420000ULL, 0), 48);
}

TEST(RoutePlane, DownWindowFollowsConvergenceDelay) {
  RouteScenario scenario;
  scenario.convergence = sec(30);
  scenario.withdraw(as_prefix(), sec(10));   // effective at 40
  scenario.announce(as_prefix(), sec(50));   // effective at 80
  RoutePlane plane(std::move(scenario), nullptr);

  auto target = addr(kAsNet, 7);
  EXPECT_FALSE(plane.withdrawn(target, sec(39)));
  EXPECT_TRUE(plane.withdrawn(target, sec(40)));   // from is inclusive
  EXPECT_TRUE(plane.withdrawn(target, sec(79)));
  EXPECT_FALSE(plane.withdrawn(target, sec(80)));  // until is exclusive
  EXPECT_EQ(plane.transition_count(), 2u);
}

TEST(RoutePlane, UnscriptedSpaceIsAlwaysRouted) {
  RouteScenario scenario;
  scenario.withdraw(as_prefix(), 0);
  RoutePlane plane(std::move(scenario), nullptr);

  EXPECT_TRUE(plane.withdrawn(addr(kAsNet, 1), sec(60)));
  EXPECT_FALSE(plane.withdrawn(addr(kOtherNet, 1), sec(60)));
}

TEST(RoutePlane, MoreSpecificScriptedPrefixShadowsCoveringWithdrawal) {
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(10));
  // The /48 is scripted (so it exists in the LPM trie) but only goes down
  // much later: while the covering /32 is withdrawn, the /48's addresses
  // stay reachable — standard longest-prefix-match semantics.
  scenario.withdraw(site_prefix(), sec(1000));
  RoutePlane plane(std::move(scenario), nullptr);

  auto inside_site = addr(kAsNet | 0x00420000ULL, 5);
  auto outside_site = addr(kAsNet | 0x00990000ULL, 5);
  EXPECT_TRUE(plane.withdrawn(outside_site, sec(20)));
  EXPECT_FALSE(plane.withdrawn(inside_site, sec(20)));
  EXPECT_TRUE(plane.withdrawn(inside_site, sec(1000)));
}

TEST(RoutePlane, RedundantEventsAreDropped) {
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(10));
  scenario.withdraw(as_prefix(), sec(20));   // already down: dropped
  scenario.announce(as_prefix(), sec(30));
  scenario.announce(as_prefix(), sec(40));   // already up: dropped
  RoutePlane plane(std::move(scenario), nullptr);

  EXPECT_EQ(plane.transition_count(), 2u);
  EXPECT_TRUE(plane.withdrawn(addr(kAsNet, 1), sec(25)));
  EXPECT_FALSE(plane.withdrawn(addr(kAsNet, 1), sec(35)));
}

TEST(RoutePlane, ZeroWidthWindowCommitsNothing) {
  RouteScenario scenario;
  scenario.convergence = sec(30);
  scenario.withdraw(as_prefix(), sec(10));  // both effective at 40
  scenario.announce(as_prefix(), sec(10));
  RoutePlane plane(std::move(scenario), nullptr);

  EXPECT_EQ(plane.transition_count(), 0u);
  EXPECT_FALSE(plane.withdrawn(addr(kAsNet, 1), sec(40)));
}

TEST(RoutePlane, BlackholesCountsDataPathKills) {
  obs::Registry registry;
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(10));
  RoutePlane plane(std::move(scenario), &registry);

  EXPECT_FALSE(plane.blackholes(addr(kAsNet, 1), sec(5)));
  EXPECT_TRUE(plane.blackholes(addr(kAsNet, 1), sec(15)));
  EXPECT_TRUE(plane.blackholes(addr(kAsNet, 2), sec(20)));
  EXPECT_EQ(plane.blackholed(), 2u);
  auto snapshot = registry.snapshot(0);
  const obs::SnapshotValue* cell = snapshot.find("route_blackholed");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 2u);
}

TEST(RoutePlane, ArmedTransitionsCommitCountersSubscribersAndFlight) {
  EventQueue events;
  obs::Tracer tracer;
  tracer.set_sim_clock(&events);
  obs::FlightRecorder flight(tracer);
  RouteScenario scenario;
  scenario.convergence = sec(30);
  scenario.withdraw(as_prefix(), sec(10));   // effective 40
  scenario.announce(as_prefix(), sec(50));   // effective 80
  RoutePlane plane(std::move(scenario), nullptr);
  plane.set_flight_recorder(&flight);

  std::vector<std::pair<RouteOp, SimTime>> seen;
  plane.subscribe([&](const net::Ipv6Prefix& prefix, RouteOp op,
                      SimTime effective) {
    EXPECT_EQ(prefix, as_prefix());
    seen.emplace_back(op, effective);
  });
  plane.arm(events);
  events.run();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, RouteOp::kWithdraw);
  EXPECT_EQ(seen[0].second, sec(40));
  EXPECT_EQ(seen[1].first, RouteOp::kAnnounce);
  EXPECT_EQ(seen[1].second, sec(80));
  EXPECT_EQ(plane.withdrawals(), 1u);
  EXPECT_EQ(plane.announcements(), 1u);

  int withdrawn_events = 0, announced_events = 0;
  for (const obs::FlightEvent& ev : flight.events()) {
    if (ev.kind == obs::FlightKind::kRouteWithdrawn) ++withdrawn_events;
    if (ev.kind == obs::FlightKind::kRouteAnnounced) ++announced_events;
  }
  EXPECT_EQ(withdrawn_events, 1);
  EXPECT_EQ(announced_events, 1);
}

// ------------------------------------------------- network integration

class RouteNetworkTest : public ::testing::Test {
 protected:
  RouteNetworkTest() : network_(events_, config()) {}
  static NetworkConfig config() {
    NetworkConfig c;
    c.min_latency = msec(10);
    c.max_latency = msec(20);
    c.jitter = 0;
    c.connect_timeout = sec(3);
    return c;
  }

  EventQueue events_;
  Network network_;
};

TEST_F(RouteNetworkTest, UdpIntoWithdrawnSpaceVanishesAndReturns) {
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(10));
  scenario.announce(as_prefix(), sec(20));
  network_.install_routes(std::move(scenario));

  int delivered = 0;
  network_.bind_udp({addr(kAsNet, 1), 123},
                    [&](const Datagram&) { ++delivered; });
  auto send = [&] {
    network_.send_udp({addr(kOtherNet, 2), 1}, {addr(kAsNet, 1), 123},
                      std::vector<std::uint8_t>{1});
  };
  send();                                // before the withdrawal: delivered
  events_.schedule_at(sec(15), send);    // during: blackholed
  events_.schedule_at(sec(25), send);    // after re-announce: delivered
  events_.run();

  EXPECT_EQ(delivered, 2);
  ASSERT_NE(network_.routes(), nullptr);
  EXPECT_EQ(network_.routes()->blackholed(), 1u);
  EXPECT_EQ(network_.routes()->withdrawals(), 1u);
  EXPECT_EQ(network_.routes()->announcements(), 1u);
}

TEST_F(RouteNetworkTest, TcpConnectIntoWithdrawnSpaceTimesOut) {
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), 0);
  network_.install_routes(std::move(scenario));
  network_.attach(addr(kAsNet, 1));
  network_.listen_tcp({addr(kAsNet, 1), 80}, [](TcpConnectionPtr) {});

  bool called = false;
  network_.connect_tcp({addr(kOtherNet, 2), 1}, {addr(kAsNet, 1), 80},
                       [&](TcpConnectionPtr conn, bool refused) {
                         called = true;
                         EXPECT_EQ(conn, nullptr);
                         EXPECT_FALSE(refused);  // timeout, not RST
                       });
  events_.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(events_.now(), sec(3));  // the configured connect_timeout
}

TEST_F(RouteNetworkTest, RouteVerdictPrecedesFaultRules) {
  // An inbound loss rule on the same prefix: while the route is withdrawn
  // the fault plane must never see (or count, or draw for) the packet.
  FaultScenario faults;
  faults.rules.push_back({.prefix = as_prefix(),
                          .kind = FaultKind::kLoss,
                          .probability = 1.0});
  network_.install_faults(std::move(faults));
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), 0);
  network_.install_routes(std::move(scenario));

  network_.send_udp({addr(kOtherNet, 2), 1}, {addr(kAsNet, 1), 123},
                    std::vector<std::uint8_t>{1});
  events_.run();
  EXPECT_EQ(network_.routes()->blackholed(), 1u);
  EXPECT_EQ(network_.faults()->udp_dropped(), 0u);
}

TEST_F(RouteNetworkTest, SubscriptionsBeforeInstallAreBuffered) {
  int calls = 0;
  network_.subscribe_routes(
      [&](const net::Ipv6Prefix&, RouteOp, SimTime) { ++calls; });
  RouteScenario scenario;
  scenario.convergence = 0;
  scenario.withdraw(as_prefix(), sec(5));
  network_.install_routes(std::move(scenario));
  events_.run();
  EXPECT_EQ(calls, 1);
}

TEST_F(RouteNetworkTest, WithoutAPlaneEverythingIsRouted) {
  EXPECT_EQ(network_.routes(), nullptr);
  EXPECT_FALSE(network_.route_withdrawn(addr(kAsNet, 1), sec(1)));
}

}  // namespace
}  // namespace tts::simnet
