// FaultPlane rule matching and its integration into Network: loss/delay/
// blackhole/RST/stall rules, host outages, time windows, transport,
// direction and destination-port scoping, the domain-RNG aliasing guard,
// window-edge flight events, and the NetworkConfig connect_timeout
// plumbing the blackhole path uses.
#include <gtest/gtest.h>

#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fault.hpp"
#include "simnet/network.hpp"

namespace tts::simnet {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_halves(hi, lo);
}

constexpr std::uint64_t kFaultyNet = 0x20010db800000000ULL;
constexpr std::uint64_t kCleanNet = 0x2400cb0000000000ULL;

net::Ipv6Prefix faulty_prefix() {
  return net::Ipv6Prefix(addr(kFaultyNet, 0), 32);
}

class FaultPlaneTest : public ::testing::Test {
 protected:
  FaultPlane make_plane(FaultScenario scenario) {
    return FaultPlane(std::move(scenario), nullptr);
  }
};

TEST_F(FaultPlaneTest, LossRuleDropsOnlyInsidePrefix) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kLoss,
                            .probability = 1.0});
  FaultPlane plane = make_plane(scenario);

  EXPECT_TRUE(plane.on_udp(addr(kFaultyNet, 7), sec(1)).drop);
  EXPECT_FALSE(plane.on_udp(addr(kCleanNet, 7), sec(1)).drop);
  EXPECT_EQ(plane.udp_dropped(), 1u);
}

TEST_F(FaultPlaneTest, RulesRespectTimeWindows) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .from = sec(10),
                            .until = sec(20)});
  FaultPlane plane = make_plane(scenario);

  auto target = addr(kFaultyNet, 1);
  EXPECT_FALSE(plane.on_udp(target, sec(9)).drop);
  EXPECT_TRUE(plane.on_udp(target, sec(10)).drop);   // from is inclusive
  EXPECT_TRUE(plane.on_udp(target, sec(19)).drop);
  EXPECT_FALSE(plane.on_udp(target, sec(20)).drop);  // until is exclusive
}

TEST_F(FaultPlaneTest, TransportScopingSplitsUdpFromTcp) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .udp = false,
                            .tcp = true});
  FaultPlane plane = make_plane(scenario);

  auto target = addr(kFaultyNet, 1);
  EXPECT_FALSE(plane.on_udp(target, 0).drop);
  EXPECT_EQ(plane.on_tcp_connect(target, 0).action,
            FaultPlane::TcpAction::kBlackhole);
}

TEST_F(FaultPlaneTest, DelayRulesAccumulateAcrossMatches) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kDelay,
                            .added_latency = msec(30)});
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kDelay,
                            .added_latency = msec(20)});
  FaultPlane plane = make_plane(scenario);

  auto verdict = plane.on_udp(addr(kFaultyNet, 1), 0);
  EXPECT_FALSE(verdict.drop);
  EXPECT_EQ(verdict.extra_latency, msec(50));
  EXPECT_EQ(plane.delays_injected(), 1u);
}

TEST_F(FaultPlaneTest, JitterIsSeedDeterministic) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kDelay,
                            .added_latency = msec(10),
                            .added_jitter = msec(40)});
  std::vector<SimDuration> first, second;
  {
    FaultPlane plane = make_plane(scenario);
    for (int i = 0; i < 16; ++i)
      first.push_back(plane.on_udp(addr(kFaultyNet, 1), 0).extra_latency);
  }
  {
    FaultPlane plane = make_plane(scenario);
    for (int i = 0; i < 16; ++i)
      second.push_back(plane.on_udp(addr(kFaultyNet, 1), 0).extra_latency);
  }
  EXPECT_EQ(first, second);
  for (SimDuration d : first) {
    EXPECT_GE(d, msec(10));
    EXPECT_LT(d, msec(50));
  }
}

TEST_F(FaultPlaneTest, HostOutageWindowsCoverOneAddress) {
  FaultScenario scenario;
  scenario.outages.push_back(
      {.host = addr(kCleanNet, 9), .from = sec(5), .until = sec(15)});
  FaultPlane plane = make_plane(scenario);

  EXPECT_FALSE(plane.host_down(addr(kCleanNet, 9), sec(4)));
  EXPECT_TRUE(plane.host_down(addr(kCleanNet, 9), sec(5)));
  EXPECT_FALSE(plane.host_down(addr(kCleanNet, 8), sec(5)));  // only that host
  EXPECT_FALSE(plane.host_down(addr(kCleanNet, 9), sec(15)));

  EXPECT_TRUE(plane.on_udp(addr(kCleanNet, 9), sec(6)).drop);
  EXPECT_EQ(plane.udp_host_down(), 1u);
  EXPECT_EQ(plane.on_tcp_connect(addr(kCleanNet, 9), sec(6)).action,
            FaultPlane::TcpAction::kBlackhole);
}

TEST_F(FaultPlaneTest, OutboundScopeImpairsTrafficFromThePrefix) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .direction = FaultDirection::kOutbound});
  FaultPlane plane = make_plane(scenario);

  // Packets *from* the impaired prefix die; packets *into* it pass.
  EXPECT_TRUE(
      plane.on_udp(addr(kFaultyNet, 1), addr(kCleanNet, 1), 123, 0).drop);
  EXPECT_FALSE(
      plane.on_udp(addr(kCleanNet, 1), addr(kFaultyNet, 1), 123, 0).drop);
  // The legacy overload's unknown source (::) never matches an outbound
  // scope, so scope-free callers see a pristine plane.
  EXPECT_FALSE(plane.on_udp(addr(kFaultyNet, 1), 0).drop);
  EXPECT_EQ(plane.on_tcp_connect(addr(kFaultyNet, 1), addr(kCleanNet, 1), 80,
                                 0).action,
            FaultPlane::TcpAction::kBlackhole);
}

TEST_F(FaultPlaneTest, UnknownSourceNeverMatchesAnOutboundDefaultRoute) {
  // ::/0 contains :: itself, yet the unknown source must not match an
  // outbound scope however short its prefix.
  const net::Ipv6Prefix everything(net::Ipv6Address{}, 0);
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = everything,
                            .kind = FaultKind::kBlackhole,
                            .direction = FaultDirection::kOutbound});
  FaultPlane plane = make_plane(scenario);

  EXPECT_FALSE(scenario.rules[0].matches(net::Ipv6Address{},
                                         addr(kCleanNet, 1), 0));
  EXPECT_FALSE(plane.on_udp(addr(kCleanNet, 1), 0).drop);
  EXPECT_EQ(plane.on_tcp_connect(addr(kCleanNet, 1), 0).action,
            FaultPlane::TcpAction::kNone);
  EXPECT_EQ(plane.udp_dropped() + plane.tcp_blackholed(), 0u);
  // Any known source is inside ::/0.
  EXPECT_TRUE(
      plane.on_udp(addr(kCleanNet, 2), addr(kCleanNet, 1), 123, 0).drop);

  // A kBoth ::/0 rule still matches the unknown source's packets through
  // their destination.
  FaultRule both = scenario.rules[0];
  both.direction = FaultDirection::kBoth;
  EXPECT_TRUE(both.matches(net::Ipv6Address{}, addr(kCleanNet, 1), 0));
}

TEST_F(FaultPlaneTest, BothScopeImpairsEitherDirection) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .direction = FaultDirection::kBoth});
  FaultPlane plane = make_plane(scenario);

  EXPECT_TRUE(
      plane.on_udp(addr(kFaultyNet, 1), addr(kCleanNet, 1), 123, 0).drop);
  EXPECT_TRUE(
      plane.on_udp(addr(kCleanNet, 1), addr(kFaultyNet, 1), 123, 0).drop);
  EXPECT_FALSE(
      plane.on_udp(addr(kCleanNet, 1), addr(kCleanNet, 2), 123, 0).drop);
}

TEST_F(FaultPlaneTest, DstPortScopeNarrowsARule) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .dst_port = 123});
  FaultPlane plane = make_plane(scenario);

  // Port 123 into the prefix dies; port 80 sails through, and so does the
  // legacy wildcard-port overload (port 0 never matches a scoped rule).
  EXPECT_TRUE(
      plane.on_udp(addr(kCleanNet, 1), addr(kFaultyNet, 1), 123, 0).drop);
  EXPECT_FALSE(
      plane.on_udp(addr(kCleanNet, 1), addr(kFaultyNet, 1), 80, 0).drop);
  EXPECT_FALSE(plane.on_udp(addr(kFaultyNet, 1), 0).drop);
  EXPECT_EQ(plane.on_tcp_connect(addr(kCleanNet, 1), addr(kFaultyNet, 1), 123,
                                 0).action,
            FaultPlane::TcpAction::kBlackhole);
  EXPECT_EQ(plane.on_tcp_connect(addr(kCleanNet, 1), addr(kFaultyNet, 1), 443,
                                 0).action,
            FaultPlane::TcpAction::kNone);
}

TEST_F(FaultPlaneTest, ZeroWidthRuleWindowNeverFires) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .from = sec(10),
                            .until = sec(10)});
  FaultPlane plane = make_plane(scenario);

  auto target = addr(kFaultyNet, 1);
  EXPECT_FALSE(plane.on_udp(target, sec(9)).drop);
  EXPECT_FALSE(plane.on_udp(target, sec(10)).drop);  // the degenerate edge
  EXPECT_FALSE(plane.on_udp(target, sec(11)).drop);
  EXPECT_EQ(plane.on_tcp_connect(target, sec(10)).action,
            FaultPlane::TcpAction::kNone);
  EXPECT_EQ(plane.udp_dropped(), 0u);
}

TEST_F(FaultPlaneTest, OverlappingOutageWindowsOnOneHost) {
  auto host = addr(kCleanNet, 9);
  FaultScenario scenario;
  scenario.outages.push_back({.host = host, .from = sec(5), .until = sec(15)});
  scenario.outages.push_back({.host = host, .from = sec(10), .until = sec(25)});
  FaultPlane plane = make_plane(scenario);

  // The union of the two windows is down; neither edge inside it revives
  // the host, and after the later `until` it is back.
  EXPECT_FALSE(plane.host_down(host, sec(4)));
  EXPECT_TRUE(plane.host_down(host, sec(5)));
  EXPECT_TRUE(plane.host_down(host, sec(12)));  // inside both
  EXPECT_TRUE(plane.host_down(host, sec(15)));  // first ended, second holds
  EXPECT_TRUE(plane.host_down(host, sec(24)));
  EXPECT_FALSE(plane.host_down(host, sec(25)));
}

TEST_F(FaultPlaneTest, DomainWithoutStreamAssertsOrCounts) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kLoss,
                            .probability = 1.0});
#ifdef NDEBUG
  // Release: the silent-aliasing bug is counted and falls back to stream 0.
  FaultPlane plane = make_plane(scenario);
  EXPECT_TRUE(plane.on_udp(addr(kFaultyNet, 1), 0, /*domain=*/3).drop);
  EXPECT_EQ(plane.domain_fallbacks(), 1u);
#else
  // Debug: loud, immediately.
  EXPECT_DEATH(
      {
        FaultPlane plane = make_plane(scenario);
        plane.on_udp(addr(kFaultyNet, 1), 0, /*domain=*/3);
      },
      "configured RNG stream");
#endif
}

TEST_F(FaultPlaneTest, ConfiguredDomainsNeverFallBack) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kLoss,
                            .probability = 1.0});
  FaultPlane plane = make_plane(scenario);
  plane.configure_domains(4);
  EXPECT_TRUE(plane.on_udp(addr(kFaultyNet, 1), 0, /*domain=*/3).drop);
  EXPECT_EQ(plane.domain_fallbacks(), 0u);
}

TEST_F(FaultPlaneTest, WindowEdgesRecordFlightEvents) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kBlackhole,
                            .from = sec(10),
                            .until = sec(20)});
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kLoss,
                            .from = sec(5),
                            .until = sec(5)});  // zero-width: never logged
  scenario.outages.push_back(
      {.host = addr(kCleanNet, 9), .from = sec(30)});  // never closes
  EventQueue events;
  obs::Tracer tracer;
  tracer.set_sim_clock(&events);
  obs::FlightRecorder flight(tracer);
  FaultPlane plane = make_plane(scenario);
  plane.set_flight_recorder(&flight);
  plane.arm(events);
  events.run();

  int opens = 0, closes = 0;
  for (const obs::FlightEvent& ev : flight.events()) {
    if (ev.kind == obs::FlightKind::kFaultWindowOpen) ++opens;
    if (ev.kind == obs::FlightKind::kFaultWindowClose) ++closes;
  }
  // Rule 0 opens and closes; the outage opens and never closes; the
  // zero-width rule contributes nothing.
  EXPECT_EQ(opens, 2);
  EXPECT_EQ(closes, 1);
}

// ------------------------------------------------- network integration

class FaultNetworkTest : public ::testing::Test {
 protected:
  FaultNetworkTest() : network_(events_, config()) {}
  static NetworkConfig config() {
    NetworkConfig c;
    c.min_latency = msec(10);
    c.max_latency = msec(20);
    c.jitter = 0;
    return c;
  }

  void install(FaultScenario scenario) {
    network_.install_faults(std::move(scenario));
  }

  EventQueue events_;
  Network network_;
};

TEST_F(FaultNetworkTest, UdpBlackholeRuleSwallowsDatagrams) {
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kBlackhole});
  install(scenario);

  bool faulty_got = false, clean_got = false;
  network_.bind_udp({addr(kFaultyNet, 1), 123},
                    [&](const Datagram&) { faulty_got = true; });
  network_.bind_udp({addr(kCleanNet, 1), 123},
                    [&](const Datagram&) { clean_got = true; });
  network_.send_udp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 123},
                    std::vector<std::uint8_t>{1});
  network_.send_udp({addr(kCleanNet, 2), 1}, {addr(kCleanNet, 1), 123},
                    std::vector<std::uint8_t>{1});
  events_.run();
  EXPECT_FALSE(faulty_got);
  EXPECT_TRUE(clean_got);
  EXPECT_EQ(network_.faults()->udp_dropped(), 1u);
}

TEST_F(FaultNetworkTest, DelayRuleAddsLatencyToDelivery) {
  FaultScenario scenario;
  scenario.rules.push_back({.prefix = faulty_prefix(),
                            .kind = FaultKind::kDelay,
                            .added_latency = sec(2)});
  install(scenario);

  SimTime delivered_at = -1;
  network_.bind_udp({addr(kFaultyNet, 1), 123},
                    [&](const Datagram&) { delivered_at = events_.now(); });
  network_.send_udp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 123},
                    std::vector<std::uint8_t>{1});
  events_.run();
  ASSERT_GE(delivered_at, 0);
  EXPECT_GE(delivered_at, sec(2) + msec(10));
  EXPECT_LE(delivered_at, sec(2) + msec(20));
}

TEST_F(FaultNetworkTest, TcpBlackholeTimesOutAfterConfigConnectTimeout) {
  NetworkConfig c = config();
  c.connect_timeout = sec(3);  // not the historical hardcoded 5 s
  Network network(events_, c);
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kBlackhole});
  network.install_faults(scenario);
  network.attach(addr(kFaultyNet, 1));
  network.listen_tcp({addr(kFaultyNet, 1), 80}, [](TcpConnectionPtr) {});

  bool called = false;
  network.connect_tcp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 80},
                      [&](TcpConnectionPtr conn, bool refused) {
                        called = true;
                        EXPECT_EQ(conn, nullptr);
                        EXPECT_FALSE(refused);
                      });
  events_.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(events_.now(), sec(3));
  EXPECT_EQ(network.faults()->tcp_blackholed(), 1u);
}

TEST_F(FaultNetworkTest, TcpRstRefusesDespiteLiveListener) {
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kRst});
  install(scenario);
  network_.attach(addr(kFaultyNet, 1));
  network_.listen_tcp({addr(kFaultyNet, 1), 80}, [](TcpConnectionPtr) {});

  bool called = false;
  network_.connect_tcp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 80},
                       [&](TcpConnectionPtr conn, bool refused) {
                         called = true;
                         EXPECT_EQ(conn, nullptr);
                         EXPECT_TRUE(refused);
                       });
  events_.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(network_.faults()->tcp_rst(), 1u);
}

TEST_F(FaultNetworkTest, TcpStallEstablishesButDeliversNothing) {
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kStall});
  install(scenario);
  network_.attach(addr(kFaultyNet, 1));
  bool server_got_data = false, server_got_close = false;
  network_.listen_tcp({addr(kFaultyNet, 1), 80}, [&](TcpConnectionPtr conn) {
    conn->set_on_data(
        TcpConnection::Side::kServer,
        [&](std::vector<std::uint8_t>) { server_got_data = true; });
    conn->set_on_close(TcpConnection::Side::kServer,
                       [&] { server_got_close = true; });
  });

  bool established = false;
  TcpConnectionPtr client_conn;
  network_.connect_tcp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 80},
                       [&](TcpConnectionPtr conn, bool refused) {
                         ASSERT_FALSE(refused);
                         ASSERT_NE(conn, nullptr);
                         established = true;
                         client_conn = conn;
                         conn->send(TcpConnection::Side::kClient, {1, 2, 3});
                         conn->close(TcpConnection::Side::kClient);
                       });
  events_.run();
  EXPECT_TRUE(established);       // the handshake itself succeeds...
  EXPECT_FALSE(server_got_data);  // ...but no payload ever arrives
  EXPECT_FALSE(server_got_close);  // and the close is as silent as the data
  EXPECT_TRUE(client_conn->stalled());
  EXPECT_EQ(network_.faults()->tcp_stalled(), 1u);
  EXPECT_EQ(network_.faults()->stall_data_dropped(), 1u);
}

TEST_F(FaultNetworkTest, HostOutageBlackholesItsUdpAndTcp) {
  auto host = addr(kCleanNet, 9);
  FaultScenario scenario;
  scenario.outages.push_back({.host = host, .from = 0, .until = sec(30)});
  install(scenario);
  network_.attach(host);
  bool got = false;
  network_.bind_udp({host, 123}, [&](const Datagram&) { got = true; });

  network_.send_udp({addr(kCleanNet, 2), 1}, {host, 123},
                    std::vector<std::uint8_t>{1});
  events_.run();
  EXPECT_FALSE(got);

  // After the window the same binding answers again: outage, not detach.
  events_.schedule_at(sec(31), [&] {
    network_.send_udp({addr(kCleanNet, 2), 1}, {host, 123},
                      std::vector<std::uint8_t>{2});
  });
  events_.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(network_.faults()->udp_host_down(), 1u);
}

TEST_F(FaultNetworkTest, InstrumentsEnrollIntoRegistry) {
  // Declared before the network so it outlives the plane (which drops its
  // instruments from the registry on destruction).
  obs::Registry registry;
  Network network(events_, config());
  FaultScenario scenario;
  scenario.rules.push_back(
      {.prefix = faulty_prefix(), .kind = FaultKind::kBlackhole});
  network.install_faults(scenario, &registry);
  network.send_udp({addr(kCleanNet, 2), 1}, {addr(kFaultyNet, 1), 123},
                   std::vector<std::uint8_t>{1});
  events_.run();

  auto snapshot = registry.snapshot(events_.now());
  const obs::SnapshotValue* dropped = snapshot.find("fault_udp_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->count, 1u);
}

}  // namespace
}  // namespace tts::simnet
