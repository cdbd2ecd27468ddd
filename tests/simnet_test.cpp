#include <gtest/gtest.h>

#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"

namespace tts::simnet {
namespace {

net::Ipv6Address addr(std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x2400000100000000ULL, lo);
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(sec(3), [&] { order.push_back(3); });
  q.schedule_at(sec(1), [&] { order.push_back(1); });
  q.schedule_at(sec(2), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), sec(3));
}

TEST(EventQueue, TieBreakBySchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule_at(sec(5), [&order, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue q;
  q.schedule_at(sec(10), [] {});
  q.run();
  bool ran = false;
  q.schedule_at(sec(5), [&] { ran = true; });  // in the past now
  q.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), sec(10));
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock) {
  EventQueue q;
  int count = 0;
  q.schedule_at(sec(1), [&] { ++count; });
  q.schedule_at(sec(5), [&] { ++count; });
  q.run_until(sec(3));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(q.now(), sec(3));
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(sec(10));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), sec(10));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_in(sec(1), recurse);
  };
  q.schedule_in(sec(1), recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueue, FormatDuration) {
  EXPECT_EQ(format_duration(sec(0)), "00:00:00");
  EXPECT_EQ(format_duration(hours(1) + minutes(2) + sec(3)), "01:02:03");
  EXPECT_EQ(format_duration(days(2) + hours(3)), "2d 03:00:00");
  EXPECT_EQ(format_duration(-sec(5)), "-00:00:05");
}

// ------------------------------------------------------------------- timer

TEST(Timer, FiresOnceAtDeadlineAndDisarms) {
  EventQueue q;
  int fired = 0;
  Timer t(q, [&] { ++fired; });
  t.arm(sec(2));
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(t.deadline(), sec(2));
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());  // one-shot: re-arm explicitly
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(Timer, ReArmEarlierSupersedesTheOldEntry) {
  EventQueue q;
  std::vector<SimTime> fires;
  Timer t(q, [&] { fires.push_back(q.now()); });
  t.arm(sec(10));
  t.arm(sec(3));  // moved earlier: new entry, old one goes inert
  q.run();
  EXPECT_EQ(fires, (std::vector<SimTime>{sec(3)}));
  EXPECT_EQ(q.now(), sec(10));  // the dead entry still sat in the heap
  EXPECT_EQ(t.entries_scheduled(), 2u);
}

TEST(Timer, ReArmLaterReusesTheEntryLazily) {
  EventQueue q;
  std::vector<SimTime> fires;
  Timer t(q, [&] { fires.push_back(q.now()); });
  t.arm(sec(1));
  t.arm(sec(5));  // moved later: NO new entry now...
  EXPECT_EQ(t.entries_scheduled(), 1u);
  q.run();
  // ...the t=1 entry fired early, noticed the move and chased the deadline.
  EXPECT_EQ(fires, (std::vector<SimTime>{sec(5)}));
  EXPECT_EQ(t.entries_scheduled(), 2u);
}

TEST(Timer, SameDeadlineReArmIsFree) {
  EventQueue q;
  int fired = 0;
  Timer t(q, [&] { ++fired; });
  for (int i = 0; i < 100; ++i) t.arm(sec(4));
  EXPECT_EQ(t.entries_scheduled(), 1u);  // the coalescing the pump relies on
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(Timer, CancelMakesPendingEntriesInert) {
  EventQueue q;
  int fired = 0;
  Timer t(q, [&] { ++fired; });
  t.arm(sec(2));
  t.cancel();
  EXPECT_FALSE(t.armed());
  q.run();
  EXPECT_EQ(fired, 0);
  // Cancel-then-re-arm still works.
  t.arm(sec(3));
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(Timer, CallbackMayReArmItself) {
  EventQueue q;
  int fired = 0;
  Timer t(q, [&] {
    if (++fired < 3) t.arm(q.now() + sec(1));
  });
  t.arm(sec(1));
  q.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.now(), sec(3));
}

TEST(Timer, DestructionLeavesHeapEntriesInert) {
  EventQueue q;
  int fired = 0;
  {
    Timer t(q, [&] { ++fired; });
    t.arm(sec(1));
  }  // destroyed with a pending entry
  q.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CallbackMayDestroyItsOwnTimer) {
  EventQueue q;
  int fired = 0;
  std::unique_ptr<Timer> t;
  t = std::make_unique<Timer>(q, [&] {
    ++fired;
    t.reset();  // the copy-before-call in fire() keeps this safe
  });
  t->arm(sec(1));
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(t, nullptr);
}

// ------------------------------------------------------------------ network

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(events_, config()) {}
  static NetworkConfig config() {
    NetworkConfig c;
    c.min_latency = msec(10);
    c.max_latency = msec(20);
    c.jitter = 0;
    return c;
  }
  EventQueue events_;
  Network network_;
};

TEST_F(NetworkTest, UdpDeliversToBoundEndpoint) {
  Endpoint server{addr(1), 9000};
  Endpoint client{addr(2), 1234};
  std::vector<std::uint8_t> received;
  network_.bind_udp(server, [&](const Datagram& dg) {
    received.assign(dg.payload.begin(), dg.payload.end());
    EXPECT_EQ(dg.src, client);
  });
  network_.send_udp(client, server, std::vector<std::uint8_t>{1, 2, 3});
  events_.run();
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(network_.udp_delivered(), 1u);
}

TEST_F(NetworkTest, UdpToUnboundIsSilent) {
  network_.send_udp({addr(2), 1}, {addr(1), 9000},
                    std::vector<std::uint8_t>{1});
  events_.run();
  EXPECT_EQ(network_.udp_delivered(), 0u);
  EXPECT_EQ(network_.udp_sent(), 1u);
}

TEST_F(NetworkTest, TcpConnectRefusedWhenOnlineNoListener) {
  network_.attach(addr(1));
  bool called = false;
  network_.connect_tcp({addr(2), 1}, {addr(1), 22},
                       [&](TcpConnectionPtr conn, bool refused) {
                         called = true;
                         EXPECT_EQ(conn, nullptr);
                         EXPECT_TRUE(refused);
                       });
  events_.run();
  EXPECT_TRUE(called);
}

TEST_F(NetworkTest, TcpConnectTimesOutWhenOffline) {
  bool called = false;
  SimTime start = events_.now();
  network_.connect_tcp({addr(2), 1}, {addr(1), 22},
                       [&](TcpConnectionPtr conn, bool refused) {
                         called = true;
                         EXPECT_EQ(conn, nullptr);
                         EXPECT_FALSE(refused);
                       },
                       sec(5));
  events_.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(events_.now(), start + sec(5));
}

TEST_F(NetworkTest, TcpFullDuplexExchange) {
  Endpoint server{addr(1), 7}, client{addr(2), 40000};
  network_.attach(addr(1));
  network_.listen_tcp(server, [&](TcpConnectionPtr conn) {
    conn->set_on_data(TcpConnection::Side::kServer,
                      [conn](std::vector<std::uint8_t> data) {
                        data.push_back(0xFF);  // echo + marker
                        conn->send(TcpConnection::Side::kServer,
                                   std::move(data));
                      });
  });
  std::vector<std::uint8_t> reply;
  network_.connect_tcp(client, server,
                       [&](TcpConnectionPtr conn, bool refused) {
                         ASSERT_FALSE(refused);
                         ASSERT_NE(conn, nullptr);
                         conn->set_on_data(
                             TcpConnection::Side::kClient,
                             [&reply](std::vector<std::uint8_t> data) {
                               reply = std::move(data);
                             });
                         conn->send(TcpConnection::Side::kClient, {9, 8});
                       });
  events_.run();
  EXPECT_EQ(reply, (std::vector<std::uint8_t>{9, 8, 0xFF}));
  EXPECT_EQ(network_.tcp_established(), 1u);
}

TEST_F(NetworkTest, TcpDataQueuedBeforeCloseStillDelivered) {
  Endpoint server{addr(1), 80};
  network_.attach(addr(1));
  network_.listen_tcp(server, [&](TcpConnectionPtr conn) {
    conn->set_on_data(TcpConnection::Side::kServer,
                      [conn](std::vector<std::uint8_t>) {
                        conn->send(TcpConnection::Side::kServer, {42});
                        conn->close(TcpConnection::Side::kServer);
                      });
  });
  bool got_data = false, got_close = false;
  network_.connect_tcp({addr(2), 1}, server,
                       [&](TcpConnectionPtr conn, bool) {
                         ASSERT_NE(conn, nullptr);
                         conn->set_on_data(TcpConnection::Side::kClient,
                                           [&](std::vector<std::uint8_t> d) {
                                             got_data = (d[0] == 42);
                                             EXPECT_FALSE(got_close);
                                           });
                         conn->set_on_close(TcpConnection::Side::kClient,
                                            [&] { got_close = true; });
                         conn->send(TcpConnection::Side::kClient, {1});
                       });
  events_.run();
  EXPECT_TRUE(got_data);   // the response survived the server's close
  EXPECT_TRUE(got_close);  // and the close arrived afterwards
}

TEST_F(NetworkTest, DetachDropsBindingsAndRefcounts) {
  network_.attach(addr(1));
  network_.attach(addr(1));  // second claim
  network_.bind_udp({addr(1), 5}, [](const Datagram&) {});
  int accepted = 0;
  network_.listen_tcp({addr(1), 80}, [&](TcpConnectionPtr) { ++accepted; });
  network_.detach(addr(1));
  EXPECT_TRUE(network_.online(addr(1)));  // still held once
  network_.detach(addr(1));
  EXPECT_FALSE(network_.online(addr(1)));
  // Binding gone: datagram is silent.
  network_.send_udp({addr(2), 1}, {addr(1), 5}, std::vector<std::uint8_t>{1});
  // Listener gone and host offline: the connect blackholes, not refused.
  int timeouts = 0;
  SimTime start = events_.now();
  network_.connect_tcp({addr(2), 2}, {addr(1), 80},
                       [&](TcpConnectionPtr conn, bool refused) {
                         EXPECT_EQ(conn, nullptr);
                         EXPECT_FALSE(refused);
                         ++timeouts;
                       },
                       sec(5));
  events_.run();
  EXPECT_EQ(network_.udp_delivered(), 0u);
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(events_.now(), start + sec(5));
  // Re-attaching does not resurrect the listener: now the host refuses.
  network_.attach(addr(1));
  bool refused = false;
  network_.connect_tcp({addr(2), 3}, {addr(1), 80},
                       [&](TcpConnectionPtr, bool r) { refused = r; });
  events_.run();
  EXPECT_TRUE(refused);
  EXPECT_EQ(accepted, 0);
}

TEST_F(NetworkTest, DetachLeavesNeighbourBindingsDelivering) {
  network_.attach(addr(1));
  network_.attach(addr(3));
  int udp1 = 0, udp3 = 0, accepted3 = 0;
  network_.bind_udp({addr(1), 5}, [&](const Datagram&) { ++udp1; });
  network_.bind_udp({addr(3), 5}, [&](const Datagram&) { ++udp3; });
  network_.listen_tcp({addr(1), 80}, [](TcpConnectionPtr) {});
  network_.listen_tcp({addr(3), 80}, [&](TcpConnectionPtr) { ++accepted3; });
  network_.detach(addr(1));
  EXPECT_TRUE(network_.online(addr(3)));
  network_.send_udp({addr(2), 1}, {addr(1), 5}, std::vector<std::uint8_t>{1});
  network_.send_udp({addr(2), 1}, {addr(3), 5}, std::vector<std::uint8_t>{1});
  bool established = false;
  network_.connect_tcp({addr(2), 2}, {addr(3), 80},
                       [&](TcpConnectionPtr conn, bool) {
                         established = conn != nullptr;
                       });
  events_.run();
  EXPECT_EQ(udp1, 0);
  EXPECT_EQ(udp3, 1);
  EXPECT_TRUE(established);
  EXPECT_EQ(accepted3, 1);
}

TEST_F(NetworkTest, OfflineBindingSurvivesUnrelatedDetach) {
  // A binding on a never-attached address (a device's ephemeral NTP poll
  // port) delivers, and only attach + detach of its own address drops it.
  int got = 0;
  network_.bind_udp({addr(1), 33000}, [&](const Datagram&) { ++got; });
  network_.attach(addr(3));
  network_.detach(addr(3));
  network_.detach(addr(1));  // never attached: a no-op
  network_.send_udp({addr(2), 123}, {addr(1), 33000},
                    std::vector<std::uint8_t>{1});
  events_.run();
  EXPECT_EQ(got, 1);
  network_.attach(addr(1));
  network_.detach(addr(1));
  network_.send_udp({addr(2), 123}, {addr(1), 33000},
                    std::vector<std::uint8_t>{1});
  events_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, RebindingAPortReplacesTheHandler) {
  int first = 0, second = 0;
  network_.bind_udp({addr(1), 9}, [&](const Datagram&) { ++first; });
  network_.bind_udp({addr(1), 9}, [&](const Datagram&) { ++second; });
  network_.send_udp({addr(2), 1}, {addr(1), 9}, std::vector<std::uint8_t>{1});
  network_.attach(addr(1));
  int first_tcp = 0, second_tcp = 0;
  network_.listen_tcp({addr(1), 80}, [&](TcpConnectionPtr) { ++first_tcp; });
  network_.listen_tcp({addr(1), 80}, [&](TcpConnectionPtr) { ++second_tcp; });
  network_.connect_tcp({addr(2), 2}, {addr(1), 80},
                       [](TcpConnectionPtr, bool) {});
  events_.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(first_tcp, 0);
  EXPECT_EQ(second_tcp, 1);
  // One unbind removes the port: no stale first handler is left behind.
  network_.unbind_udp({addr(1), 9});
  network_.send_udp({addr(2), 1}, {addr(1), 9}, std::vector<std::uint8_t>{2});
  events_.run();
  EXPECT_EQ(first + second, 1);
}

TEST_F(NetworkTest, OnlineCountIsExact) {
  EXPECT_EQ(network_.online_count(), 0u);
  // Bindings on an offline address do not bring it online, and its last
  // unbind leaves nothing behind.
  network_.bind_udp({addr(1), 5}, [](const Datagram&) {});
  network_.listen_tcp({addr(1), 80}, [](TcpConnectionPtr) {});
  EXPECT_EQ(network_.online_count(), 0u);
  EXPECT_FALSE(network_.online(addr(1)));
  network_.unbind_udp({addr(1), 5});
  network_.unlisten_tcp({addr(1), 80});
  EXPECT_EQ(network_.online_count(), 0u);
  // Refcounted claims count once per address.
  network_.attach(addr(1));
  network_.attach(addr(1));
  network_.attach(addr(2));
  EXPECT_EQ(network_.online_count(), 2u);
  network_.bind_udp({addr(1), 5}, [](const Datagram&) {});
  network_.unbind_udp({addr(1), 5});  // online address stays online
  EXPECT_TRUE(network_.online(addr(1)));
  network_.detach(addr(1));
  EXPECT_EQ(network_.online_count(), 2u);
  network_.detach(addr(1));
  EXPECT_EQ(network_.online_count(), 1u);
  network_.detach(addr(1));  // already offline
  network_.detach(addr(3));  // never attached
  EXPECT_EQ(network_.online_count(), 1u);
  network_.detach(addr(2));
  EXPECT_EQ(network_.online_count(), 0u);
}

TEST_F(NetworkTest, WildcardPrefixListener) {
  auto region = *net::Ipv6Prefix::parse("2400:1::/32");
  int accepted = 0;
  network_.listen_tcp_prefix(region, 80,
                             [&](TcpConnectionPtr) { ++accepted; });
  // Any address in the region accepts, without attach or exact bind.
  for (std::uint64_t i = 0; i < 5; ++i) {
    network_.connect_tcp(
        {addr(900 + i), 1},
        {net::Ipv6Address::from_halves(0x2400000100000000ULL | i, i), 80},
        [&](TcpConnectionPtr conn, bool refused) {
          EXPECT_NE(conn, nullptr);
          EXPECT_FALSE(refused);
        });
  }
  events_.run();
  EXPECT_EQ(accepted, 5);
  // Different port still refused/blackholed.
  bool ok = false;
  network_.connect_tcp({addr(900), 1},
                       {net::Ipv6Address::from_halves(0x2400000100000000ULL, 7),
                        443},
                       [&](TcpConnectionPtr conn, bool) {
                         ok = (conn == nullptr);
                       });
  events_.run();
  EXPECT_TRUE(ok);
}

TEST_F(NetworkTest, TapsSeeTrafficToUnboundAddresses) {
  auto monitored = *net::Ipv6Prefix::parse("2400:1::/32");
  std::vector<TapEvent> events;
  network_.add_tap(monitored, [&](const TapEvent& ev) {
    events.push_back(ev);
  });
  // TCP connect attempt to a dark address.
  network_.connect_tcp({addr(5), 1}, {addr(6), 3389},
                       [](TcpConnectionPtr, bool) {}, sec(1));
  // UDP datagram to a dark address.
  network_.send_udp({addr(5), 1}, {addr(7), 5683},
                    std::vector<std::uint8_t>{1, 2});
  events_.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].proto, TransportProto::kTcp);
  EXPECT_EQ(events[0].dst.port, 3389);
  EXPECT_EQ(events[1].proto, TransportProto::kUdp);
  EXPECT_EQ(events[1].payload_size, 2u);
}

TEST_F(NetworkTest, TapRemoval) {
  auto monitored = *net::Ipv6Prefix::parse("2400:1::/32");
  int count = 0;
  auto id = network_.add_tap(monitored, [&](const TapEvent&) { ++count; });
  network_.send_udp({addr(5), 1}, {addr(7), 1}, std::vector<std::uint8_t>{1});
  events_.run();
  network_.remove_tap(id);
  network_.send_udp({addr(5), 1}, {addr(7), 1}, std::vector<std::uint8_t>{1});
  events_.run();
  EXPECT_EQ(count, 1);
}

TEST_F(NetworkTest, TcpDoubleCloseAndSendAfterCloseAreSafe) {
  Endpoint server{addr(1), 80};
  network_.attach(addr(1));
  int server_closes = 0;
  network_.listen_tcp(server, [&](TcpConnectionPtr conn) {
    conn->set_on_close(TcpConnection::Side::kServer,
                       [&] { ++server_closes; });
  });
  TcpConnectionPtr client_conn;
  network_.connect_tcp({addr(2), 1}, server,
                       [&](TcpConnectionPtr conn, bool) {
                         client_conn = conn;
                       });
  events_.run();
  ASSERT_NE(client_conn, nullptr);
  client_conn->close(TcpConnection::Side::kClient);
  client_conn->close(TcpConnection::Side::kClient);  // second close: no-op
  client_conn->send(TcpConnection::Side::kClient, {1});  // dropped
  events_.run();
  EXPECT_EQ(server_closes, 1);
  EXPECT_FALSE(client_conn->open());
}

TEST_F(NetworkTest, SimultaneousConnectionsAreIndependent) {
  Endpoint server{addr(1), 7};
  network_.attach(addr(1));
  int served = 0;
  network_.listen_tcp(server, [&](TcpConnectionPtr conn) {
    conn->set_on_data(TcpConnection::Side::kServer,
                      [conn, &served](std::vector<std::uint8_t> d) {
                        ++served;
                        conn->send(TcpConnection::Side::kServer,
                                   std::move(d));
                      });
  });
  int replies = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    network_.connect_tcp(
        {addr(100 + i), static_cast<std::uint16_t>(1000 + i)}, server,
        [&replies, i](TcpConnectionPtr conn, bool) {
          ASSERT_NE(conn, nullptr);
          conn->set_on_data(TcpConnection::Side::kClient,
                            [&replies, i](std::vector<std::uint8_t> d) {
                              ASSERT_EQ(d.size(), 1u);
                              EXPECT_EQ(d[0], static_cast<std::uint8_t>(i));
                              ++replies;
                            });
          conn->send(TcpConnection::Side::kClient,
                     {static_cast<std::uint8_t>(i)});
        });
  }
  events_.run();
  EXPECT_EQ(served, 20);
  EXPECT_EQ(replies, 20);
}

TEST_F(NetworkTest, UnbindDuringDeliveryIsSafe) {
  // A UDP handler that unbinds itself while running must not invalidate
  // the in-flight dispatch.
  Endpoint ep{addr(3), 9};
  int received = 0;
  network_.bind_udp(ep, [&](const Datagram&) {
    ++received;
    network_.unbind_udp(ep);
  });
  network_.send_udp({addr(4), 1}, ep, std::vector<std::uint8_t>{1});
  network_.send_udp({addr(4), 1}, ep,
                    std::vector<std::uint8_t>{2});  // after unbind: silent
  events_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, CloseBreaksHandlerCycleAndFreesConnection) {
  // Handlers routinely capture the TcpConnectionPtr they are set on; the
  // connection must still be freed once the close is delivered (the
  // handlers are dropped with it), or every scanned host leaks.
  Endpoint server{addr(1), 80};
  network_.attach(addr(1));
  std::weak_ptr<TcpConnection> server_side;
  network_.listen_tcp(server, [&](TcpConnectionPtr conn) {
    server_side = conn;
    conn->set_on_data(TcpConnection::Side::kServer,
                      [conn](std::vector<std::uint8_t>) {
                        conn->close(TcpConnection::Side::kServer);
                      });
  });
  std::weak_ptr<TcpConnection> client_side;
  network_.connect_tcp({addr(2), 1}, server,
                       [&](TcpConnectionPtr conn, bool) {
                         ASSERT_NE(conn, nullptr);
                         client_side = conn;
                         conn->set_on_close(TcpConnection::Side::kClient,
                                            [conn] { /* keeps the cycle */ });
                         conn->send(TcpConnection::Side::kClient, {1});
                       });
  events_.run();
  EXPECT_TRUE(server_side.expired());
  EXPECT_TRUE(client_side.expired());
}

TEST(NetworkLifecycle, DestructorBreaksCyclesOfNeverClosedConnections) {
  // run_until() can truncate a study before in-flight connections close;
  // Network teardown must still break their handler cycles.
  EventQueue events;
  std::weak_ptr<TcpConnection> leaked;
  {
    Network network(events);
    network.attach(addr(1));
    network.listen_tcp({addr(1), 80}, [](TcpConnectionPtr conn) {
      conn->set_on_data(TcpConnection::Side::kServer,
                        [conn](std::vector<std::uint8_t>) {});
    });
    network.connect_tcp({addr(2), 1}, {addr(1), 80},
                        [&](TcpConnectionPtr conn, bool) {
                          ASSERT_NE(conn, nullptr);
                          leaked = conn;
                          conn->set_on_data(TcpConnection::Side::kClient,
                                            [conn](std::vector<std::uint8_t>) {
                                            });
                        });
    events.run();  // established, never closed
    EXPECT_FALSE(leaked.expired());
  }
  EXPECT_TRUE(leaked.expired());
}

TEST_F(NetworkTest, LatencyIsDeterministicAndBounded) {
  auto a = addr(100), b = addr(200);
  SimDuration l1 = network_.base_latency(a, b);
  SimDuration l2 = network_.base_latency(b, a);
  EXPECT_EQ(l1, l2);  // symmetric
  EXPECT_GE(l1, msec(10));
  EXPECT_LT(l1, msec(20));
}

}  // namespace
}  // namespace tts::simnet
