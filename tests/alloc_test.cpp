// Allocation guards for the NTP round trip, the paper's data source
// (Section 3.1): a client resolves the pool by its zone, sends a mode-3
// request, our server records the source and answers. This executable
// replaces the global operator new with a counting one, so each test can
// assert how many heap allocations a hot path makes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "ntp/collector.hpp"
#include "ntp/ntp_packet.hpp"
#include "ntp/ntp_server.hpp"
#include "ntp/pool.hpp"
#include "proto/coap.hpp"
#include "proto/ports.hpp"
#include "scan/engine.hpp"
#include "scan/results.hpp"
#include "simnet/network.hpp"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tts {
namespace {

/// Allocations made since construction.
class AllocCount {
 public:
  AllocCount() : start_(g_allocations) {}
  std::uint64_t operator()() const { return g_allocations - start_; }

 private:
  std::uint64_t start_;
};

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_halves(hi, lo);
}

TEST(Alloc, CounterSeesHeapAllocations) {
  AllocCount count;
  auto* p = new int(7);
  delete p;
  EXPECT_EQ(count(), 1u);
}

TEST(Alloc, PoolResolveAllocatesNothing) {
  ntp::NtpPool pool;
  for (std::uint64_t i = 0; i < 6; ++i)
    pool.add_server({addr(0x2400000000000000ULL, i + 1), i < 3 ? "DE" : "IN",
                     1000.0 * static_cast<double>(i + 1), 20, i == 0, 0});
  const auto de = pool.zone("DE");
  const auto fr = pool.zone("FR");  // no zone: the European fallback
  util::Rng rng(11);
  AllocCount count;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(pool.resolve(de, rng));
    ASSERT_TRUE(pool.resolve(fr, rng));
  }
  EXPECT_EQ(count(), 0u);
  EXPECT_EQ(pool.resolve_fallbacks(), 1000u);
}

TEST(Alloc, NtpSerializeAllocatesNothing) {
  auto request = ntp::NtpPacket::client_request(simnet::sec(3));
  AllocCount count;
  auto wire = request.serialize();
  EXPECT_EQ(count(), 0u);
  EXPECT_EQ(wire.size(), ntp::NtpPacket::kWireSize);
  EXPECT_TRUE(ntp::NtpPacket::parse(wire));
}

/// A client shaped like a device's poll (inet/services.cpp): its reply
/// handler captures the client and the expected origin timestamp, and
/// unbinds the endpoint the reply arrived on.
struct PollClient {
  simnet::Network& net;
  net::Ipv6Address src;
  net::Ipv6Address server;
  std::uint16_t next_port = 33000;
  int answered = 0;

  void poll() {
    simnet::Endpoint src_ep{src, next_port++};
    auto request = ntp::NtpPacket::client_request(net.now());
    auto expected_origin = request.transmit_time;
    net.bind_udp(src_ep, [this, expected_origin](const simnet::Datagram& dg) {
      auto response = ntp::NtpPacket::parse(dg.payload);
      if (response && response->origin_time == expected_origin &&
          response->mode == ntp::NtpMode::kServer) {
        ++answered;
        net.unbind_udp(dg.dst);
      }
    });
    net.send_udp(src_ep, {server, ntp::kNtpPort}, request.serialize());
    net.events().schedule_in(simnet::sec(8),
                             [this, src_ep] { net.unbind_udp(src_ep); });
  }
};

TEST(Alloc, SteadyStateNtpPollCostsTwoDatagrams) {
  simnet::EventQueue events;
  simnet::Network network(events);
  ntp::AddressCollector collector;
  ntp::NtpServerConfig config;
  config.address = addr(0x2400000000000000ULL, 1);
  config.country = "DE";
  ntp::NtpServer server(network, config, &collector);
  // The client never attaches its address (a device without services):
  // every poll creates and drops its host entry.
  PollClient client{network, addr(0x2a00000000000000ULL, 0x42),
                    config.address};

  // Warm-up: the event heap, host table and seen-store reach their sizes.
  for (int i = 0; i < 16; ++i) {
    client.poll();
    events.run();
  }
  AllocCount count;
  constexpr int kPolls = 64;
  for (int i = 0; i < kPolls; ++i) {
    client.poll();
    events.run();
  }
  EXPECT_EQ(client.answered, 16 + kPolls);
  EXPECT_EQ(server.requests_served(), 16u + kPolls);
  EXPECT_EQ(collector.distinct_addresses(), 1u);
  // The request datagram and the reply datagram, nothing else.
  EXPECT_LE(count(), 2u * kPolls);
}

TEST(Alloc, CoapProbeReplyDeliveryAllocatesNothing) {
  simnet::EventQueue events;
  simnet::NetworkConfig net_config;
  net_config.min_latency = simnet::msec(10);
  net_config.max_latency = simnet::msec(10);
  net_config.jitter = 0;
  simnet::Network network(events, net_config);
  scan::ResultStore results;

  // A CoAP device answering with the wrong message id, echoing the probe's
  // 4-byte token: the reply parses without allocating (the token is held
  // inline), and the probe records kMalformed, a tally with no stored
  // record. So the delivery allocates nothing unless copying the probe's
  // reply handler does.
  const net::Ipv6Address target = addr(0x2a00000000000001ULL, 5);
  network.attach(target);
  bool replied = false;
  network.bind_udp({target, proto::kCoapPort},
                   [&](const simnet::Datagram& dg) {
                     auto request = proto::CoapMessage::parse(dg.payload);
                     ASSERT_TRUE(request);
                     proto::CoapMessage reply;
                     reply.type = proto::CoapType::kAck;
                     reply.code = proto::kCoapContent;
                     reply.message_id =
                         static_cast<std::uint16_t>(request->message_id + 1);
                     reply.token = request->token;
                     EXPECT_EQ(reply.token.size, 4u);
                     network.send_udp(dg.dst, dg.src, reply.serialize());
                     replied = true;
                   });

  scan::ScanEngineConfig config;
  config.scanner_address = addr(0x2a00000000000002ULL, 1);
  // CoAP ends the protocol chain; a wide gap lets every TCP probe before
  // it settle first.
  config.min_protocol_delay = simnet::sec(10);
  config.max_protocol_delay = simnet::sec(10);
  config.max_pps = 100000;
  scan::ScanEngine engine(network, results, config);
  engine.submit(target);

  while (!replied) ASSERT_TRUE(events.step());
  AllocCount count;
  while (results.count(scan::Dataset::kNtp, scan::Protocol::kCoap,
                       scan::Outcome::kMalformed) == 0)
    ASSERT_TRUE(events.step());
  EXPECT_EQ(count(), 0u);
  events.run();
}

TEST(Alloc, DeadTcpProbesAllocateNothingOnceTheSlabIsWarm) {
  simnet::EventQueue events;
  simnet::Network network(events);
  scan::ResultStore results;
  scan::ScanEngineConfig config;
  config.scanner_address = addr(0x2a00000000000002ULL, 1);
  // One probe at a time: each TCP probe gives up at the connect timeout
  // (5 s) before the next protocol launches.
  config.min_protocol_delay = simnet::sec(10);
  config.max_protocol_delay = simnet::sec(10);
  config.max_pps = 100000;
  scan::ScanEngine engine(network, results, config);

  // Warm-up: one dead target's whole chain sizes the probe slab, the
  // event heap and the staging queue.
  engine.submit(addr(0x2a00000000000001ULL, 7));
  events.run();
  ASSERT_EQ(engine.probes_completed(), scan::kProtocolCount);

  // A second dead target. Its submission may grow the blackout table (see
  // FreshTargetsGrowTheBlackoutTableGeometrically), so counting starts
  // after its first launch and covers its seven TCP probes: launch,
  // blackholed connect, timeout, tally.
  engine.submit(addr(0x2a00000000000001ULL, 8));
  while (engine.probes_launched() == scan::kProtocolCount)
    ASSERT_TRUE(events.step());
  AllocCount count;
  while (engine.probes_completed(scan::Protocol::kAmqps) < 2)
    ASSERT_TRUE(events.step());
  EXPECT_EQ(count(), 0u);
  EXPECT_EQ(engine.probes_launched(scan::Protocol::kCoap), 1u);
  EXPECT_EQ(results.count(scan::Dataset::kNtp, scan::Protocol::kAmqps,
                          scan::Outcome::kTimeout),
            2u);
  events.run();
}

// The rescan blackout table holds every target a feed ever submitted (a
// paper_small study stages about 110k): growing it costs O(log N)
// allocations, not one per target.
TEST(Alloc, FreshTargetsGrowTheBlackoutTableGeometrically) {
  simnet::EventQueue events;
  simnet::Network network(events);
  scan::ResultStore results;
  scan::ScanEngineConfig config;
  config.scanner_address = addr(0x2a00000000000002ULL, 1);
  scan::ScanEngine engine(network, results, config);
  constexpr std::uint64_t kTargets = 2000;
  ASSERT_GE(config.max_pending, kTargets);
  AllocCount count;
  for (std::uint64_t i = 0; i < kTargets; ++i)
    ASSERT_EQ(engine.try_submit(addr(0x2a00000000000001ULL, i + 1)),
              scan::SubmitResult::kAccepted);
  EXPECT_LT(count(), 64u);
  EXPECT_EQ(engine.try_submit(addr(0x2a00000000000001ULL, 1)),
            scan::SubmitResult::kBlackout);
}

}  // namespace
}  // namespace tts
