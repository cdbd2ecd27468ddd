#include <gtest/gtest.h>

#include "ntp/client.hpp"
#include "ntp/collector.hpp"
#include "ntp/ntp_server.hpp"

namespace tts::ntp {
namespace {

net::Ipv6Address addr(std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x2400001000000000ULL, lo);
}

class NtpServerTest : public ::testing::Test {
 protected:
  NtpServerTest() : network_(events_) {}

  NtpServerConfig server_config(std::uint64_t lo, ServerId id) {
    NtpServerConfig c;
    c.address = addr(lo);
    c.country = "DE";
    c.id = id;
    return c;
  }

  simnet::EventQueue events_;
  simnet::Network network_;
  AddressCollector collector_;
};

TEST_F(NtpServerTest, AnswersValidRequestAndCapturesClient) {
  NtpServer server(network_, server_config(1, 7), &collector_);
  NtpClient client(network_);

  bool got = false;
  client.query(addr(100), 3333, addr(1),
               [&](std::optional<NtpQueryResult> result) {
                 ASSERT_TRUE(result);
                 EXPECT_EQ(result->response.stratum, 2);
                 EXPECT_TRUE(result->delay() > 0);
                 got = true;
               });
  events_.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(collector_.distinct_addresses(), 1u);
  EXPECT_EQ(collector_.server_distinct(7), 1u);
  EXPECT_TRUE(collector_.addresses().contains(addr(100)));
}

TEST_F(NtpServerTest, DeduplicatesRepeatedClients) {
  NtpServer server(network_, server_config(1, 0), &collector_);
  NtpClient client(network_);
  for (int i = 0; i < 5; ++i)
    client.query(addr(100), static_cast<std::uint16_t>(4000 + i), addr(1),
                 [](std::optional<NtpQueryResult>) {});
  events_.run();
  EXPECT_EQ(server.requests_served(), 5u);
  EXPECT_EQ(collector_.distinct_addresses(), 1u);
  EXPECT_EQ(collector_.total_requests(), 5u);
}

TEST_F(NtpServerTest, DropsMalformedAndNonClientModes) {
  NtpServer server(network_, server_config(1, 0), &collector_);
  network_.attach(addr(100));
  // Garbage payload.
  network_.send_udp({addr(100), 5000}, {addr(1), kNtpPort},
                    std::vector<std::uint8_t>{1, 2, 3});
  // A mode-4 (server) packet must not be answered.
  auto response_packet = NtpPacket::server_response(
      NtpPacket::client_request(0), 0, 0, 2, 1);
  network_.send_udp({addr(100), 5000}, {addr(1), kNtpPort},
                    response_packet.serialize());
  events_.run();
  EXPECT_EQ(server.requests_served(), 0u);
  EXPECT_EQ(server.malformed_dropped(), 2u);
  EXPECT_EQ(collector_.distinct_addresses(), 0u);
}

TEST_F(NtpServerTest, NoCaptureWhenDisabled) {
  auto config = server_config(1, 0);
  config.capture = false;
  NtpServer server(network_, config, &collector_);
  NtpClient client(network_);
  bool answered = false;
  client.query(addr(100), 3333, addr(1),
               [&](std::optional<NtpQueryResult> r) { answered = r.has_value(); });
  events_.run();
  EXPECT_TRUE(answered);  // still serves time
  EXPECT_EQ(collector_.distinct_addresses(), 0u);  // but logs nothing
}

TEST_F(NtpServerTest, ClientTimesOutAgainstDeadServer) {
  NtpClient client(network_);
  bool timed_out = false;
  client.query(addr(100), 3333, addr(99),
               [&](std::optional<NtpQueryResult> r) { timed_out = !r; },
               simnet::sec(2));
  events_.run();
  EXPECT_TRUE(timed_out);
}

TEST_F(NtpServerTest, CollectorSubscribersFireOnNewOnly) {
  int fired = 0;
  collector_.subscribe([&](const CollectedAddress&) { ++fired; });
  collector_.record(addr(1), 0, 0);
  collector_.record(addr(1), 0, simnet::sec(1));
  collector_.record(addr(2), 1, simnet::sec(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(collector_.daily_new().at(0), 2u);
}

TEST_F(NtpServerTest, CollectorBatchEqualsRecordLoop) {
  // record_batch must be observably identical to a record() loop: same
  // counters, same per-address subscriber order, same store state — plus
  // exactly one batch callback carrying only the fresh addresses.
  std::vector<net::Ipv6Address> stream = {addr(1), addr(2), addr(1),
                                          addr(3), addr(2), addr(4)};
  AddressCollector loop;
  std::vector<net::Ipv6Address> loop_seen;
  loop.subscribe([&](const CollectedAddress& a) { loop_seen.push_back(a.addr); });
  for (const auto& a : stream) loop.record(a, 3, simnet::sec(5));

  std::vector<net::Ipv6Address> batch_seen;
  std::vector<net::Ipv6Address> batch_fresh;
  int batch_calls = 0;
  collector_.subscribe(
      [&](const CollectedAddress& a) { batch_seen.push_back(a.addr); });
  collector_.subscribe_batch([&](const CollectedBatch& b) {
    ++batch_calls;
    EXPECT_EQ(b.server, 3u);
    EXPECT_EQ(b.first_seen, simnet::sec(5));
    batch_fresh.insert(batch_fresh.end(), b.addrs.begin(), b.addrs.end());
  });
  std::size_t fresh = collector_.record_batch(stream, 3, simnet::sec(5));

  EXPECT_EQ(fresh, 4u);
  EXPECT_EQ(batch_calls, 1);
  EXPECT_EQ(batch_seen, loop_seen);
  EXPECT_EQ(batch_fresh, loop_seen);
  EXPECT_EQ(collector_.total_requests(), loop.total_requests());
  EXPECT_EQ(collector_.dedup_hits(), loop.dedup_hits());
  EXPECT_EQ(collector_.server_distinct(3), loop.server_distinct(3));
  EXPECT_EQ(collector_.snapshot(), loop.snapshot());
  EXPECT_EQ(collector_.daily_new(), loop.daily_new());
  // An all-duplicate batch produces no batch callback.
  collector_.record_batch(stream, 3, simnet::sec(6));
  EXPECT_EQ(batch_calls, 1);
}

TEST_F(NtpServerTest, CollectorDailyTimeline) {
  collector_.record(addr(1), 0, simnet::days(0) + 5);
  collector_.record(addr(2), 0, simnet::days(1) + 5);
  collector_.record(addr(3), 0, simnet::days(1) + 50);
  EXPECT_EQ(collector_.daily_new().at(0), 1u);
  EXPECT_EQ(collector_.daily_new().at(1), 2u);
}

TEST_F(NtpServerTest, QueryResultOffsetReasonable) {
  NtpServer server(network_, server_config(1, 0), &collector_);
  NtpClient client(network_);
  client.query(addr(100), 3333, addr(1),
               [&](std::optional<NtpQueryResult> result) {
                 ASSERT_TRUE(result);
                 // Client and server share the simulation clock, so the
                 // measured offset must be small relative to the RTT.
                 EXPECT_LT(std::abs(result->offset()), result->delay());
               });
  events_.run();
}

}  // namespace
}  // namespace tts::ntp
