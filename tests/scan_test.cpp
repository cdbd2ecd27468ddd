// Scan engine mechanics: outcomes, rate limiting, blackout, staggering.
#include <gtest/gtest.h>

#include "inet/services.hpp"
#include "proto/amqp.hpp"
#include "proto/coap.hpp"
#include "proto/http.hpp"
#include "proto/mqtt.hpp"
#include "proto/sshwire.hpp"
#include "proto/tlslite.hpp"
#include "proto/ports.hpp"
#include "scan/engine.hpp"

namespace tts::scan {
namespace {

net::Ipv6Address addr(std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x2400002000000000ULL, lo);
}

class ScanTest : public ::testing::Test {
 protected:
  ScanTest() : network_(events_) {}

  ScanEngineConfig fast_config() {
    ScanEngineConfig c;
    c.scanner_address = addr(0xdead);
    c.min_protocol_delay = simnet::usec(10);
    c.max_protocol_delay = simnet::usec(20);
    c.max_pps = 100000;
    return c;
  }

  /// A plain-HTTP one-page server on (target, 80).
  void serve_http(const net::Ipv6Address& target, const std::string& title) {
    network_.attach(target);
    network_.listen_tcp(
        {target, proto::kHttpPort}, [title](simnet::TcpConnectionPtr conn) {
          conn->set_on_data(
              simnet::TcpConnection::Side::kServer,
              [conn, title](std::vector<std::uint8_t>) {
                proto::HttpResponse resp;
                resp.status = 200;
                resp.server = "test";
                resp.body = proto::html_page(title);
                conn->send(simnet::TcpConnection::Side::kServer,
                           resp.serialize());
                conn->close(simnet::TcpConnection::Side::kServer);
              });
        });
  }

  simnet::EventQueue events_;
  simnet::Network network_;
  ResultStore results_;
};

TEST_F(ScanTest, OutcomesPerTargetState) {
  serve_http(addr(1), "Live");
  network_.attach(addr(2));  // online, no services -> refused
  // addr(3) offline -> timeout

  ScanEngine engine(network_, results_, fast_config());
  engine.submit(addr(1));
  engine.submit(addr(2));
  engine.submit(addr(3));
  events_.run();

  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kHttp,
                           Outcome::kSuccess),
            1u);
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kHttp,
                           Outcome::kRefused),
            1u);
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kHttp,
                           Outcome::kTimeout),
            1u);
  // The live host has no SSH listener -> refused there.
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kSsh,
                           Outcome::kRefused),
            2u);
  // CoAP over UDP to hosts without listeners: silence -> timeouts.
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kCoap,
                           Outcome::kTimeout),
            3u);
  // Every probe produced exactly one record.
  EXPECT_EQ(engine.probes_launched(), 3 * kProtocolCount);
  EXPECT_EQ(engine.probes_completed(), 3 * kProtocolCount);
}

TEST_F(ScanTest, SuccessRecordsCarryPayloads) {
  serve_http(addr(1), "My Page");
  ScanEngine engine(network_, results_, fast_config());
  engine.submit(addr(1));
  events_.run();
  auto hits = results_.successes(Dataset::kNtp, Protocol::kHttp);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->http_title, "My Page");
  EXPECT_TRUE(hits[0]->http_has_title);
  EXPECT_EQ(hits[0]->http_server, "test");
  EXPECT_EQ(hits[0]->http_status, 200);
}

TEST_F(ScanTest, BlackoutSuppressesRescans) {
  auto config = fast_config();
  ScanEngine engine(network_, results_, config);

  EXPECT_TRUE(engine.submit(addr(5)));
  EXPECT_FALSE(engine.submit(addr(5)));  // immediately again: skipped
  events_.run();
  EXPECT_EQ(engine.skipped_blackout(), 1u);

  // After the blackout expires it is scanned again.
  events_.schedule_at(simnet::days(3) + simnet::sec(1), [&] {
    EXPECT_TRUE(engine.submit(addr(5)));
  });
  events_.run();
  EXPECT_EQ(engine.submitted(), 2u);
}

TEST_F(ScanTest, RateLimiterSpacesProbes) {
  auto config = fast_config();
  config.max_pps = 10;  // 100 ms per probe
  config.min_protocol_delay = simnet::usec(0);
  config.max_protocol_delay = simnet::usec(1);
  ScanEngine engine(network_, results_, config);
  // 4 targets x 8 protocols = 32 probes at 10 pps >= 3.1 s span.
  for (std::uint64_t i = 0; i < 4; ++i) engine.submit(addr(100 + i));
  events_.run();
  EXPECT_GE(events_.now(), simnet::msec(3100));
  EXPECT_EQ(engine.probes_completed(), 32u);
}

TEST_F(ScanTest, ProtocolStaggerSpreadsOneTargetsProbes) {
  auto config = fast_config();
  config.min_protocol_delay = simnet::sec(10);
  config.max_protocol_delay = simnet::minutes(10);
  serve_http(addr(1), "x");
  ScanEngine engine(network_, results_, config);
  engine.submit(addr(1));
  events_.run();
  // The last protocol of the target must start at least
  // 7 * min_protocol_delay after the first.
  EXPECT_GE(events_.now(), 7 * simnet::sec(10));
}

TEST_F(ScanTest, TlsScannerRecordsCertificate) {
  // Serve HTTPS with a fixed certificate via a runtime-style handler.
  network_.attach(addr(9));
  network_.listen_tcp({addr(9), proto::kHttpsPort},
                      [](simnet::TcpConnectionPtr conn) {
    conn->set_on_data(
        simnet::TcpConnection::Side::kServer,
        [conn](std::vector<std::uint8_t> data) {
          auto msg = proto::decode(data);
          if (!msg) return;
          if (msg->kind == proto::TlsMessage::Kind::kClientHello) {
            proto::ServerHello hello;
            hello.cert.fingerprint = 0x4242;
            hello.cert.subject = "CN=unit";
            conn->send(simnet::TcpConnection::Side::kServer,
                       proto::encode(hello));
            return;
          }
          if (msg->kind == proto::TlsMessage::Kind::kAppData) {
            proto::HttpResponse resp;
            resp.status = 200;
            resp.body = proto::html_page("secure");
            conn->send(simnet::TcpConnection::Side::kServer,
                       proto::encode_app_data(resp.serialize()));
            conn->close(simnet::TcpConnection::Side::kServer);
          }
        });
  });

  ScanEngine engine(network_, results_, fast_config());
  engine.submit(addr(9));
  events_.run();
  auto hits = results_.successes(Dataset::kNtp, Protocol::kHttps);
  ASSERT_EQ(hits.size(), 1u);
  ASSERT_TRUE(hits[0]->certificate);
  EXPECT_EQ(hits[0]->certificate->fingerprint, 0x4242u);
  EXPECT_EQ(hits[0]->http_title, "secure");
}

TEST_F(ScanTest, MqttsProbeCompletesTlsAndAuthCheck) {
  // Hand-built TLS MQTT broker enforcing auth.
  network_.attach(addr(11));
  network_.listen_tcp({addr(11), proto::kMqttsPort},
                      [](simnet::TcpConnectionPtr conn) {
    auto established = std::make_shared<bool>(false);
    conn->set_on_data(
        simnet::TcpConnection::Side::kServer,
        [conn, established](std::vector<std::uint8_t> data) {
          auto msg = proto::decode(data);
          if (!msg) return;
          if (msg->kind == proto::TlsMessage::Kind::kClientHello) {
            proto::ServerHello hello;
            hello.cert.fingerprint = 0xB40C;
            conn->send(simnet::TcpConnection::Side::kServer,
                       proto::encode(hello));
            *established = true;
            return;
          }
          if (msg->kind == proto::TlsMessage::Kind::kAppData &&
              *established) {
            auto connect = proto::MqttConnect::parse(msg->app_data);
            proto::MqttConnack ack;
            ack.code = (connect && connect->username.empty())
                           ? proto::MqttConnectReturn::kNotAuthorized
                           : proto::MqttConnectReturn::kAccepted;
            conn->send(simnet::TcpConnection::Side::kServer,
                       proto::encode_app_data(ack.serialize()));
            conn->close(simnet::TcpConnection::Side::kServer);
          }
        });
  });

  ScanEngine engine(network_, results_, fast_config());
  engine.submit(addr(11));
  events_.run();
  auto hits = results_.successes(Dataset::kNtp, Protocol::kMqtts);
  ASSERT_EQ(hits.size(), 1u);
  ASSERT_TRUE(hits[0]->certificate);
  EXPECT_EQ(hits[0]->certificate->fingerprint, 0xB40Cu);
  EXPECT_EQ(hits[0]->broker_auth_required, std::optional<bool>(true));
}

TEST_F(ScanTest, AmqpsProbeNegotiatesThroughTls) {
  // TLS AMQP broker that accepts guest (no access control).
  network_.attach(addr(12));
  network_.listen_tcp({addr(12), proto::kAmqpsPort},
                      [](simnet::TcpConnectionPtr conn) {
    auto established = std::make_shared<bool>(false);
    auto started = std::make_shared<bool>(false);
    conn->set_on_data(
        simnet::TcpConnection::Side::kServer,
        [conn, established, started](std::vector<std::uint8_t> data) {
          auto msg = proto::decode(data);
          if (!msg) return;
          if (msg->kind == proto::TlsMessage::Kind::kClientHello) {
            proto::ServerHello hello;
            hello.cert.fingerprint = 0xA3;
            conn->send(simnet::TcpConnection::Side::kServer,
                       proto::encode(hello));
            *established = true;
            return;
          }
          if (msg->kind != proto::TlsMessage::Kind::kAppData ||
              !*established)
            return;
          if (!*started) {
            if (!proto::is_amqp_protocol_header(msg->app_data)) return;
            *started = true;
            proto::AmqpFrame start;
            start.method = proto::AmqpMethod::kStart;
            start.text = "RabbitMQ";
            conn->send(simnet::TcpConnection::Side::kServer,
                       proto::encode_app_data(start.serialize()));
            return;
          }
          proto::AmqpFrame tune;
          tune.method = proto::AmqpMethod::kTune;
          conn->send(simnet::TcpConnection::Side::kServer,
                     proto::encode_app_data(tune.serialize()));
          conn->close(simnet::TcpConnection::Side::kServer);
        });
  });

  ScanEngine engine(network_, results_, fast_config());
  engine.submit(addr(12));
  events_.run();
  auto hits = results_.successes(Dataset::kNtp, Protocol::kAmqps);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->broker_auth_required, std::optional<bool>(false));
  ASSERT_TRUE(hits[0]->certificate);
}

TEST_F(ScanTest, MalformedServerBytesAreRecorded) {
  network_.attach(addr(7));
  network_.listen_tcp({addr(7), proto::kSshPort},
                      [](simnet::TcpConnectionPtr conn) {
                        conn->send(simnet::TcpConnection::Side::kServer,
                                   {'N', 'O', 'P', 'E', '\r', '\n'});
                      });
  ScanEngine engine(network_, results_, fast_config());
  engine.submit(addr(7));
  events_.run();
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kSsh,
                           Outcome::kMalformed),
            1u);
}

TEST_F(ScanTest, PeerHangUpBeforeReplyIsMalformed) {
  // Each server accepts, reads the opening message and hangs up without
  // replying: the client-speaks-first protocols record a malformed probe.
  const struct {
    Protocol protocol;
    std::uint64_t host;
  } cases[] = {{Protocol::kHttp, 21}, {Protocol::kMqtt, 22},
               {Protocol::kAmqp, 23}};
  ScanEngine engine(network_, results_, fast_config());
  for (const auto& c : cases) {
    network_.attach(addr(c.host));
    network_.listen_tcp({addr(c.host), port_of(c.protocol)},
                        [](simnet::TcpConnectionPtr conn) {
                          conn->set_on_data(
                              simnet::TcpConnection::Side::kServer,
                              [conn](std::vector<std::uint8_t>) {
                                conn->close(
                                    simnet::TcpConnection::Side::kServer);
                              });
                        });
    engine.submit(addr(c.host));
  }
  events_.run();
  for (const auto& c : cases) {
    SCOPED_TRACE(to_string(c.protocol));
    EXPECT_EQ(results_.count(Dataset::kNtp, c.protocol, Outcome::kMalformed),
              1u);
    EXPECT_EQ(results_.total(Dataset::kNtp, c.protocol), 3u);
  }
}

TEST_F(ScanTest, SshBannerThenHangUpIsBannerOnlySuccess) {
  network_.attach(addr(24));
  network_.listen_tcp({addr(24), proto::kSshPort},
                      [](simnet::TcpConnectionPtr conn) {
                        conn->send(simnet::TcpConnection::Side::kServer,
                                   proto::ssh_id_string("SSH-2.0-unit_1.0"));
                        conn->close(simnet::TcpConnection::Side::kServer);
                      });
  ScanEngine engine(network_, results_, fast_config());
  engine.submit(addr(24));
  events_.run();
  auto hits = results_.successes(Dataset::kNtp, Protocol::kSsh);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->ssh_banner, "SSH-2.0-unit_1.0");
  EXPECT_FALSE(hits[0]->ssh_hostkey);
}

TEST_F(ScanTest, CoapReplyWithWrongMessageIdIsMalformed) {
  network_.attach(addr(25));
  network_.bind_udp({addr(25), proto::kCoapPort},
                    [this](const simnet::Datagram& dg) {
                      auto request = proto::CoapMessage::parse(dg.payload);
                      ASSERT_TRUE(request);
                      proto::CoapMessage reply;
                      reply.type = proto::CoapType::kAck;
                      reply.code = proto::kCoapContent;
                      reply.message_id =
                          static_cast<std::uint16_t>(request->message_id + 1);
                      reply.token = request->token;
                      network_.send_udp(dg.dst, dg.src, reply.serialize());
                    });
  ScanEngine engine(network_, results_, fast_config());
  engine.submit(addr(25));
  events_.run();
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kCoap,
                           Outcome::kMalformed),
            1u);
}

// ---- probe lifecycle: one slab slot per probe, a guard only on contact ----

/// Step `events` until `done()` holds; false if the queue ran dry first.
template <typename Done>
bool step_until(simnet::EventQueue& events, Done done) {
  while (!done())
    if (!events.step()) return false;
  return true;
}

/// A config whose protocol chain waits 10 s between probes, so one
/// target's TCP probes run one at a time and each ends before the next.
ScanEngineConfig spaced_config() {
  ScanEngineConfig c;
  c.scanner_address = addr(0xdead);
  c.min_protocol_delay = simnet::sec(10);
  c.max_protocol_delay = simnet::sec(10);
  c.max_pps = 100000;
  return c;
}

simnet::FaultRule stall_http(const net::Ipv6Address& target) {
  return {.prefix = net::Ipv6Prefix(target, 128),
          .kind = simnet::FaultKind::kStall,
          .dst_port = proto::kHttpPort};
}

TEST_F(ScanTest, StalledConnectionTimesOutAtTheProbeDeadline) {
  serve_http(addr(30), "never seen");
  simnet::FaultScenario scenario;
  scenario.rules.push_back(stall_http(addr(30)));
  network_.install_faults(scenario);
  ScanEngine engine(network_, results_, spaced_config());
  engine.submit(addr(30));
  ASSERT_TRUE(
      step_until(events_, [&] { return engine.probes_launched() == 1; }));
  const simnet::SimTime launched = events_.now();
  ASSERT_TRUE(step_until(events_, [&] {
    return engine.probes_completed(Protocol::kHttp) == 1;
  }));
  EXPECT_EQ(network_.tcp_established(), 1u);  // it did connect
  EXPECT_EQ(events_.now() - launched, ScanEngine::kProbeTimeout);
  ASSERT_EQ(engine.probe_rtt().count(), 1u);
  EXPECT_EQ(engine.probe_rtt().max(), ScanEngine::kProbeTimeout);
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kHttp, Outcome::kTimeout),
            1u);
  events_.run();
}

TEST_F(ScanTest, BlackholedConnectEndsItsProbeWithoutAGuard) {
  // addr(31) is offline: every connect is blackholed and gives up at the
  // connect timeout, which ends the probe; no guard event is scheduled.
  auto config = spaced_config();
  config.connect_timeout = simnet::sec(3);
  ScanEngine engine(network_, results_, config);
  const auto probe_cat = events_.register_category("scan_probe");
  engine.submit(addr(31));
  ASSERT_TRUE(
      step_until(events_, [&] { return engine.probes_launched() == 1; }));
  const simnet::SimTime launched = events_.now();
  ASSERT_TRUE(step_until(events_, [&] {
    return engine.probes_completed(Protocol::kHttp) == 1;
  }));
  EXPECT_EQ(events_.now() - launched, config.connect_timeout);
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kHttp, Outcome::kTimeout),
            1u);
  // Every TCP probe of the chain (CoAP, last, has not launched yet).
  ASSERT_TRUE(step_until(events_, [&] {
    return engine.probes_completed(Protocol::kAmqps) == 1;
  }));
  EXPECT_EQ(engine.probes_launched(Protocol::kCoap), 0u);
  EXPECT_EQ(engine.probes_completed(), kProtocolCount - 1);
  EXPECT_EQ(events_.category_executed(probe_cat), 0u);
  // The CoAP probe does arm its guard: UDP silence has no other end.
  events_.run();
  EXPECT_EQ(events_.category_executed(probe_cat), 1u);
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kCoap, Outcome::kTimeout),
            1u);
}

TEST_F(ScanTest, StaleGuardDoesNotEndTheSlotsNextProbe) {
  // addr(32)'s HTTP probe succeeds within milliseconds, leaving its guard
  // armed for launch + 8 s. addr(33)'s HTTP probe launches next, takes the
  // slot the first one freed (the only vacant slot it could take: nothing
  // else is in flight) and stalls. The first guard fires while the second
  // probe is still waiting, and must not end it.
  serve_http(addr(32), "quick");
  serve_http(addr(33), "stalled");
  simnet::FaultScenario scenario;
  scenario.rules.push_back(stall_http(addr(33)));
  network_.install_faults(scenario);
  ScanEngine engine(network_, results_, spaced_config());
  engine.submit(addr(32));
  ASSERT_TRUE(
      step_until(events_, [&] { return engine.probes_launched() == 1; }));
  const simnet::SimTime first_launch = events_.now();
  ASSERT_TRUE(step_until(events_, [&] {
    return engine.probes_completed(Protocol::kHttp) == 1;
  }));
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kHttp, Outcome::kSuccess),
            1u);
  ASSERT_TRUE(step_until(events_, [&] {
    return events_.now() > first_launch + simnet::sec(1);
  }));

  engine.submit(addr(33));
  ASSERT_TRUE(
      step_until(events_, [&] { return engine.probes_launched() == 2; }));
  const simnet::SimTime second_launch = events_.now();
  ASSERT_TRUE(step_until(events_, [&] {
    return engine.probes_completed(Protocol::kHttp) == 2;
  }));
  EXPECT_GT(events_.now(), first_launch + ScanEngine::kProbeTimeout);
  EXPECT_EQ(events_.now() - second_launch, ScanEngine::kProbeTimeout);
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kHttp, Outcome::kTimeout),
            1u);
  events_.run();
}

TEST_F(ScanTest, ConnectReportedAfterTheDeadlineIsATimeout) {
  // A 5 s one-way delay makes the handshake take over 10 s, past the
  // probe's 8 s deadline: the late connection is a timeout, and closed.
  serve_http(addr(34), "late");
  simnet::FaultScenario scenario;
  scenario.rules.push_back({.prefix = net::Ipv6Prefix(addr(34), 128),
                            .kind = simnet::FaultKind::kDelay,
                            .added_latency = simnet::sec(5),
                            .udp = false,
                            .dst_port = proto::kHttpPort});
  network_.install_faults(scenario);
  ScanEngine engine(network_, results_, spaced_config());
  engine.submit(addr(34));
  ASSERT_TRUE(step_until(events_, [&] {
    return engine.probes_completed(Protocol::kHttp) == 1;
  }));
  EXPECT_EQ(network_.tcp_established(), 1u);
  EXPECT_GT(engine.probe_rtt().max(), ScanEngine::kProbeTimeout);
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kHttp, Outcome::kTimeout),
            1u);
  events_.run();
  EXPECT_EQ(results_.count(Dataset::kNtp, Protocol::kHttp, Outcome::kSuccess),
            0u);
}

TEST_F(ScanTest, ResultStoreTotals) {
  serve_http(addr(1), "t");
  ScanEngine engine(network_, results_, fast_config());
  engine.submit(addr(1));
  events_.run();
  EXPECT_EQ(results_.total(Dataset::kNtp), kProtocolCount);
  EXPECT_EQ(results_.total(Dataset::kHitlist), 0u);
  EXPECT_EQ(results_.total(Dataset::kNtp, Protocol::kHttp), 1u);
}

TEST_F(ScanTest, ProtocolMetadata) {
  EXPECT_EQ(port_of(Protocol::kHttps), 443);
  EXPECT_EQ(port_of(Protocol::kCoap), 5683);
  EXPECT_TRUE(is_tls(Protocol::kMqtts));
  EXPECT_FALSE(is_tls(Protocol::kSsh));
  EXPECT_EQ(to_string(Protocol::kAmqps), "AMQPS");
  EXPECT_EQ(to_string(Dataset::kHitlist), "TUM IPv6 Hitlist");
  EXPECT_EQ(to_string(Outcome::kTlsFailed), "tls-failed");
}

}  // namespace
}  // namespace tts::scan
