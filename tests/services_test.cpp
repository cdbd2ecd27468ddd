// Integration: the device runtime binds real byte-level services that the
// protocol scanners can talk to, churn rotates addresses, and NTP polling
// reaches pool servers.
#include <gtest/gtest.h>

#include <array>

#include "inet/services.hpp"
#include "ntp/ntp_server.hpp"
#include "proto/ports.hpp"
#include "scan/engine.hpp"
#include "scan/results.hpp"

namespace tts::inet {
namespace {

class ServicesTest : public ::testing::Test {
 protected:
  ServicesTest()
      : network_(events_),
        registry_(AsRegistry::generate({{}, 3})),
        population_([this] {
          PopulationConfig config;
          config.device_scale = 0.08;
          config.seed = 21;
          return Population::generate(registry_, config);
        }()) {}

  /// Runtime config for address-stable tests (no churn).
  static RuntimeConfig stable() {
    RuntimeConfig c;
    c.enable_churn = false;
    return c;
  }

  /// Finds a device of a class that has the wanted service.
  const Device* find_device(DeviceClass cls) {
    for (const auto& d : population_.devices())
      if (d.profile->cls == cls && d.any_service()) return &d;
    return nullptr;
  }

  /// One protocol's result from a probe run: the outcome tallied for it
  /// and, on kSuccess, the stored record (failures are tallied, not
  /// stored, so `record` stays default-constructed then).
  struct Probed {
    scan::Outcome outcome = scan::Outcome::kTimeout;
    scan::ScanRecord record{};
  };

  /// Probes every protocol of `target` with a fresh engine.
  std::array<Probed, scan::kProtocolCount> probe_all(
      const net::Ipv6Address& target) {
    scan::ResultStore results;
    scan::ScanEngineConfig config;
    config.scanner_address =
        net::Ipv6Address::from_halves(0x3fff000000000000ULL, 1);
    config.min_protocol_delay = simnet::usec(1);
    config.max_protocol_delay = simnet::usec(2);
    scan::ScanEngine engine(network_, results, config);
    engine.submit(target);
    events_.run();
    std::array<Probed, scan::kProtocolCount> out{};
    for (std::size_t p = 0; p < scan::kProtocolCount; ++p) {
      auto proto = static_cast<scan::Protocol>(p);
      for (auto o : {scan::Outcome::kSuccess, scan::Outcome::kRefused,
                     scan::Outcome::kTimeout, scan::Outcome::kTlsFailed,
                     scan::Outcome::kMalformed}) {
        if (results.count(scan::Dataset::kNtp, proto, o) > 0)
          out[p].outcome = o;
      }
    }
    for (const auto& r : results.records())
      if (r.target == target)
        out[static_cast<std::size_t>(r.protocol)].record = r;
    return out;
  }

  /// Probes a target with a fresh engine; returns the success record for
  /// `proto` (outcome left untouched on failure) and, via `outcome`, the
  /// outcome the store tallied for it.
  void probe(scan::Protocol proto, const net::Ipv6Address& target,
             scan::ScanRecord& out) {
    scan::Outcome ignored;
    probe(proto, target, out, ignored);
  }

  void probe(scan::Protocol proto, const net::Ipv6Address& target,
             scan::ScanRecord& out, scan::Outcome& outcome) {
    Probed probed = probe_all(target)[static_cast<std::size_t>(proto)];
    outcome = probed.outcome;
    if (probed.outcome == scan::Outcome::kSuccess) out = probed.record;
  }

  simnet::EventQueue events_;
  simnet::Network network_;
  AsRegistry registry_;
  Population population_;
};

TEST_F(ServicesTest, FritzBoxServesTitledHttpsWithUniqueCert) {
  ntp::NtpPool pool;
  InternetRuntime runtime(network_, population_, &pool, stable());
  runtime.start();

  const Device* fritz = find_device(DeviceClass::kFritzBox);
  ASSERT_NE(fritz, nullptr);
  ASSERT_TRUE(fritz->http_enabled);

  scan::ScanRecord https{};
  probe(scan::Protocol::kHttps, fritz->initial_address, https);
  EXPECT_EQ(https.outcome, scan::Outcome::kSuccess);
  EXPECT_EQ(https.http_status, 200);
  EXPECT_EQ(https.http_title, "FRITZ!Box");
  ASSERT_TRUE(https.certificate);
  EXPECT_EQ(https.certificate->fingerprint, fritz->http_cert);
  EXPECT_TRUE(https.certificate->self_signed);  // consumer device
}

TEST_F(ServicesTest, SshServerSpeaksBannerAndHostKey) {
  ntp::NtpPool pool;
  InternetRuntime runtime(network_, population_, &pool, stable());
  runtime.start();

  const Device* server = find_device(DeviceClass::kUbuntuServer);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->ssh_enabled);

  scan::ScanRecord ssh{};
  probe(scan::Protocol::kSsh, server->initial_address, ssh);
  EXPECT_EQ(ssh.outcome, scan::Outcome::kSuccess);
  EXPECT_EQ(ssh.ssh_banner,
            ssh_banner(server->ssh_os, server->ssh_version_index));
  ASSERT_TRUE(ssh.ssh_hostkey);
  EXPECT_EQ(*ssh.ssh_hostkey, server->ssh_key);
}

TEST_F(ServicesTest, MqttBrokerReportsAuthPolicy) {
  ntp::NtpPool pool;
  InternetRuntime runtime(network_, population_, &pool, stable());
  runtime.start();

  const Device* open_broker = nullptr;
  const Device* auth_broker = nullptr;
  for (const auto& d : population_.devices()) {
    if (!d.mqtt_enabled) continue;
    if (d.mqtt_auth && !auth_broker) auth_broker = &d;
    if (!d.mqtt_auth && !open_broker) open_broker = &d;
  }
  ASSERT_NE(open_broker, nullptr);
  ASSERT_NE(auth_broker, nullptr);

  scan::ScanRecord open_record{};
  probe(scan::Protocol::kMqtt, open_broker->initial_address, open_record);
  EXPECT_EQ(open_record.outcome, scan::Outcome::kSuccess);
  EXPECT_EQ(open_record.broker_auth_required, std::optional<bool>(false));

  scan::ScanRecord auth_record{};
  probe(scan::Protocol::kMqtt, auth_broker->initial_address, auth_record);
  EXPECT_EQ(auth_record.outcome, scan::Outcome::kSuccess);
  EXPECT_EQ(auth_record.broker_auth_required, std::optional<bool>(true));
}

TEST_F(ServicesTest, MqttsBrokersPresentTheirCertAndAuthPolicy) {
  ntp::NtpPool pool;
  InternetRuntime runtime(network_, population_, &pool, stable());
  runtime.start();

  int brokers = 0;
  for (const auto& d : population_.devices()) {
    if (!d.mqtt_enabled || !d.mqtt_tls) continue;
    ++brokers;
    scan::ScanRecord mqtts{};
    scan::Outcome outcome = scan::Outcome::kTimeout;
    probe(scan::Protocol::kMqtts, d.initial_address, mqtts, outcome);
    EXPECT_EQ(outcome, scan::Outcome::kSuccess);
    ASSERT_TRUE(mqtts.certificate);
    EXPECT_EQ(mqtts.certificate->fingerprint, d.mqtt_cert);
    EXPECT_EQ(mqtts.broker_auth_required, std::optional<bool>(d.mqtt_auth));
  }
  EXPECT_EQ(brokers, 2);
}

TEST_F(ServicesTest, AmqpBrokersEnforcingAuthAnswerClose403) {
  ntp::NtpPool pool;
  InternetRuntime runtime(network_, population_, &pool, stable());
  runtime.start();

  int brokers = 0, tls_brokers = 0;
  for (const auto& d : population_.devices()) {
    if (!d.amqp_enabled || !d.amqp_auth) continue;
    ++brokers;
    auto probed = probe_all(d.initial_address);
    const Probed& amqp =
        probed[static_cast<std::size_t>(scan::Protocol::kAmqp)];
    EXPECT_EQ(amqp.outcome, scan::Outcome::kSuccess);
    EXPECT_EQ(amqp.record.broker_auth_required, std::optional<bool>(true));
    if (!d.amqp_tls) continue;
    ++tls_brokers;
    const Probed& amqps =
        probed[static_cast<std::size_t>(scan::Protocol::kAmqps)];
    EXPECT_EQ(amqps.outcome, scan::Outcome::kSuccess);
    EXPECT_EQ(amqps.record.broker_auth_required, std::optional<bool>(true));
    ASSERT_TRUE(amqps.record.certificate);
    EXPECT_EQ(amqps.record.certificate->fingerprint, d.amqp_cert);
  }
  EXPECT_EQ(brokers, 3);
  EXPECT_EQ(tls_brokers, 1);
}

TEST_F(ServicesTest, SniRequiredDeviceFailsAddressOnlyHandshake) {
  ntp::NtpPool pool;
  InternetRuntime runtime(network_, population_, &pool, stable());
  runtime.start();

  int devices = 0;
  for (const auto& d : population_.devices()) {
    if (!d.sni_required || !d.http_tls) continue;
    ++devices;
    scan::ScanRecord https{};
    scan::Outcome outcome = scan::Outcome::kSuccess;
    probe(scan::Protocol::kHttps, d.initial_address, https, outcome);
    EXPECT_EQ(outcome, scan::Outcome::kTlsFailed);
  }
  EXPECT_EQ(devices, 1);
}

TEST_F(ServicesTest, CoapDeviceAdvertisesItsResources) {
  ntp::NtpPool pool;
  InternetRuntime runtime(network_, population_, &pool, stable());
  runtime.start();

  const Device* cast = find_device(DeviceClass::kCastDevice);
  ASSERT_NE(cast, nullptr);
  scan::ScanRecord coap{};
  probe(scan::Protocol::kCoap, cast->initial_address, coap);
  EXPECT_EQ(coap.outcome, scan::Outcome::kSuccess);
  ASSERT_EQ(coap.coap_resources.size(), 1u);
  EXPECT_EQ(coap.coap_resources[0], "/castDeviceSearch");
}

TEST_F(ServicesTest, CdnAliasRegionAnswersEverywhereButFailsTlsWithoutSni) {
  ntp::NtpPool pool;
  InternetRuntime runtime(network_, population_, &pool, stable());
  runtime.start();

  auto region = registry_.cdn_alias_region();
  auto random_addr = net::Ipv6Address::from_halves(
      region.address().hi64() | 0x12345, 0x998877);

  scan::ScanRecord http{};
  probe(scan::Protocol::kHttp, random_addr, http);
  EXPECT_EQ(http.outcome, scan::Outcome::kSuccess);
  EXPECT_EQ(http.http_status, 200);
  EXPECT_FALSE(http.http_has_title);  // the "(no title)" flood

  scan::ScanRecord https{};
  scan::Outcome https_outcome = scan::Outcome::kSuccess;
  probe(scan::Protocol::kHttps, random_addr, https, https_outcome);
  EXPECT_EQ(https_outcome, scan::Outcome::kTlsFailed);
}

TEST_F(ServicesTest, ChurnRotatesDynamicAddresses) {
  ntp::NtpPool pool;
  RuntimeConfig config;
  config.duration = simnet::days(10);
  InternetRuntime runtime(network_, population_, &pool, config);
  runtime.start();
  events_.run_until(simnet::days(10));

  std::uint64_t rotated = 0, dynamic_devices = 0;
  for (const auto& d : population_.devices()) {
    if (d.profile->addr.daily_prefix_change <= 0 &&
        d.profile->addr.daily_iid_change <= 0)
      continue;
    ++dynamic_devices;
    if (runtime.address_history(d.id).size() > 1) ++rotated;
  }
  ASSERT_GT(dynamic_devices, 50u);
  // With per-day change probabilities >= 0.25 over 10 days, the
  // overwhelming majority must have rotated at least once.
  EXPECT_GT(static_cast<double>(rotated) /
                static_cast<double>(dynamic_devices),
            0.75);
  EXPECT_GT(runtime.churn_events(), 0u);
}

TEST_F(ServicesTest, ChurnedDeviceServesOnNewAddressNotOld) {
  ntp::NtpPool pool;
  RuntimeConfig config;
  config.duration = simnet::days(10);
  InternetRuntime runtime(network_, population_, &pool, config);
  runtime.start();
  events_.run_until(simnet::days(10));

  // Find a FRITZ!Box that rotated.
  for (const auto& d : population_.devices()) {
    if (d.profile->cls != DeviceClass::kFritzBox || !d.http_enabled) continue;
    const auto& history = runtime.address_history(d.id);
    if (history.size() < 2) continue;
    net::Ipv6Address current = runtime.address_of(d.id);
    net::Ipv6Address old = history.front();
    ASSERT_NE(current, old);

    scan::ScanRecord fresh{};
    probe(scan::Protocol::kHttp, current, fresh);
    EXPECT_EQ(fresh.outcome, scan::Outcome::kSuccess);

    scan::ScanRecord stale{};
    scan::Outcome stale_outcome = scan::Outcome::kSuccess;
    probe(scan::Protocol::kHttp, old, stale, stale_outcome);
    EXPECT_NE(stale_outcome, scan::Outcome::kSuccess);
    return;
  }
  GTEST_SKIP() << "no rotated FRITZ!Box in this tiny population";
}

TEST_F(ServicesTest, DevicesPollPoolServers) {
  ntp::NtpPool pool;
  ntp::AddressCollector collector;
  ntp::NtpServerConfig server_config;
  server_config.address = net::Ipv6Address::from_halves(0x3fff0000000000ffULL, 1);
  server_config.country = "DE";
  ntp::NtpServer server(network_, server_config, &collector);
  pool.add_server(
      {server_config.address, "DE", 1000, 20, true, 0});

  RuntimeConfig config;
  config.duration = simnet::days(2);
  InternetRuntime runtime(network_, population_, &pool, config);
  runtime.start();
  events_.run_until(simnet::days(2) + simnet::minutes(1));

  EXPECT_GT(runtime.ntp_polls_sent(), 100u);
  EXPECT_GT(collector.distinct_addresses(), 50u);
  // Only pool-using devices appear.
  for (const auto& d : population_.devices()) {
    if (d.profile->cls == DeviceClass::kDlinkCpe) {
      EXPECT_FALSE(collector.addresses().contains(d.initial_address));
    }
  }
}

TEST(Certificate, DeterministicFromKeyId) {
  auto a = make_certificate(42, "CN=x", false, 365);
  auto b = make_certificate(42, "CN=x", false, 365);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.not_before, b.not_before);
  EXPECT_EQ(a.not_after, b.not_after);
  EXPECT_GT(a.not_after, a.not_before);
}

}  // namespace
}  // namespace tts::inet
