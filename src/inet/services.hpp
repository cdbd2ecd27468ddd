// Runtime side of the synthetic Internet: brings the population online.
//
// For every device, the InternetRuntime attaches its current address,
// binds byte-level protocol servers (HTTP/S, SSH, MQTT/S, AMQP/S, CoAP)
// matching the device's instantiated configuration, schedules daily
// address churn (ISP prefix rotation, privacy-IID regeneration), and
// drives its NTP pool polling. It also operates the fully aliased CDN
// region that answers HTTP on every address of the hyperscaler prefix.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "inet/population.hpp"
#include "ntp/pool.hpp"
#include "proto/tlslite.hpp"
#include "simnet/network.hpp"
#include "util/flat_map.hpp"

namespace tts::inet {

struct RuntimeConfig {
  simnet::SimDuration duration = simnet::days(28);
  std::uint64_t seed = 0x5eed;
  /// Master switch for address churn (tests that probe devices at their
  /// initial addresses turn it off).
  bool enable_churn = true;
};

/// Builds the TLS certificate a device presents for `key` (deterministic:
/// same key id -> same certificate, which is what fingerprint dedup needs).
proto::Certificate make_certificate(KeyId key, const std::string& subject,
                                    bool self_signed,
                                    std::uint32_t lifetime_days);

class DeviceRuntime;

class InternetRuntime {
 public:
  InternetRuntime(simnet::Network& network, Population& population,
                  const ntp::NtpPool* pool, RuntimeConfig config = {});
  ~InternetRuntime();

  InternetRuntime(const InternetRuntime&) = delete;
  InternetRuntime& operator=(const InternetRuntime&) = delete;

  /// Attach devices, bind services, arm churn + NTP schedules, and start
  /// the CDN alias responder. Idempotent. On a sharded network each
  /// device's bring-up runs as a t=now event on its home domain, so churn
  /// and poll schedules live shard-locally from the first window.
  void start();

  /// Current primary address of a device (changes under churn).
  const net::Ipv6Address& address_of(std::uint32_t device_id) const;

  /// All addresses a device has held so far (ground truth for analyses).
  const std::vector<net::Ipv6Address>& address_history(
      std::uint32_t device_id) const;

  /// Device owning `addr` now, or nullptr.
  const Device* device_at(const net::Ipv6Address& addr) const;

  Population& population() { return population_; }
  simnet::Network& network() { return network_; }
  const RuntimeConfig& config() const { return config_; }

  std::uint64_t churn_events() const {
    return churn_events_.load(std::memory_order_relaxed);
  }
  std::uint64_t ntp_polls_sent() const {
    return ntp_polls_sent_.load(std::memory_order_relaxed);
  }

 private:
  friend class DeviceRuntime;

  simnet::Network& network_;
  Population& population_;
  const ntp::NtpPool* pool_;
  RuntimeConfig config_;
  util::Rng rng_;
  bool started_ = false;

  std::vector<std::unique_ptr<DeviceRuntime>> devices_;
  /// Guards address_owner_: devices on different shards claim and release
  /// addresses concurrently, and hitlist partials call device_at() from
  /// every domain.
  mutable std::mutex owner_mu_;  // ttslint: allow(thread-confine) reason=guards cross-shard address ownership (documented above)
  util::FlatMap<net::Ipv6Address, std::uint32_t, net::Ipv6AddressFlatHash>
      address_owner_;
  // ttslint: allow(thread-confine) reason=relaxed study counter bumped on any domain, read at barriers
  std::atomic<std::uint64_t> churn_events_{0};
  // ttslint: allow(thread-confine) reason=relaxed study counter bumped on any domain, read at barriers
  std::atomic<std::uint64_t> ntp_polls_sent_{0};
  // Dispatch-profiler categories shared by every device agent.
  simnet::EventQueue::CategoryId start_cat_;
  simnet::EventQueue::CategoryId churn_cat_;
  simnet::EventQueue::CategoryId poll_cat_;
};

}  // namespace tts::inet
