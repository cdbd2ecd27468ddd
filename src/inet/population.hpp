// Concrete device population: instantiates the catalogue into devices with
// origin ASes, customer prefixes, interface identifiers, MACs, service
// security parameters (certs, host keys, patch levels, auth), and dynamics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inet/as_registry.hpp"
#include "inet/device.hpp"
#include "net/ipv6.hpp"
#include "net/mac.hpp"
#include "util/rng.hpp"

namespace tts::inet {

/// Stable identifier of a TLS certificate or SSH host key. Two services
/// presenting the same id are indistinguishable to the scanner's
/// fingerprint-based deduplication — exactly how key reuse manifests.
using KeyId = std::uint64_t;

struct Device {
  std::uint32_t id = 0;
  const DeviceProfile* profile = nullptr;
  net::AsNumber asn = 0;
  std::string country;

  /// The customer delegation this device numbers itself in (a /56 for
  /// eyeball/mobile customers, a /64 for hosted servers).
  net::Ipv6Prefix delegation;
  /// Initial primary address (the runtime mutates the *current* address).
  net::Ipv6Address initial_address;
  std::uint64_t current_iid = 0;  // runtime: survives prefix-only rotation
  net::MacAddress mac;        // meaningful iff iid mode is kEui64
  bool vendor_mac = false;    // globally unique (unique bit) vs randomised

  // ---- instantiated service configuration ----
  bool http_enabled = false;
  bool http_tls = false;
  bool sni_required = false;
  int http_status = 200;
  std::string http_title;     // "{ip}" placeholder still unexpanded
  std::string http_server_header;
  KeyId http_cert = 0;        // 0 = no TLS cert

  bool ssh_enabled = false;
  std::string ssh_os;
  std::size_t ssh_version_index = 0;  // into ssh_version_lineage(os)
  KeyId ssh_key = 0;

  bool mqtt_enabled = false;
  bool mqtt_tls = false;
  bool mqtt_auth = false;
  KeyId mqtt_cert = 0;

  bool amqp_enabled = false;
  bool amqp_tls = false;
  bool amqp_auth = false;
  KeyId amqp_cert = 0;

  bool coap_enabled = false;

  // ---- behaviour ----
  bool uses_pool = false;
  double ntp_interval_hours = 8.0;
  double daily_prefix_change = 0.0;
  double daily_iid_change = 0.0;
  bool in_dns_sources = false;   // discoverable by DNS-based hitlist sources
  bool in_traceroute = false;

  /// True when the SSH banner carries a patch level older than the latest
  /// in its lineage (the Figure 2 metric).
  bool ssh_outdated() const {
    return ssh_enabled &&
           ssh_version_index + 1 < ssh_version_lineage(ssh_os).size();
  }
  bool any_service() const {
    return http_enabled || ssh_enabled || mqtt_enabled || amqp_enabled ||
           coap_enabled;
  }
};

struct PopulationConfig {
  /// Global abundance multiplier (expected devices = weight * country units
  /// * this). 1.0 yields roughly 13k devices with the builtin tables.
  double device_scale = 1.0;
  std::uint64_t seed = 0x715;
};

class Population {
 public:
  static Population generate(const AsRegistry& registry,
                             const PopulationConfig& config);

  const std::vector<Device>& devices() const { return devices_; }
  std::vector<Device>& devices() { return devices_; }
  const AsRegistry& registry() const { return *registry_; }
  const PopulationConfig& config() const { return config_; }

  /// Allocate a fresh customer delegation in `asn` (used for dynamic-prefix
  /// rotation at runtime; draws from the same sequential allocator).
  net::Ipv6Prefix allocate_delegation(net::AsNumber asn, bool eyeball,
                                      util::Rng& rng);

  /// A rotated delegation drawn from the AS's already-active pool (prefix
  /// churn recycles space; fresh /48s are not burned per rotation).
  net::Ipv6Prefix rotate_delegation(net::AsNumber asn, bool eyeball,
                                    util::Rng& rng);

  /// Build an address for `device` inside `delegation`, regenerating the
  /// IID if the device randomises it (privacy / MAC randomisation).
  net::Ipv6Address make_address(Device& device,
                                const net::Ipv6Prefix& delegation,
                                bool regenerate_iid, util::Rng& rng);

  std::uint64_t unique_key_count() const { return next_unique_key_; }

 private:
  Population(const AsRegistry& registry, PopulationConfig config)
      : registry_(&registry), config_(std::move(config)) {}

  KeyId assign_key(KeyProvisioning mode, const std::string& model,
                   int pool_size, const char* kind, util::Rng& rng);
  std::uint64_t iid_for(Device& device, bool regenerate, util::Rng& rng);
  void instantiate_services(Device& device, util::Rng& rng);

  const AsRegistry* registry_;
  PopulationConfig config_;
  std::vector<Device> devices_;

  // Sequential per-AS customer allocation cursors.
  std::unordered_map<net::AsNumber, std::uint64_t> next_customer_;
  std::uint64_t next_unique_key_ = 1;
};

}  // namespace tts::inet
