#include "inet/population.hpp"

#include <array>
#include <cassert>
#include <cmath>

#include "net/oui_db.hpp"
#include "util/format.hpp"

namespace tts::inet {

namespace {

/// Eyeball customers initially packed per /48 (clustering; Table 1's
/// median-IPs-per-/48 metric reacts to this).
constexpr std::uint64_t kCustomersPer48 = 4;
/// Prefix rotation draws from a pool this many times larger than the
/// currently-assigned customer base (ISPs hold spare space); larger values
/// thin the per-/48 density of dynamic addresses.
constexpr std::uint64_t kRotationPoolSpread = 6;

/// Hosting abundance is not proportional to a country's NTP client volume;
/// mix a base per hosting AS with a small population term.
double hosting_units(const CountryParams& c) {
  return 90.0 * c.hosting_ases + 0.02 * c.client_weight;
}

net::MacAddress random_vendor_mac(const Addressing& addr, util::Rng& rng,
                                  bool& listed) {
  const auto& db = net::OuiDatabase::builtin();
  std::uint32_t oui;
  if (!addr.ouis.empty() && !rng.chance(addr.unlisted_oui)) {
    oui = addr.ouis[rng.below(addr.ouis.size())];
    listed = true;
  } else {
    // Draw an unregistered OUI with the universal/unicast bits clear.
    do {
      oui = static_cast<std::uint32_t>(rng.below(1 << 24)) & 0xfcffffu;
    } while (db.lookup(oui).has_value());
    listed = false;
  }
  std::uint64_t nic = rng.below(1 << 24);
  return net::MacAddress::from_u64(
      (static_cast<std::uint64_t>(oui) << 24) | nic);
}

net::MacAddress random_local_mac(util::Rng& rng) {
  std::uint64_t v = rng.below(1ULL << 48);
  auto mac = net::MacAddress::from_u64(v);
  auto bytes = mac.bytes();
  bytes[0] = static_cast<std::uint8_t>((bytes[0] | 0x02) & ~0x01);
  return net::MacAddress::from_bytes(bytes);
}

}  // namespace

KeyId Population::assign_key(KeyProvisioning mode, const std::string& model,
                             int pool_size, const char* kind,
                             util::Rng& rng) {
  switch (mode) {
    case KeyProvisioning::kUniquePerDevice:
      return next_unique_key_++;
    case KeyProvisioning::kVendorShared:
      return util::fnv1a(model + ":" + kind) | 0x8000000000000000ULL;
    case KeyProvisioning::kSharedPool: {
      std::uint64_t slot = rng.below(static_cast<std::uint64_t>(
          pool_size > 0 ? pool_size : 1));
      return util::fnv1a(model + ":" + kind + ":" + std::to_string(slot)) |
             0x8000000000000000ULL;
    }
  }
  return next_unique_key_++;
}

std::uint64_t Population::iid_for(Device& device, bool regenerate,
                                  util::Rng& rng) {
  const Addressing& a = device.profile->addr;
  switch (a.iid) {
    case IidMode::kEui64: {
      // Vendor MACs are burned in and survive every churn; locally
      // administered (randomised) MACs re-roll whenever the device
      // regenerates its identifier. Whether a device carries a vendor MAC
      // is decided once, at first assignment.
      if (device.mac == net::MacAddress{}) {
        if (rng.chance(a.vendor_mac)) {
          bool listed = false;
          device.mac = random_vendor_mac(a, rng, listed);
          device.vendor_mac = true;
        } else {
          device.mac = random_local_mac(rng);
          device.vendor_mac = false;
        }
      } else if (regenerate && !device.vendor_mac) {
        device.mac = random_local_mac(rng);
      }
      return net::eui64_iid_from_mac(device.mac);
    }
    case IidMode::kPrivacyRandom: {
      std::uint64_t iid;
      do {
        iid = rng.next();
      } while (net::iid_looks_like_eui64(iid) || iid < 0x10000);
      return iid;
    }
    case IidMode::kStaticZero:
      return 0;
    case IidMode::kStaticLowByte:
      if (device.current_iid != 0 && !regenerate) return device.current_iid;
      return 1 + rng.below(255);
    case IidMode::kStaticLowTwoBytes:
      if (device.current_iid != 0 && !regenerate) return device.current_iid;
      return 256 + rng.below(65536 - 256);
    case IidMode::kDhcpRandomish: {
      if (device.current_iid != 0 && !regenerate) return device.current_iid;
      std::uint64_t iid;
      do {
        iid = rng.next();
      } while (net::iid_looks_like_eui64(iid) || iid < 0x10000);
      return iid;
    }
  }
  return rng.next();
}

net::Ipv6Prefix Population::allocate_delegation(net::AsNumber asn,
                                                bool eyeball,
                                                util::Rng& rng) {
  const AsInfo* as = registry_->find(asn);
  assert(as && !as->prefixes.empty());
  std::uint64_t n = next_customer_[asn]++;

  // Spill across the AS's /32s when the first fills (64k /48s each).
  std::uint64_t per_prefix = 65536ULL * kCustomersPer48;
  std::size_t prefix_idx =
      static_cast<std::size_t>(n / per_prefix) % as->prefixes.size();
  std::uint64_t local = n % per_prefix;

  std::uint64_t idx48 = local / kCustomersPer48;
  std::uint64_t base_hi = as->prefixes[prefix_idx].address().hi64();

  if (eyeball) {
    // A /56 customer delegation at a random slot inside the /48.
    std::uint64_t slot56 = rng.below(256);
    std::uint64_t hi = base_hi | (idx48 << 16) | (slot56 << 8);
    return net::Ipv6Prefix(net::Ipv6Address::from_halves(hi, 0), 56);
  }
  // Hosting: /64s packed two per /56 and ~512 per /48 (rack numbering) —
  // the density that makes hitlist endpoints collapse under network
  // aggregation (Table 5).
  std::uint64_t h48 = n / 512;
  std::uint64_t slot56 = (n / 2) % 256;
  std::uint64_t vlan = n % 2;
  std::uint64_t hi = base_hi | (h48 << 16) | (slot56 << 8) | vlan;
  return net::Ipv6Prefix(net::Ipv6Address::from_halves(hi, 0), 64);
}

net::Ipv6Prefix Population::rotate_delegation(net::AsNumber asn, bool eyeball,
                                              util::Rng& rng) {
  // ISP prefix rotation recycles delegations from the AS's active pool
  // instead of burning fresh /48s: a rotating customer lands in a /48 that
  // other customers already populate. This is what makes NTP-collected
  // /48s dense (Table 1's median-IPs-per-/48 of 5).
  // Pure read: rotation happens from concurrent churn events once the
  // population is built, and every AS with devices was populated during
  // build (so the operator[] insert path would only ever race, not help).
  auto it = next_customer_.find(asn);
  std::uint64_t n = it == next_customer_.end() ? 0 : it->second;
  if (n == 0) return allocate_delegation(asn, eyeball, rng);
  std::uint64_t local = rng.below(n * kRotationPoolSpread);
  const AsInfo* as = registry_->find(asn);
  assert(as && !as->prefixes.empty());
  std::uint64_t per_prefix = 65536ULL * kCustomersPer48;
  std::size_t prefix_idx =
      static_cast<std::size_t>(local / per_prefix) % as->prefixes.size();
  std::uint64_t in_prefix = local % per_prefix;
  std::uint64_t idx48 = in_prefix / kCustomersPer48;
  std::uint64_t base_hi = as->prefixes[prefix_idx].address().hi64();
  if (eyeball) {
    std::uint64_t slot56 = rng.below(256);
    std::uint64_t hi = base_hi | (idx48 << 16) | (slot56 << 8);
    return net::Ipv6Prefix(net::Ipv6Address::from_halves(hi, 0), 56);
  }
  std::uint64_t hi = base_hi | (idx48 << 16) | (rng.below(256) << 8) |
                     rng.below(2);
  return net::Ipv6Prefix(net::Ipv6Address::from_halves(hi, 0), 64);
}

net::Ipv6Address Population::make_address(Device& device,
                                          const net::Ipv6Prefix& delegation,
                                          bool regenerate_iid,
                                          util::Rng& rng) {
  std::uint64_t hi = delegation.address().hi64();
  if (delegation.length() <= 56) {
    // Device picks (keeps) a /64 inside its /56 — home LAN segment 0.
    hi |= 0;
  }
  device.current_iid = iid_for(device, regenerate_iid, rng);
  return net::Ipv6Address::from_halves(hi, device.current_iid);
}

Population Population::generate(const AsRegistry& registry,
                                const PopulationConfig& config) {
  Population pop(registry, config);
  util::Rng root(config.seed);
  util::Rng count_rng = root.stream("population.counts");
  const auto& countries = registry.countries();
  const auto content = registry.by_category(AsCategory::kContent);

  // Every batch's device count comes first, drawn in the order the batches
  // are built (no other draw touches count_rng), so devices_ is reserved
  // once and no Device is ever moved.
  struct Batch {
    const DeviceProfile* profile;
    std::size_t country;  // index into countries; unused for CDN devices
    std::uint64_t n;
  };
  std::vector<Batch> batches;
  std::uint64_t total = 0;
  for (const auto& profile : device_catalogue()) {
    // CDN load balancers live in the global content ASes, not per country.
    if (profile.cls == DeviceClass::kCdnLoadBalancer) {
      if (content.empty()) continue;
      double expected = profile.weight * 400.0 * config.device_scale;
      auto n = static_cast<std::uint64_t>(expected + count_rng.uniform());
      batches.push_back({&profile, 0, n});
      total += n;
      continue;
    }
    for (std::size_t c = 0; c < countries.size(); ++c) {
      double mult = country_multiplier(profile, countries[c].code);
      if (mult <= 0) continue;
      double units = profile.placement == Placement::kHosting
                         ? hosting_units(countries[c])
                         : countries[c].client_weight;
      double expected = profile.weight * mult * units * config.device_scale;
      auto n = static_cast<std::uint64_t>(expected + count_rng.uniform());
      batches.push_back({&profile, c, n});
      total += n;
    }
  }
  pop.devices_.reserve(total);

  // The ASes a device of each placement category can land in, per country
  // (cable/DSL ISPs when the country has none of the category), with their
  // size weights: built once, not per device.
  struct Candidates {
    std::vector<const AsInfo*> ases;
    std::vector<double> weights;
  };
  constexpr std::size_t kPlacedCategories = 3;  // cable/DSL, mobile, hosting
  std::vector<std::array<Candidates, kPlacedCategories>> candidates(
      countries.size());
  for (std::size_t c = 0; c < countries.size(); ++c) {
    for (std::size_t k = 0; k < kPlacedCategories; ++k) {
      Candidates& cand = candidates[c][k];
      cand.ases =
          registry.in_country(countries[c].code, static_cast<AsCategory>(k));
      if (cand.ases.empty())
        cand.ases = registry.in_country(countries[c].code,
                                        AsCategory::kCableDslIsp);
      for (const auto* as : cand.ases) cand.weights.push_back(as->size_weight);
    }
  }

  std::uint32_t next_id = 1;
  for (const Batch& batch : batches) {
    const DeviceProfile& profile = *batch.profile;
    if (profile.cls == DeviceClass::kCdnLoadBalancer) {
      for (std::uint64_t i = 0; i < batch.n; ++i) {
        util::Rng dev_rng = root.stream("device").stream(next_id);
        const AsInfo* as = content[dev_rng.below(content.size())];
        Device& d = pop.devices_.emplace_back();
        d.id = next_id++;
        d.profile = &profile;
        d.asn = as->number;
        d.country = "ZZ";
        d.delegation = pop.allocate_delegation(as->number, false, dev_rng);
        pop.instantiate_services(d, dev_rng);
        d.initial_address = pop.make_address(d, d.delegation, true, dev_rng);
      }
      continue;
    }

    auto pick_category = [&](util::Rng& r) {
      switch (profile.placement) {
        case Placement::kEyeball: return AsCategory::kCableDslIsp;
        case Placement::kMobile: return AsCategory::kMobile;
        case Placement::kHosting: return AsCategory::kHosting;
        case Placement::kMixed: {
          double x = r.uniform();
          if (x < 0.60) return AsCategory::kCableDslIsp;
          if (x < 0.85) return AsCategory::kMobile;
          return AsCategory::kHosting;
        }
      }
      return AsCategory::kCableDslIsp;
    };

    const CountryParams& country = countries[batch.country];
    for (std::uint64_t i = 0; i < batch.n; ++i) {
      util::Rng dev_rng = root.stream("device").stream(next_id);
      AsCategory cat = pick_category(dev_rng);
      const Candidates& cand =
          candidates[batch.country][static_cast<std::size_t>(cat)];
      if (cand.ases.empty()) continue;
      const AsInfo* as = cand.ases[dev_rng.pick_weighted(cand.weights)];

      bool eyeball_numbering = cat != AsCategory::kHosting;
      Device& d = pop.devices_.emplace_back();
      d.id = next_id++;
      d.profile = &profile;
      d.asn = as->number;
      d.country = country.code;
      d.delegation =
          pop.allocate_delegation(as->number, eyeball_numbering, dev_rng);
      pop.instantiate_services(d, dev_rng);
      d.initial_address = pop.make_address(d, d.delegation, true, dev_rng);
    }
  }
  return pop;
}

void Population::instantiate_services(Device& d, util::Rng& rng) {
  const DeviceProfile& p = *d.profile;

  if (rng.chance(p.http.enabled)) {
    d.http_enabled = true;
    d.http_status = p.http.status;
    d.http_title = p.http.title;
    d.http_server_header = p.http.server_header;
    d.sni_required = p.http.sni_required;
    if (rng.chance(p.http.tls)) {
      d.http_tls = true;
      d.http_cert = assign_key(p.http.cert, p.model, p.http.shared_pool_size,
                               "https", rng);
    }
  }
  if (rng.chance(p.ssh.enabled)) {
    d.ssh_enabled = true;
    d.ssh_os = p.ssh.os;
    const auto& lineage = ssh_version_lineage(p.ssh.os);
    if (rng.chance(p.ssh.outdated) && lineage.size() > 1)
      d.ssh_version_index = rng.below(lineage.size() - 1);
    else
      d.ssh_version_index = lineage.size() - 1;
    d.ssh_key =
        assign_key(p.ssh.key, p.model, p.ssh.shared_pool_size, "ssh", rng);
  }
  if (rng.chance(p.mqtt.enabled)) {
    d.mqtt_enabled = true;
    d.mqtt_auth = rng.chance(p.mqtt.auth);
    if (rng.chance(p.mqtt.tls)) {
      d.mqtt_tls = true;
      d.mqtt_cert = assign_key(p.mqtt.cert, p.model, p.mqtt.shared_pool_size,
                               "mqtts", rng);
    }
  }
  if (rng.chance(p.amqp.enabled)) {
    d.amqp_enabled = true;
    d.amqp_auth = rng.chance(p.amqp.auth);
    if (rng.chance(p.amqp.tls)) {
      d.amqp_tls = true;
      d.amqp_cert = assign_key(p.amqp.cert, p.model, p.amqp.shared_pool_size,
                               "amqps", rng);
    }
  }
  if (rng.chance(p.coap.enabled)) d.coap_enabled = true;

  d.uses_pool = rng.chance(p.ntp.uses_pool);
  // Spread poll cadence log-normally around the profile mean.
  d.ntp_interval_hours =
      p.ntp.mean_interval_hours * rng.lognormal(0.0, 0.35);
  d.daily_prefix_change = p.addr.daily_prefix_change;
  d.daily_iid_change = p.addr.daily_iid_change;
  d.in_dns_sources = rng.chance(p.disc.dns);
  d.in_traceroute = rng.chance(p.disc.traceroute);
}

}  // namespace tts::inet
