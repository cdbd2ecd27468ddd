#include <gtest/gtest.h>

#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/broker_analysis.hpp"
#include "analysis/coap_analysis.hpp"
#include "analysis/iid_classes.hpp"
#include "analysis/key_reuse.hpp"
#include "analysis/network_agg.hpp"
#include "analysis/security_score.hpp"
#include "analysis/ssh_analysis.hpp"
#include "analysis/title_grouping.hpp"
#include "inet/device.hpp"
#include "net/address_store.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tts::analysis {
namespace {

using scan::Dataset;
using scan::Outcome;
using scan::Protocol;
using scan::ScanRecord;

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x2400000000000000ULL | hi, lo);
}

// ------------------------------------------------------------- IID classes

TEST(IidClasses, Classification) {
  EXPECT_EQ(classify_iid(addr(1, 0)), IidClass::kZero);
  EXPECT_EQ(classify_iid(addr(1, 0x01)), IidClass::kLastByte);
  EXPECT_EQ(classify_iid(addr(1, 0xff)), IidClass::kLastByte);
  EXPECT_EQ(classify_iid(addr(1, 0x100)), IidClass::kLastTwoBytes);
  EXPECT_EQ(classify_iid(addr(1, 0xffff)), IidClass::kLastTwoBytes);
  EXPECT_EQ(classify_iid(addr(1, 0x021a4ffffe123456ULL)), IidClass::kEui64);
  // Random-looking privacy IID: all bytes distinct -> high entropy.
  EXPECT_EQ(classify_iid(addr(1, 0x1a2b3c4d5e6f7788ULL)),
            IidClass::kEntropyHigh);
  // Repetitive pattern: low entropy.
  EXPECT_EQ(classify_iid(addr(1, 0x0101010100000000ULL)),
            IidClass::kEntropyLow);
}

TEST(IidClasses, DistributionSumsToOne) {
  std::vector<net::Ipv6Address> addrs = {addr(1, 0), addr(1, 1),
                                         addr(1, 0x1234),
                                         addr(1, 0xa1b2c3d4e5f60718ULL)};
  auto dist = classify_addresses(addrs);
  EXPECT_EQ(dist.total, 4u);
  double sum = 0;
  for (std::size_t i = 0; i < kIidClassCount; ++i)
    sum += dist.fraction(static_cast<IidClass>(i));
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ---------------------------------------------------------- title grouping

TEST(TitleGrouping, NormalizesEmbeddedIps) {
  EXPECT_EQ(normalize_title("1.2.3.4 was not found"), "(IP) was not found");
  EXPECT_EQ(normalize_title("Host Europe GmbH - 2a01:4f8:abc::17"),
            "Host Europe GmbH - (IP)");
  // Version numbers survive (too short / no separator run).
  EXPECT_EQ(normalize_title("Plesk Obsidian 18.0.34"),
            "Plesk Obsidian 18.0.34");
  EXPECT_EQ(normalize_title("FRITZ!Box 7590"), "FRITZ!Box 7590");
  EXPECT_EQ(normalize_title(""), "");
}

TEST(TitleGrouping, GroupsNearbyTitles) {
  std::vector<TitleObservation> obs = {
      {"FRITZ!Box 7590", Dataset::kNtp, 10},
      {"FRITZ!Box 7530", Dataset::kNtp, 5},
      {"FRITZ!Box 6660", Dataset::kHitlist, 2},
      {"D-LINK DIR-853", Dataset::kHitlist, 7},
      {"Welcome to nginx!", Dataset::kHitlist, 20},
  };
  auto groups = group_titles(obs);
  ASSERT_EQ(groups.size(), 3u);
  // Sorted by total desc: nginx(20), FRITZ(17), D-LINK(7).
  EXPECT_EQ(groups[0].representative, "Welcome to nginx!");
  EXPECT_EQ(groups[1].ntp, 15u);
  EXPECT_EQ(groups[1].hitlist, 2u);
  EXPECT_EQ(groups[2].hitlist, 7u);
}

TEST(TitleGrouping, IpVariantsCollapseToOneGroup) {
  std::vector<TitleObservation> obs = {
      {"2a01:4f8:1::1 was not found", Dataset::kHitlist, 1},
      {"2a01:4f8:2::99 was not found", Dataset::kHitlist, 1},
      {"93.184.216.34 was not found", Dataset::kHitlist, 1},
  };
  auto groups = group_titles(obs);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].hitlist, 3u);
  EXPECT_EQ(groups[0].representative, "(IP) was not found");
}

TEST(TitleGrouping, RespectsThreshold) {
  std::vector<TitleObservation> obs = {
      {"aaaaaaaaaa", Dataset::kNtp, 1},
      {"bbbbbbbbbb", Dataset::kNtp, 1},
  };
  EXPECT_EQ(group_titles(obs, 0.25).size(), 2u);
  EXPECT_EQ(group_titles(obs, 1.0).size(), 1u);
}

// ------------------------------------------------------------ SSH analysis

ScanRecord ssh_record(Dataset dataset, std::uint64_t key,
                      const std::string& banner, std::uint64_t target_lo) {
  ScanRecord r;
  r.dataset = dataset;
  r.protocol = Protocol::kSsh;
  r.outcome = Outcome::kSuccess;
  r.target = addr(target_lo >> 8, target_lo);
  r.ssh_hostkey = key;
  r.ssh_banner = banner;
  return r;
}

TEST(SshAnalysis, DedupByHostKey) {
  scan::ResultStore results;
  results.add(ssh_record(Dataset::kNtp, 1,
                         "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3", 1));
  results.add(ssh_record(Dataset::kNtp, 1,
                         "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3", 2));
  results.add(ssh_record(Dataset::kNtp, 2,
                         "SSH-2.0-OpenSSH_8.9p1 Ubuntu-3ubuntu0.1", 3));
  results.add(ssh_record(Dataset::kHitlist, 3,
                         "SSH-2.0-OpenSSH_9.6 FreeBSD-20240104", 4));

  auto hosts = dedup_ssh_hosts(results, Dataset::kNtp);
  ASSERT_EQ(hosts.size(), 2u);
  auto os = os_distribution(hosts);
  EXPECT_EQ(os["Debian"], 1u);
  EXPECT_EQ(os["Ubuntu"], 1u);

  // The key seen twice carries both addresses.
  for (const auto& h : hosts) {
    if (h.host_key == 1) {
      EXPECT_EQ(h.addresses.size(), 2u);
    }
  }
}

TEST(SshAnalysis, PatchLevelAssessment) {
  EXPECT_TRUE(assessable("SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3"));
  EXPECT_TRUE(assessable("SSH-2.0-OpenSSH_8.9p1 Ubuntu-3ubuntu0.1"));
  EXPECT_FALSE(assessable("SSH-2.0-OpenSSH_9.6 FreeBSD-20240104"));
  EXPECT_FALSE(assessable("SSH-2.0-dropbear_2022.83"));

  // Latest Debian lineage entry is up to date; earlier ones are not.
  const auto& lineage = inet::ssh_version_lineage("Debian");
  EXPECT_TRUE(banner_up_to_date("SSH-2.0-" + lineage.back()));
  EXPECT_FALSE(banner_up_to_date("SSH-2.0-" + lineage.front()));
}

TEST(SshAnalysis, OutdatednessCountsOnlyAssessable) {
  scan::ResultStore results;
  const auto& debian = inet::ssh_version_lineage("Debian");
  results.add(ssh_record(Dataset::kNtp, 1, "SSH-2.0-" + debian.back(), 1));
  results.add(ssh_record(Dataset::kNtp, 2, "SSH-2.0-" + debian.front(), 2));
  results.add(ssh_record(Dataset::kNtp, 3, "SSH-2.0-dropbear_2022.83", 3));
  auto hosts = dedup_ssh_hosts(results, Dataset::kNtp);
  auto stats = outdatedness(hosts);
  EXPECT_EQ(stats.assessable_hosts, 2u);
  EXPECT_EQ(stats.outdated, 1u);
  EXPECT_DOUBLE_EQ(stats.outdated_share(), 0.5);
}

TEST(SshAnalysis, ByNetworkCountsKeyReuseRepeatedly) {
  scan::ResultStore results;
  const auto& debian = inet::ssh_version_lineage("Debian");
  // One outdated key presented from three different /56s.
  std::string old_banner = "SSH-2.0-" + debian.front();
  for (std::uint64_t i = 0; i < 3; ++i) {
    ScanRecord r = ssh_record(Dataset::kNtp, 42, old_banner, 1);
    r.target = addr(i << 8, 0x99);
    results.add(r);
  }
  auto hosts = dedup_ssh_hosts(results, Dataset::kNtp);
  EXPECT_EQ(outdatedness(hosts).assessable_hosts, 1u);  // one key
  auto by_net = outdatedness_by_network(hosts, 56);
  EXPECT_EQ(by_net.assessable_hosts, 3u);  // three networks
  EXPECT_EQ(by_net.outdated, 3u);
}

// ----------------------------------------------------------------- brokers

ScanRecord broker_record(Dataset dataset, Protocol proto, bool auth,
                         std::uint64_t target_lo,
                         std::optional<std::uint64_t> cert = {}) {
  ScanRecord r;
  r.dataset = dataset;
  r.protocol = proto;
  r.outcome = Outcome::kSuccess;
  r.target = addr(target_lo >> 4, target_lo);
  r.broker_auth_required = auth;
  if (cert) {
    r.certificate = proto::Certificate{};
    r.certificate->fingerprint = *cert;
  }
  return r;
}

TEST(BrokerAnalysis, ByAddress) {
  scan::ResultStore results;
  results.add(broker_record(Dataset::kNtp, Protocol::kMqtt, true, 1));
  results.add(broker_record(Dataset::kNtp, Protocol::kMqtt, false, 2));
  results.add(broker_record(Dataset::kNtp, Protocol::kMqtt, false, 3));
  auto stats = access_control_by_address(results, Dataset::kNtp,
                                         BrokerKind::kMqtt);
  EXPECT_EQ(stats.total, 3u);
  EXPECT_EQ(stats.with_auth, 1u);
  EXPECT_NEAR(stats.auth_share(), 1.0 / 3.0, 1e-9);
}

TEST(BrokerAnalysis, OpenOnAnyPortMeansOpen) {
  scan::ResultStore results;
  // Same address: plain port enforces auth, TLS port is open.
  results.add(broker_record(Dataset::kNtp, Protocol::kMqtt, true, 7));
  results.add(broker_record(Dataset::kNtp, Protocol::kMqtts, false, 7, 5));
  auto stats = access_control_by_address(results, Dataset::kNtp,
                                         BrokerKind::kMqtt);
  EXPECT_EQ(stats.total, 1u);
  EXPECT_EQ(stats.with_auth, 0u);
}

TEST(BrokerAnalysis, ByCertificateOnlyCountsTls) {
  scan::ResultStore results;
  results.add(broker_record(Dataset::kNtp, Protocol::kMqtt, false, 1));
  results.add(broker_record(Dataset::kNtp, Protocol::kMqtts, true, 2, 100));
  results.add(broker_record(Dataset::kNtp, Protocol::kMqtts, true, 3, 100));
  auto stats = access_control_by_certificate(results, Dataset::kNtp,
                                             BrokerKind::kMqtt);
  EXPECT_EQ(stats.total, 1u);  // shared cert -> one unit
  EXPECT_EQ(stats.with_auth, 1u);
}

TEST(BrokerAnalysis, ByNetwork) {
  scan::ResultStore results;
  // Two brokers in the same /64, one in another.
  results.add(broker_record(Dataset::kNtp, Protocol::kAmqp, true, 0x10));
  results.add(broker_record(Dataset::kNtp, Protocol::kAmqp, true, 0x11));
  results.add(broker_record(Dataset::kNtp, Protocol::kAmqp, false, 0x100010));
  auto stats = access_control_by_network(results, Dataset::kNtp,
                                         BrokerKind::kAmqp, 64);
  EXPECT_EQ(stats.total, 2u);
  EXPECT_EQ(stats.with_auth, 1u);
}

// -------------------------------------------------------------------- CoAP

TEST(CoapAnalysis, ResourceGrouping) {
  EXPECT_EQ(coap_resource_group({"/castDeviceSearch"}), "castdevice");
  EXPECT_EQ(coap_resource_group({"/qlink/ping", "/qlink/stats"}), "qlink");
  EXPECT_EQ(coap_resource_group({"/efento/m"}), "efento");
  EXPECT_EQ(coap_resource_group({"/nanoleaf/state"}), "nanoleaf");
  EXPECT_EQ(coap_resource_group({}), "empty");
  EXPECT_EQ(coap_resource_group({"/maha", "/.well-known/core"}), "other");
}

TEST(CoapAnalysis, GroupCountsDedupByAddress) {
  scan::ResultStore results;
  for (int i = 0; i < 2; ++i) {
    ScanRecord r;
    r.dataset = Dataset::kNtp;
    r.protocol = Protocol::kCoap;
    r.outcome = Outcome::kSuccess;
    r.target = addr(1, 0x50);  // the same address twice
    r.coap_resources = {"/castDeviceSearch"};
    results.add(r);
  }
  auto counts = coap_group_counts(results, Dataset::kNtp);
  EXPECT_EQ(counts["castdevice"], 1u);
}

// ------------------------------------------------------------- network agg

TEST(NetworkAgg, AggregatesAndMedians) {
  inet::AsRegistry reg = inet::AsRegistry::generate({{}, 5});
  const auto& as0 = reg.all()[0];
  std::uint64_t base = as0.prefixes[0].address().hi64();
  std::vector<net::Ipv6Address> addrs = {
      net::Ipv6Address::from_halves(base | 0x0000, 1),
      net::Ipv6Address::from_halves(base | 0x0001, 2),  // same /48? no: /64 differs
      net::Ipv6Address::from_halves(base | 0x10000, 3),
  };
  net::AddressStore store;
  store.insert_batch(addrs);
  auto agg = aggregate(store, reg);
  EXPECT_EQ(agg.addresses, 3u);
  EXPECT_EQ(agg.nets48, 2u);
  EXPECT_EQ(agg.nets64, 3u);
  EXPECT_EQ(agg.ases, 1u);
  EXPECT_EQ(agg.countries, 1u);
  EXPECT_DOUBLE_EQ(agg.median_ips_per_48, 1.5);
  EXPECT_DOUBLE_EQ(agg.median_ips_per_as, 3.0);
}

/// Median of the per-key address counts in `counts`.
template <typename Map>
double median_count(const Map& counts) {
  std::vector<double> values;
  for (const auto& [key, n] : counts) values.push_back(static_cast<double>(n));
  return util::median(std::move(values));
}

/// The per-address computation aggregate() replaced: hash sets of the
/// enclosing networks, origin ASes and their countries, and hash maps of
/// the addresses per /48 and per AS.
NetworkAggregates reference_aggregate(std::span<const net::Ipv6Address> list,
                                      const inet::AsRegistry& reg) {
  NetworkAggregates out;
  out.addresses = list.size();
  out.nets32 = prefixes_of(list, 32).size();
  out.nets48 = prefixes_of(list, 48).size();
  out.nets56 = prefixes_of(list, 56).size();
  out.nets64 = prefixes_of(list, 64).size();
  out.ases = ases_of(list, reg).size();
  std::unordered_set<std::string> countries;
  for (const auto& a : list)
    if (const inet::AsInfo* as = reg.origin(a)) countries.insert(as->country);
  out.countries = countries.size();
  std::unordered_map<net::Ipv6Prefix, std::uint64_t, net::Ipv6PrefixHash>
      per48;
  std::unordered_map<net::AsNumber, std::uint64_t> per_as;
  for (const auto& a : list) {
    ++per48[net::Ipv6Prefix(a, 48)];
    if (const inet::AsInfo* as = reg.origin(a)) ++per_as[as->number];
  }
  out.median_ips_per_48 = median_count(per48);
  out.median_ips_per_as = median_count(per_as);
  return out;
}

void expect_same(const NetworkAggregates& got, const NetworkAggregates& want) {
  EXPECT_EQ(got.addresses, want.addresses);
  EXPECT_EQ(got.nets32, want.nets32);
  EXPECT_EQ(got.nets48, want.nets48);
  EXPECT_EQ(got.nets56, want.nets56);
  EXPECT_EQ(got.nets64, want.nets64);
  EXPECT_EQ(got.ases, want.ases);
  EXPECT_EQ(got.countries, want.countries);
  EXPECT_DOUBLE_EQ(got.median_ips_per_48, want.median_ips_per_48);
  EXPECT_DOUBLE_EQ(got.median_ips_per_as, want.median_ips_per_as);
}

TEST(NetworkAgg, StoreAggregateMatchesPerAddressComputation) {
  inet::AsRegistry reg = inet::AsRegistry::generate({{}, 5});
  // Addresses inside random AS prefixes (a few /64s each, so /64s repeat),
  // with a share outside every announced prefix (no origin AS).
  util::Rng rng(0xa66);
  net::AddressStore store;
  std::vector<net::Ipv6Address> list;
  // Aggregate at growing sizes: small buckets live entirely in their
  // recent run (the store merges a run only past 32 entries), large ones
  // hold both runs at most of these points.
  for (std::size_t target : {1u, 17u, 200u, 3000u, 20000u, 20011u}) {
    while (list.size() < target) {
      net::Ipv6Address a;
      if (rng.chance(0.05)) {
        a = net::Ipv6Address::from_halves(0x3fff000000000000ULL | rng.below(64),
                                          rng.next());
      } else {
        const auto& as = reg.all()[rng.below(reg.all().size())];
        const net::Ipv6Prefix& p = as.prefixes[rng.below(as.prefixes.size())];
        std::uint64_t host =
            (rng.below(1 << 12) << 6) & ~net::prefix_mask_hi(p.length());
        a = net::Ipv6Address::from_halves(p.address().hi64() | host,
                                          rng.below(1 << 16));
      }
      if (store.insert(a).fresh) list.push_back(a);
    }
    SCOPED_TRACE(target);
    ASSERT_EQ(store.size(), list.size());
    expect_same(aggregate(store, reg), reference_aggregate(list, reg));
  }
}

TEST(NetworkAgg, Overlaps) {
  std::vector<net::Ipv6Address> a = {addr(0x10000, 1), addr(0x20000, 2)};
  std::vector<net::Ipv6Address> b = {addr(0x10000, 9), addr(0x30000, 3)};
  EXPECT_EQ(overlap(prefixes_of(a, 48), prefixes_of(b, 48)), 1u);
  EXPECT_EQ(address_overlap(a, b), 0u);
  std::vector<net::Ipv6Address> c = {addr(0x10000, 1)};
  EXPECT_EQ(address_overlap(a, c), 1u);
}

// --------------------------------------------------------------- key reuse

TEST(KeyReuse, DetectsWideSpreadKeys) {
  inet::AsRegistry reg = inet::AsRegistry::generate({{}, 5});
  scan::ResultStore results;
  // One key presented from 4 different ASes, one key from a single AS.
  auto make = [&](std::uint64_t cert, const inet::AsInfo& as,
                  std::uint64_t lo) {
    ScanRecord r;
    r.dataset = Dataset::kNtp;
    r.protocol = Protocol::kHttps;
    r.outcome = Outcome::kSuccess;
    r.http_status = 200;
    r.target =
        net::Ipv6Address::from_halves(as.prefixes[0].address().hi64(), lo);
    r.certificate = proto::Certificate{};
    r.certificate->fingerprint = cert;
    results.add(r);
  };
  for (int i = 0; i < 4; ++i) make(111, reg.all()[static_cast<std::size_t>(i)], 50 + static_cast<std::uint64_t>(i));
  make(222, reg.all()[0], 99);

  auto stats = http_key_reuse(results, Dataset::kNtp, reg);
  EXPECT_EQ(stats.reused_keys, 1u);
  EXPECT_EQ(stats.ips_on_reused_keys, 4u);
  EXPECT_EQ(stats.most_used_key_ips, 4u);
  EXPECT_EQ(stats.most_widespread_key_ases, 4u);
}

// ---------------------------------------------------------- security score

TEST(SecurityScore, CombinesSshAndBrokers) {
  scan::ResultStore results;
  const auto& debian = inet::ssh_version_lineage("Debian");
  results.add(ssh_record(Dataset::kNtp, 1, "SSH-2.0-" + debian.back(), 1));
  results.add(ssh_record(Dataset::kNtp, 2, "SSH-2.0-" + debian.front(), 2));
  results.add(broker_record(Dataset::kNtp, Protocol::kMqtts, true, 3, 77));
  results.add(broker_record(Dataset::kNtp, Protocol::kAmqps, false, 4, 88));

  auto score = security_score(results, Dataset::kNtp);
  EXPECT_EQ(score.total_hosts(), 4u);
  EXPECT_EQ(score.ssh_hosts, 2u);
  EXPECT_EQ(score.ssh_secure, 1u);
  EXPECT_EQ(score.mqtt_secure, 1u);
  EXPECT_EQ(score.amqp_secure, 0u);
  EXPECT_DOUBLE_EQ(score.secure_share(), 0.5);
}

}  // namespace
}  // namespace tts::analysis
