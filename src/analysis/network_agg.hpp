// Network-level aggregation (Tables 1 and 5): distinct /32../64 networks,
// ASes and countries behind an address set, overlaps between datasets, and
// the median-density metrics that distinguish client-side networks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "inet/as_registry.hpp"
#include "net/address_store.hpp"
#include "net/ipv6.hpp"

namespace tts::analysis {

using PrefixSet = std::unordered_set<net::Ipv6Prefix, net::Ipv6PrefixHash>;
using AsSet = std::unordered_set<net::AsNumber>;

struct NetworkAggregates {
  std::uint64_t addresses = 0;
  std::uint64_t nets32 = 0;
  std::uint64_t nets48 = 0;
  std::uint64_t nets56 = 0;
  std::uint64_t nets64 = 0;
  std::uint64_t ases = 0;
  std::uint64_t countries = 0;
};

/// Distinct /32, /48, /56 and /64 networks, origin ASes and countries
/// behind the addresses of `addresses`. It reads the store's sorted /64
/// walk, so a caller that already holds its set in a store (the collector,
/// the hitlist) pays no rebuild; a caller holding a list inserts it first.
NetworkAggregates aggregate(const net::AddressStore& addresses,
                            const inet::AsRegistry& registry);

PrefixSet prefixes_of(std::span<const net::Ipv6Address> addresses,
                      unsigned prefix_len);
AsSet ases_of(std::span<const net::Ipv6Address> addresses,
              const inet::AsRegistry& registry);

/// |a ∩ b| without materialising the intersection.
std::uint64_t overlap(const PrefixSet& a, const PrefixSet& b);
std::uint64_t overlap(const AsSet& a, const AsSet& b);
std::uint64_t address_overlap(std::span<const net::Ipv6Address> lhs,
                              std::span<const net::Ipv6Address> rhs);

/// Median number of addresses per enclosing /N network (Table 1 bottom).
double median_ips_per_net(std::span<const net::Ipv6Address> addresses,
                          unsigned prefix_len);
/// Median number of addresses per origin AS.
double median_ips_per_as(std::span<const net::Ipv6Address> addresses,
                         const inet::AsRegistry& registry);

}  // namespace tts::analysis
