#include "analysis/network_agg.hpp"

#include <unordered_map>

#include "util/stats.hpp"

namespace tts::analysis {

NetworkAggregates aggregate(const net::AddressStore& addresses,
                            const inet::AsRegistry& registry) {
  NetworkAggregates out;
  out.addresses = addresses.size();
  out.nets64 = addresses.prefix_count();
  // The store walks /64 prefixes sorted by hi64, so distinct /32../56
  // counts fall out of one scan over masked keys (masking a sorted
  // sequence keeps it sorted).
  std::uint64_t last32 = 0, last48 = 0, last56 = 0;
  bool first = true;
  AsSet ases;
  std::unordered_set<std::string> countries;
  addresses.for_each_prefix([&](std::uint64_t hi,
                                std::span<const std::uint64_t> iids) {
    std::uint64_t p32 = hi >> 32, p48 = hi >> 16, p56 = hi >> 8;
    if (first || p32 != last32) ++out.nets32;
    if (first || p48 != last48) ++out.nets48;
    if (first || p56 != last56) ++out.nets56;
    last32 = p32;
    last48 = p48;
    last56 = p56;
    first = false;
    for (std::uint64_t iid : iids) {
      if (const inet::AsInfo* as =
              registry.origin(net::Ipv6Address::from_halves(hi, iid))) {
        // An AS number names one AsInfo, so its country is already
        // counted unless the AS is new.
        if (ases.insert(as->number).second) countries.insert(as->country);
      }
    }
  });
  out.ases = ases.size();
  out.countries = countries.size();
  return out;
}

PrefixSet prefixes_of(std::span<const net::Ipv6Address> addresses,
                      unsigned prefix_len) {
  PrefixSet out;
  for (const auto& a : addresses) out.insert(net::Ipv6Prefix(a, prefix_len));
  return out;
}

AsSet ases_of(std::span<const net::Ipv6Address> addresses,
              const inet::AsRegistry& registry) {
  AsSet out;
  for (const auto& a : addresses)
    if (const inet::AsInfo* as = registry.origin(a)) out.insert(as->number);
  return out;
}

std::uint64_t overlap(const PrefixSet& a, const PrefixSet& b) {
  const PrefixSet& small = a.size() <= b.size() ? a : b;
  const PrefixSet& large = a.size() <= b.size() ? b : a;
  std::uint64_t n = 0;
  for (const auto& p : small)
    if (large.contains(p)) ++n;
  return n;
}

std::uint64_t overlap(const AsSet& a, const AsSet& b) {
  const AsSet& small = a.size() <= b.size() ? a : b;
  const AsSet& large = a.size() <= b.size() ? b : a;
  std::uint64_t n = 0;
  for (const auto& as : small)
    if (large.contains(as)) ++n;
  return n;
}

std::uint64_t address_overlap(std::span<const net::Ipv6Address> lhs,
                              std::span<const net::Ipv6Address> rhs) {
  net::AddressStore set;
  set.insert_batch(lhs);
  std::uint64_t n = 0;
  for (const auto& addr : rhs)
    if (set.contains(addr)) ++n;
  return n;
}

double median_ips_per_net(std::span<const net::Ipv6Address> addresses,
                          unsigned prefix_len) {
  std::unordered_map<net::Ipv6Prefix, std::uint64_t, net::Ipv6PrefixHash>
      counts;
  for (const auto& a : addresses) ++counts[net::Ipv6Prefix(a, prefix_len)];
  std::vector<double> values;
  values.reserve(counts.size());
  // ttslint: allow(unordered-iter) reason=median() sorts values, so the visit order cannot affect the result
  for (const auto& [prefix, n] : counts)
    values.push_back(static_cast<double>(n));
  return util::median(std::move(values));
}

double median_ips_per_as(std::span<const net::Ipv6Address> addresses,
                         const inet::AsRegistry& registry) {
  std::unordered_map<net::AsNumber, std::uint64_t> counts;
  for (const auto& a : addresses)
    if (const inet::AsInfo* as = registry.origin(a)) ++counts[as->number];
  std::vector<double> values;
  values.reserve(counts.size());
  // ttslint: allow(unordered-iter) reason=median() sorts values, so the visit order cannot affect the result
  for (const auto& [asn, n] : counts)
    values.push_back(static_cast<double>(n));
  return util::median(std::move(values));
}

}  // namespace tts::analysis
