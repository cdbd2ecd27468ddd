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
  // sequence keeps it sorted), and the addresses per /48 are run lengths.
  std::uint64_t last32 = 0, last48 = 0, last56 = 0;
  bool first = true;
  std::vector<double> per48;
  std::unordered_map<net::AsNumber, std::uint64_t> per_as;
  std::unordered_set<std::string> countries;
  addresses.for_each_prefix([&](std::uint64_t hi,
                                std::span<const std::uint64_t> iids) {
    std::uint64_t p32 = hi >> 32, p48 = hi >> 16, p56 = hi >> 8;
    if (first || p32 != last32) ++out.nets32;
    if (first || p48 != last48) {
      ++out.nets48;
      per48.push_back(0);
    }
    if (first || p56 != last56) ++out.nets56;
    last32 = p32;
    last48 = p48;
    last56 = p56;
    first = false;
    per48.back() += static_cast<double>(iids.size());
    for (std::uint64_t iid : iids) {
      if (const inet::AsInfo* as =
              registry.origin(net::Ipv6Address::from_halves(hi, iid))) {
        // An AS number names one AsInfo, so its country is already
        // counted unless the AS is new.
        auto [it, fresh] = per_as.try_emplace(as->number, 0);
        if (fresh) countries.insert(as->country);
        ++it->second;
      }
    }
  });
  out.ases = per_as.size();
  out.countries = countries.size();
  out.median_ips_per_48 = util::median(std::move(per48));
  std::vector<double> as_counts;
  as_counts.reserve(per_as.size());
  // ttslint: allow(unordered-iter) reason=median() sorts values, so the visit order cannot affect the result
  for (const auto& [asn, n] : per_as)
    as_counts.push_back(static_cast<double>(n));
  out.median_ips_per_as = util::median(std::move(as_counts));
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

}  // namespace tts::analysis
