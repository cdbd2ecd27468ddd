#include "hitlist/hitlist.hpp"

#include "util/flat_map.hpp"
#include "util/serialize.hpp"

namespace tts::hitlist {

std::optional<Source> Hitlist::source_of(const net::Ipv6Address& addr) const {
  net::AddressStore::Seq seq = seen.seq_of(addr);
  if (seq == net::AddressStore::kNoSeq) return std::nullopt;
  return sources[seq];
}

std::map<Source, std::uint64_t> Hitlist::counts_by_source() const {
  std::map<Source, std::uint64_t> out;
  for (Source src : sources) ++out[src];
  return out;
}

void Hitlist::save_state(util::ByteWriter& w) const {
  seen.save(w);
  w.u32(static_cast<std::uint32_t>(sources.size()));
  for (Source src : sources) w.u8(static_cast<std::uint8_t>(src));
  w.u32(static_cast<std::uint32_t>(public_list.size()));
  for (const auto& a : public_list) {
    w.u64(a.hi64());
    w.u64(a.lo64());
  }
}

Hitlist Hitlist::decode_state(util::ByteReader& r) {
  Hitlist list;
  list.seen = net::AddressStore::load(r);
  std::uint32_t nsources = r.u32();
  if (nsources != list.seen.size())
    throw util::SerializeError("Hitlist: sources/store size mismatch");
  list.sources.reserve(nsources);
  for (std::uint32_t i = 0; i < nsources; ++i)
    list.sources.push_back(static_cast<Source>(r.u8()));
  // full is derived: the store's snapshot is exactly first-contribution
  // order, which is how build() populated it.
  list.full = list.seen.snapshot();
  // A public address is its two u64 halves.
  const std::uint64_t npublic = r.count(r.u32(), 16);
  list.public_list.reserve(npublic);
  for (std::uint64_t i = 0; i < npublic; ++i) {
    std::uint64_t hi = r.u64();
    std::uint64_t lo = r.u64();
    list.public_list.push_back(net::Ipv6Address::from_halves(hi, lo));
  }
  return list;
}

Hitlist HitlistBuilder::build(const inet::Population& pop,
                              const inet::InternetRuntime* runtime,
                              const SourceConfig& config) {
  util::Rng rng(config.seed);
  Hitlist list;

  AddressOf addr_of = initial_address_of();
  if (runtime) {
    addr_of = [runtime](const inet::Device& d) {
      return runtime->address_of(d.id);
    };
  }
  auto dns = dns_source(pop, addr_of);
  auto traceroute = traceroute_source(pop, config, rng, addr_of);
  auto tga = tga_source(dns, config, rng);
  auto aliased = aliased_source(pop.registry(), config, rng);
  auto stale = stale_source(pop, dns.size(), config, rng);

  // Index device initial addresses for the responsiveness check when no
  // runtime is available yet.
  util::FlatMap<net::Ipv6Address, const inet::Device*,
                net::Ipv6AddressFlatHash>
      initial;
  if (!runtime) {
    for (const auto& d : pop.devices()) initial[d.initial_address] = &d;
  }

  auto device_at = [&](const net::Ipv6Address& a) -> const inet::Device* {
    if (runtime) return runtime->device_at(a);
    const inet::Device* const* d = initial.find(a);
    return d ? *d : nullptr;
  };

  const auto& alias_region = pop.registry().cdn_alias_region();

  auto ingest = [&](const std::vector<SourcedAddress>& batch) {
    for (const auto& s : batch) {
      auto [seq, fresh] = list.seen.insert(s.addr);
      if (!fresh) continue;
      list.full.push_back(s.addr);
      list.sources.push_back(s.source);

      bool responsive = false;
      if (alias_region.contains(s.addr)) {
        responsive = true;  // every aliased address answers
      } else if (const inet::Device* d = device_at(s.addr)) {
        responsive = d->any_service();
      } else if (s.source == Source::kTraceroute) {
        // Synthetic router interfaces answer ICMP (ping-responsive), which
        // is enough for the public list's liveness filter.
        responsive = s.addr.lo64() < 256;
      }
      if (responsive) list.public_list.push_back(s.addr);
    }
  };

  ingest(dns);
  ingest(traceroute);
  ingest(tga);
  ingest(aliased);
  ingest(stale);
  return list;
}

std::vector<PartialEntry> HitlistBuilder::build_partial(
    const inet::Population& pop, const inet::InternetRuntime* runtime,
    const SourceConfig& config, std::size_t as_index) {
  const inet::AsInfo& as = pop.registry().all().at(as_index);
  util::Rng rng =
      util::Rng(config.seed).stream("hitlist-domain").stream(as_index);

  AddressOf addr_of = initial_address_of();
  if (runtime) {
    addr_of = [runtime](const inet::Device& d) {
      return runtime->address_of(d.id);
    };
  }

  std::vector<const inet::Device*> own;
  for (const auto& d : pop.devices())
    if (d.asn == as.number) own.push_back(&d);

  std::vector<SourcedAddress> dns;
  for (const auto* d : own)
    if (d->in_dns_sources) dns.push_back({addr_of(*d), Source::kDns});

  std::vector<SourcedAddress> traceroute;
  for (const auto* d : own)
    if (d->in_traceroute)
      traceroute.push_back({addr_of(*d), Source::kTraceroute});
  // Synthetic router interfaces, as in traceroute_source but scoped to
  // this AS's prefixes (same draw shapes, per-AS stream).
  for (const auto& prefix : as.prefixes) {
    for (int i = 0; i < config.routers_per_prefix; ++i) {
      std::uint64_t idx48 = rng.below(4096);
      std::uint64_t hi = prefix.address().hi64() | (idx48 << 16);
      std::uint64_t iid = rng.chance(0.4) ? 0 : 1 + rng.below(254);
      traceroute.push_back(
          {net::Ipv6Address::from_halves(hi, iid), Source::kTraceroute});
    }
  }

  auto tga = tga_source(dns, config, rng);

  // Stale rotations of this AS's own devices (the global build samples
  // device-uniformly; per-AS sampling keeps every address in-prefix).
  std::vector<SourcedAddress> stale;
  auto nstale = static_cast<std::uint64_t>(
      static_cast<double>(dns.size()) * config.stale_fraction);
  if (!own.empty()) {
    for (std::uint64_t i = 0; i < nstale; ++i) {
      const inet::Device& d = *own[rng.below(own.size())];
      std::uint64_t hi =
          d.initial_address.hi64() ^ (rng.below(0xffff) << 16);
      stale.push_back(
          {net::Ipv6Address::from_halves(hi, rng.next()), Source::kStale});
    }
  }

  util::FlatMap<net::Ipv6Address, const inet::Device*,
                net::Ipv6AddressFlatHash>
      initial;
  if (!runtime) {
    for (const auto* d : own) initial[d->initial_address] = d;
  }
  auto device_at = [&](const net::Ipv6Address& a) -> const inet::Device* {
    if (runtime) return runtime->device_at(a);
    const inet::Device* const* d = initial.find(a);
    return d ? *d : nullptr;
  };

  const auto& alias_region = pop.registry().cdn_alias_region();
  std::vector<PartialEntry> out;
  out.reserve(dns.size() + traceroute.size() + tga.size() + stale.size());
  auto emit = [&](const std::vector<SourcedAddress>& batch) {
    for (const auto& s : batch) {
      bool responsive = false;
      if (alias_region.contains(s.addr)) {
        responsive = true;
      } else if (const inet::Device* d = device_at(s.addr)) {
        responsive = d->any_service();
      } else if (s.source == Source::kTraceroute) {
        responsive = s.addr.lo64() < 256;
      }
      out.push_back({s.addr, s.source, responsive});
    }
  };
  emit(dns);
  emit(traceroute);
  emit(tga);
  emit(stale);
  return out;
}

Hitlist HitlistBuilder::merge_partials(
    const inet::AsRegistry& registry, const SourceConfig& config,
    const std::vector<std::vector<PartialEntry>>& partials) {
  Hitlist list;
  auto ingest = [&](const net::Ipv6Address& addr, Source source,
                    bool responsive) {
    auto [seq, fresh] = list.seen.insert(addr);
    if (!fresh) return;
    list.full.push_back(addr);
    list.sources.push_back(source);
    if (responsive) list.public_list.push_back(addr);
  };
  for (const auto& slice : partials)
    for (const auto& e : slice) ingest(e.addr, e.source, e.responsive);

  // The aliased region belongs to no single AS slice: sample it here from
  // its own stream, after every slice (every aliased address answers).
  util::Rng rng = util::Rng(config.seed).stream("hitlist-merge");
  for (const auto& s : aliased_source(registry, config, rng))
    ingest(s.addr, s.source, true);
  return list;
}

}  // namespace tts::hitlist
