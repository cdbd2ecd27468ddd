#include "ntp/collector.hpp"

#include <algorithm>

#include "util/format.hpp"
#include "util/serialize.hpp"

namespace tts::ntp {

AddressCollector::AddressCollector(obs::Registry* registry)
    : registry_(registry) {
  if (!registry_) return;
  registry_->enroll(requests_, "ntp_requests", {}, this);
  registry_->enroll(distinct_, "ntp_distinct_addresses", {}, this);
  registry_->enroll(dedup_hits_, "ntp_dedup_hits", {}, this);
}

AddressCollector::~AddressCollector() {
  if (registry_) registry_->drop_owner(this);
}

bool AddressCollector::record(const net::Ipv6Address& addr, ServerId server,
                              simnet::SimTime at) {
  return record_batch({&addr, 1}, server, at) == 1;
}

std::size_t AddressCollector::record_batch(
    std::span<const net::Ipv6Address> addrs, ServerId server,
    simnet::SimTime at) {
  if (addrs.empty()) return 0;
  requests_.inc(addrs.size());
  fresh_scratch_.clear();

  obs::Counter* server_counter = nullptr;
  for (const auto& addr : addrs) {
    auto [seq, fresh] = store_.insert(addr);
    if (!fresh) {
      dedup_hits_.inc();
      continue;
    }
    distinct_.inc();
    if (!server_counter) {
      auto [sit, created] = per_server_.try_emplace(server);
      if (created && registry_)
        registry_->enroll(sit->second, "ntp_server_distinct",
                          {{"server", util::cat(server)}}, this);
      server_counter = &sit->second;
    }
    server_counter->inc();
    ++daily_new_[at / simnet::days(1)];
    fresh_scratch_.push_back(addr);
    // Per-address subscribers fire inside the loop, exactly as a loop of
    // record() calls would — batch ingest must not reorder the feed.
    CollectedAddress rec{addr, server, at};
    for (const auto& fn : subscribers_) fn(rec);
  }

  if (!fresh_scratch_.empty()) {
    CollectedBatch batch{fresh_scratch_, server, at};
    for (const auto& fn : batch_subscribers_) fn(batch);
  }
  return fresh_scratch_.size();
}

std::uint64_t AddressCollector::server_distinct(ServerId server) const {
  auto it = per_server_.find(server);
  return it == per_server_.end() ? 0 : it->second.value();
}

void AddressCollector::save_state(util::ByteWriter& w) const {
  store_.save(w);
  // Keyed lookups only above; serialization sorts by server id so the
  // section bytes are a function of collected state, not hash layout.
  std::vector<std::pair<ServerId, std::uint64_t>> servers;
  servers.reserve(per_server_.size());
  // ttslint: allow(unordered-iter) reason=entries are sorted by server id below before serialization
  for (const auto& [id, counter] : per_server_)
    servers.emplace_back(id, counter.value());
  std::sort(servers.begin(), servers.end());
  w.u32(static_cast<std::uint32_t>(servers.size()));
  for (const auto& [id, count] : servers) {
    w.u32(id);
    w.u64(count);
  }
  w.u32(static_cast<std::uint32_t>(daily_new_.size()));
  for (const auto& [day, count] : daily_new_) {
    w.i64(day);
    w.u64(count);
  }
  w.u64(requests_.value());
  w.u64(dedup_hits_.value());
}

CollectorState AddressCollector::decode_state(util::ByteReader& r) {
  CollectorState state;
  state.store = net::AddressStore::load(r);
  // A server entry is its u32 id and u64 count.
  const std::uint64_t nservers = r.count(r.u32(), 12);
  state.per_server.reserve(nservers);
  for (std::uint64_t i = 0; i < nservers; ++i) {
    ServerId id = r.u32();
    std::uint64_t count = r.u64();
    state.per_server.emplace_back(id, count);
  }
  std::uint32_t ndays = r.u32();
  for (std::uint32_t i = 0; i < ndays; ++i) {
    std::int64_t day = r.i64();
    state.daily_new[day] = r.u64();
  }
  state.requests = r.u64();
  state.dedup_hits = r.u64();
  return state;
}

}  // namespace tts::ntp
