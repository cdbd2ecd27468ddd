#include "ntp/pool.hpp"

#include <algorithm>

#include "util/format.hpp"

namespace tts::ntp {

namespace {

struct ContinentZone {
  const char* continent;
  const char* codes[18];
};
// Index order is the pool's continent row order; "global" comes after.
constexpr ContinentZone kContinentZones[] = {
    {"europe",
     {"DE", "ES", "NL", "GB", "PL", "FR", "IT", "SE", "CH", "AT", "CZ",
      "FI", "PT", "GR", "RO", "HU", "DK", nullptr}},
    {"asia",
     {"IN", "JP", "CN", "ID", "KR", "VN", "TH", "TW", "RU", "TR", nullptr}},
    {"north-america", {"US", "CA", "MX", nullptr}},
    {"south-america", {"BR", "AR", "CL", "CO", nullptr}},
    {"africa", {"ZA", "EG", "NG", nullptr}},
    {"oceania", {"AU", "NZ", nullptr}},
};

/// Continent row of an ISO country code; unknown codes get the global row.
std::size_t continent_index(const std::string& country) {
  for (std::size_t c = 0; c < std::size(kContinentZones); ++c)
    for (const char* const* code = kContinentZones[c].codes; *code; ++code)
      if (country == *code) return c;
  return std::size(kContinentZones);
}

}  // namespace

NtpPool::~NtpPool() {
  if (registry_) registry_->drop_owner(this);
}

void NtpPool::set_registry(obs::Registry* registry) {
  if (registry_ == registry) return;
  if (registry_) registry_->drop_owner(this);
  registry_ = registry;
  if (!registry_) return;
  registry_->enroll(resolve_total_, "pool_resolve_total", {}, this);
  registry_->enroll(resolve_fallback_, "pool_resolve_fallback", {}, this);
  registry_->enroll(demotions_, "pool_demotions", {}, this);
  registry_->enroll(promotions_, "pool_promotions", {}, this);
  for (std::size_t i = 0; i < servers_.size(); ++i) enroll_server(i);
}

void NtpPool::enroll_server(std::size_t index) {
  if (!registry_) return;
  const PoolEntry& s = servers_[index];
  registry_->enroll(selections_[index], "pool_selections",
                    {{"zone", s.country},
                     {"server", util::cat(index)},
                     {"ours", s.ours ? "1" : "0"}},
                    this);
}

void NtpPool::add_server(PoolEntry entry) {
  auto [it, added] = zone_rows_.try_emplace(
      entry.country, static_cast<std::uint32_t>(rows_.size()));
  if (added) rows_.emplace_back();
  rows_[it->second].members.push_back(servers_.size());
  continents_.push_back(
      static_cast<std::uint8_t>(continent_index(entry.country)));
  servers_.push_back(std::move(entry));
  selections_.emplace_back();
  enroll_server(servers_.size() - 1);
  rebuild_rows();
}

void NtpPool::withdraw(const net::Ipv6Address& address) {
  for (auto& s : servers_)
    if (s.address == address) s.monitor_score = -100;
  rebuild_rows();
}

void NtpPool::set_netspeed(const net::Ipv6Address& address, double netspeed) {
  for (auto& s : servers_)
    if (s.address == address) s.netspeed = netspeed;
  rebuild_rows();
}

void NtpPool::set_monitor_score(const net::Ipv6Address& address, int score) {
  bool flipped = false;
  for (auto& s : servers_) {
    if (s.address != address) continue;
    // Count rotation-eligibility flips: this is the pool's demote/promote
    // path (Appendix A.1.1) the chaos harness asserts end to end.
    bool was = s.monitor_score >= kRotationThreshold;
    bool is = score >= kRotationThreshold;
    if (was && !is) demotions_.inc();
    if (!was && is) promotions_.inc();
    flipped = flipped || was != is;
    s.monitor_score = score;
  }
  // Scores above the threshold weigh nothing: only a flip changes a row.
  if (flipped) rebuild_rows();
}

void NtpPool::rebuild_rows() {
  static_assert(std::size(kContinentZones) + 1 == kContinents);
  auto eligible = [this](std::size_t i) {
    return servers_[i].monitor_score >= kRotationThreshold;
  };
  auto fill = [this](ZoneRow& row, std::vector<std::size_t> picked,
                     bool fallback) {
    row.weights.clear();
    for (std::size_t i : picked) row.weights.push_back(servers_[i].netspeed);
    row.eligible = std::move(picked);
    row.fallback = fallback;
  };
  // The global zone: every eligible server worldwide.
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < servers_.size(); ++i)
    if (eligible(i)) all.push_back(i);
  fill(rows_[kContinents - 1], all, true);
  // Continent zones: eligible servers sharing the continent, else global.
  for (std::size_t c = 0; c + 1 < kContinents; ++c) {
    std::vector<std::size_t> regional;
    for (std::size_t i : all)
      if (continents_[i] == c) regional.push_back(i);
    fill(rows_[c], regional.empty() ? all : std::move(regional), true);
  }
  // Country zones: their own eligible servers, else their continent's row.
  for (std::size_t r = kContinents; r < rows_.size(); ++r) {
    ZoneRow& row = rows_[r];
    std::vector<std::size_t> own;
    for (std::size_t i : row.members)
      if (eligible(i)) own.push_back(i);
    if (own.empty()) {
      const ZoneRow& up = rows_[continents_[row.members.front()]];
      fill(row, up.eligible, true);
    } else {
      fill(row, std::move(own), false);
    }
  }
}

NtpPool::ZoneHandle NtpPool::zone(const std::string& country) const {
  auto it = zone_rows_.find(country);
  if (it != zone_rows_.end()) return {it->second};
  return {static_cast<std::uint32_t>(continent_index(country))};
}

std::optional<net::Ipv6Address> NtpPool::resolve(ZoneHandle zone,
                                                 util::Rng& rng) const {
  resolve_total_.inc();
  const ZoneRow& row = rows_[zone.row];
  if (row.fallback) resolve_fallback_.inc();
  if (row.eligible.empty()) return std::nullopt;
  std::size_t index = row.eligible[rng.pick_weighted(row.weights)];
  selections_[index].inc();
  return servers_[index].address;
}

double NtpPool::our_zone_share(const std::string& country) const {
  const ZoneRow& row = rows_[zone(country).row];
  if (row.fallback) return 0.0;
  double ours = 0, total = 0;
  for (std::size_t k = 0; k < row.eligible.size(); ++k) {
    total += row.weights[k];
    if (servers_[row.eligible[k]].ours) ours += row.weights[k];
  }
  return total > 0 ? ours / total : 0.0;
}

std::vector<PoolEntry> NtpPool::our_servers() const {
  std::vector<PoolEntry> out;
  for (const auto& s : servers_)
    if (s.ours) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const PoolEntry& a, const PoolEntry& b) { return a.id < b.id; });
  return out;
}

bool NtpPool::zone_populated(const std::string& country) const {
  return !rows_[zone(country).row].fallback;
}

const std::vector<std::string>& deployment_countries() {
  static const std::vector<std::string> kCountries = {
      "AU", "BR", "DE", "IN", "JP", "PL", "ZA", "ES", "NL", "GB", "US"};
  return kCountries;
}

std::string_view continent_of(const std::string& country) {
  std::size_t c = continent_index(country);
  return c < std::size(kContinentZones) ? kContinentZones[c].continent
                                         : "global";
}

}  // namespace tts::ntp
