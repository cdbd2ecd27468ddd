// NTP Pool model: country zones, operator-configurable netspeed weights,
// monitor scores, and the GeoDNS-style client mapping (after Moura et al.,
// "Deep Dive into NTP Pool's Popularity and Mapping").
//
// Clients resolve the pool from their country zone; the zone falls back to
// the global zone when empty. Within a zone, selection is netspeed-weighted
// among servers whose monitor score is above the rotation threshold. Our 11
// capture servers join zones alongside third-party background servers, so —
// as in Section 3.1 — the share of client traffic our servers see is
// controlled by raising their netspeed relative to the zone's total.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ipv6.hpp"
#include "ntp/collector.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace tts::ntp {

struct PoolEntry {
  net::Ipv6Address address;
  std::string country;     // ISO code zone, e.g. "IN"
  double netspeed = 1000;  // relative selection weight (pool "netspeed")
  int monitor_score = 20;  // -100..20; below threshold → out of rotation
  bool ours = false;       // one of the 11 capture servers
  ServerId id = 0;         // meaningful when ours
};

class NtpPool {
 public:
  /// Servers with a monitor score below this are not handed to clients
  /// (the pool uses 10).
  static constexpr int kRotationThreshold = 10;

  NtpPool() = default;
  ~NtpPool();
  NtpPool(const NtpPool&) = delete;
  NtpPool& operator=(const NtpPool&) = delete;

  /// Export per-server selection counters ("pool_selections{zone=..}") and
  /// the resolve totals. Servers already added are enrolled retroactively.
  /// The registry must outlive the pool.
  void set_registry(obs::Registry* registry);

  void add_server(PoolEntry entry);
  /// Stop advertising a server (it stays resolvable until removed by the
  /// zone rebuild; we model withdrawal as immediate de-rotation).
  void withdraw(const net::Ipv6Address& address);
  void set_netspeed(const net::Ipv6Address& address, double netspeed);
  /// Commits a monitor verdict into the rotation scores that every
  /// device's resolve() reads concurrently.
  // ttslint: barrier_only
  void set_monitor_score(const net::Ipv6Address& address, int score);

  /// A client's GeoDNS zone, looked up once and kept (a device takes its
  /// handle at bring-up). It names its country's row, or — for a country
  /// with no servers — its continent's fallback row; it stays valid across
  /// every mutator, but a country's first add_server does not redirect
  /// the handles taken before it.
  struct ZoneHandle {
    std::uint32_t row = 0;
  };
  ZoneHandle zone(const std::string& country) const;

  /// GeoDNS resolution for a client in the zone, following the pool's
  /// zone hierarchy: country zone, else continent zone, else the global
  /// zone (Moura et al.'s mapping), else nullopt. One weighted draw over
  /// the zone's prebuilt row: no allocation, no string hash.
  std::optional<net::Ipv6Address> resolve(ZoneHandle zone,
                                          util::Rng& rng) const;
  std::optional<net::Ipv6Address> resolve(const std::string& country,
                                          util::Rng& rng) const {
    return resolve(zone(country), rng);
  }

  /// Expected fraction of `country` zone traffic landing on our servers —
  /// the quantity the paper tunes via netspeed (Section 3.1).
  double our_zone_share(const std::string& country) const;

  /// All servers (both ours and background).
  const std::vector<PoolEntry>& servers() const { return servers_; }
  std::vector<PoolEntry> our_servers() const;

  /// True when the zone has at least one rotation-eligible server.
  bool zone_populated(const std::string& country) const;

  /// Times resolve() handed out server `index` (parallel to servers()).
  std::uint64_t selections(std::size_t index) const {
    return index < selections_.size() ? selections_[index].value() : 0;
  }
  std::uint64_t resolve_calls() const { return resolve_total_.value(); }
  /// resolve() calls satisfied by the continent/global fallback.
  std::uint64_t resolve_fallbacks() const {
    return resolve_fallback_.value();
  }
  /// Rotation transitions driven by monitor-score updates: a server whose
  /// score crossed below kRotationThreshold (demotion, it stops being
  /// handed out) or recovered to at-or-above it (promotion).
  std::uint64_t demotions() const { return demotions_.value(); }
  std::uint64_t promotions() const { return promotions_.value(); }

 private:
  /// What resolve() draws from in one zone: the rotation-eligible servers
  /// (indexes into servers_, in the zone's add order) and their netspeeds.
  /// A zone without one takes its continent's, else the global, fallback
  /// set and is marked `fallback`.
  struct ZoneRow {
    std::vector<std::size_t> members;  // every server of a country zone
    std::vector<std::size_t> eligible;
    std::vector<double> weights;  // netspeed of each eligible server
    bool fallback = true;         // nothing of its own (an empty pool)
  };
  /// Rows 0..kContinents-1 are the continent fallbacks (the last is the
  /// global zone); each country zone appends its row at its first server.
  static constexpr std::size_t kContinents = 7;

  /// Recompute every row's eligible set from the servers' current scores
  /// and netspeeds. Every mutator calls it, so resolve() only reads.
  void rebuild_rows();
  void enroll_server(std::size_t index);

  std::vector<PoolEntry> servers_;
  std::vector<std::uint8_t> continents_;  // continent row of each server
  std::vector<ZoneRow> rows_ = std::vector<ZoneRow>(kContinents);
  std::unordered_map<std::string, std::uint32_t> zone_rows_;
  // Deque keeps counter addresses stable as servers are appended; mutable
  // because resolve() is logically const but counts its selections.
  mutable std::deque<obs::Counter> selections_;
  mutable obs::Counter resolve_total_;
  mutable obs::Counter resolve_fallback_;
  obs::Counter demotions_;
  obs::Counter promotions_;
  obs::Registry* registry_ = nullptr;
};

/// The 11 deployment countries of Section 3.1 in the paper's order of
/// listing (Australia .. United States).
const std::vector<std::string>& deployment_countries();

/// Continent zone of an ISO country code ("europe", "asia", "north-america",
/// "south-america", "africa", "oceania"); unknown codes map to "global".
std::string_view continent_of(const std::string& country);

}  // namespace tts::ntp
