#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "ntp/pool.hpp"

namespace tts::ntp {
namespace {

net::Ipv6Address addr(std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x240000ff00000000ULL, lo);
}

TEST(Pool, ResolvesFromCountryZone) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, true, 0});
  pool.add_server({addr(2), "US", 1000, 20, false, 0});
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    auto picked = pool.resolve("DE", rng);
    ASSERT_TRUE(picked);
    EXPECT_EQ(*picked, addr(1));
  }
}

TEST(Pool, GlobalFallbackForEmptyZone) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, false, 0});
  util::Rng rng(2);
  auto picked = pool.resolve("JP", rng);  // no JP/asia zone -> global
  ASSERT_TRUE(picked);
  EXPECT_EQ(*picked, addr(1));
  EXPECT_FALSE(pool.zone_populated("JP"));
  EXPECT_TRUE(pool.zone_populated("DE"));
}

TEST(Pool, ContinentFallbackBeforeGlobal) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, false, 0});  // europe
  pool.add_server({addr(2), "JP", 1000, 20, false, 0});  // asia
  util::Rng rng(7);
  // India has no zone; Japan shares the asia continent zone.
  for (int i = 0; i < 50; ++i) {
    auto picked = pool.resolve("IN", rng);
    ASSERT_TRUE(picked);
    EXPECT_EQ(*picked, addr(2));
  }
  // France falls back to the European server.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(*pool.resolve("FR", rng), addr(1));
}

TEST(Pool, ContinentMapping) {
  EXPECT_EQ(continent_of("DE"), "europe");
  EXPECT_EQ(continent_of("IN"), "asia");
  EXPECT_EQ(continent_of("US"), "north-america");
  EXPECT_EQ(continent_of("BR"), "south-america");
  EXPECT_EQ(continent_of("ZA"), "africa");
  EXPECT_EQ(continent_of("AU"), "oceania");
  EXPECT_EQ(continent_of("??"), "global");
}

TEST(Pool, EmptyPoolResolvesToNothing) {
  NtpPool pool;
  util::Rng rng(3);
  EXPECT_FALSE(pool.resolve("DE", rng));
}

TEST(Pool, NetspeedWeightsSelection) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 3000, 20, true, 0});
  pool.add_server({addr(2), "DE", 1000, 20, false, 0});
  util::Rng rng(4);
  int ours = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i)
    if (*pool.resolve("DE", rng) == addr(1)) ++ours;
  EXPECT_NEAR(ours / static_cast<double>(kTrials), 0.75, 0.02);
  EXPECT_NEAR(pool.our_zone_share("DE"), 0.75, 1e-9);
}

TEST(Pool, MonitorScoreGatesRotation) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, false, 0});
  pool.add_server({addr(2), "DE", 1000, 5, false, 0});  // below threshold
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*pool.resolve("DE", rng), addr(1));

  pool.set_monitor_score(addr(2), 20);
  bool seen2 = false;
  for (int i = 0; i < 200; ++i)
    if (*pool.resolve("DE", rng) == addr(2)) seen2 = true;
  EXPECT_TRUE(seen2);
}

TEST(Pool, WithdrawRemovesFromRotation) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 1000, 20, false, 0});
  pool.withdraw(addr(1));
  util::Rng rng(6);
  EXPECT_FALSE(pool.resolve("DE", rng));
}

TEST(Pool, SetNetspeedChangesShare) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 100, 20, true, 0});
  pool.add_server({addr(2), "DE", 900, 20, false, 0});
  EXPECT_NEAR(pool.our_zone_share("DE"), 0.10, 1e-9);
  pool.set_netspeed(addr(1), 900);
  EXPECT_NEAR(pool.our_zone_share("DE"), 0.50, 1e-9);
}

TEST(Pool, OurServersSortedById) {
  NtpPool pool;
  pool.add_server({addr(3), "JP", 1, 20, true, 2});
  pool.add_server({addr(1), "DE", 1, 20, true, 0});
  pool.add_server({addr(9), "US", 1, 20, false, 0});
  pool.add_server({addr(2), "GB", 1, 20, true, 1});
  auto ours = pool.our_servers();
  ASSERT_EQ(ours.size(), 3u);
  EXPECT_EQ(ours[0].country, "DE");
  EXPECT_EQ(ours[1].country, "GB");
  EXPECT_EQ(ours[2].country, "JP");
}

TEST(Pool, ZeroNetspeedZoneThrows) {
  NtpPool pool;
  pool.add_server({addr(1), "DE", 0, 20, false, 0});
  util::Rng rng(8);
  EXPECT_THROW(pool.resolve("DE", rng), std::invalid_argument);
  EXPECT_EQ(pool.resolve_calls(), 1u);
}

// ---------------------------------------------------------------- equivalence

/// The pool's resolve as it was before zone rows, recomputing the zone's
/// eligible servers and their weights from servers() on every call. The
/// property test below holds the row-based pool to it.
struct ReferencePool {
  const NtpPool& pool;
  std::vector<std::uint64_t> selections;
  std::uint64_t calls = 0;
  std::uint64_t fallbacks = 0;

  std::optional<std::size_t> pick_from(const std::vector<std::size_t>& zone,
                                       util::Rng& rng) {
    if (zone.empty()) return std::nullopt;
    std::vector<double> weights;
    for (std::size_t i : zone) weights.push_back(pool.servers()[i].netspeed);
    std::size_t index = zone[rng.pick_weighted(weights)];
    selections.resize(pool.servers().size());
    ++selections[index];
    return index;
  }

  bool eligible_in(const PoolEntry& s, const std::string& country) const {
    return s.country == country &&
           s.monitor_score >= NtpPool::kRotationThreshold;
  }
  bool populated(const std::string& country) const {
    for (const auto& s : pool.servers())
      if (eligible_in(s, country)) return true;
    return false;
  }
  double our_share(const std::string& country) const {
    double ours = 0, total = 0;
    for (const auto& s : pool.servers()) {
      if (!eligible_in(s, country)) continue;
      total += s.netspeed;
      if (s.ours) ours += s.netspeed;
    }
    return total > 0 ? ours / total : 0.0;
  }

  std::optional<net::Ipv6Address> resolve(const std::string& country,
                                          util::Rng& rng) {
    const auto& servers = pool.servers();
    auto eligible = [&](std::size_t i) {
      return servers[i].monitor_score >= NtpPool::kRotationThreshold;
    };
    ++calls;
    std::vector<std::size_t> zone;
    for (std::size_t i = 0; i < servers.size(); ++i)
      if (servers[i].country == country && eligible(i)) zone.push_back(i);
    if (zone.empty()) {
      ++fallbacks;
      std::string_view continent = continent_of(country);
      if (continent != "global") {
        std::vector<std::size_t> regional;
        for (std::size_t i = 0; i < servers.size(); ++i)
          if (eligible(i) && continent_of(servers[i].country) == continent)
            regional.push_back(i);
        if (auto pick = pick_from(regional, rng))
          return servers[*pick].address;
      }
      std::vector<std::size_t> all;
      for (std::size_t i = 0; i < servers.size(); ++i)
        if (eligible(i)) all.push_back(i);
      auto pick = pick_from(all, rng);
      if (!pick) return std::nullopt;
      return servers[*pick].address;
    }
    auto pick = pick_from(zone, rng);
    if (!pick) return std::nullopt;
    return servers[*pick].address;
  }
};

/// Seeded sequences interleaving resolve with every mutator: countries
/// with no servers (continent and global fallbacks, "XX" has no
/// continent), a small address range so mutators sometimes hit duplicate
/// entries, scores that cross the rotation threshold both ways, and
/// netspeeds that are sometimes zero (a zero-mass zone must throw in
/// both). Zone handles are held across mutations once their country has
/// a server.
TEST(Pool, RowsResolveLikeTheReference) {
  const std::vector<std::string> kServerCountries = {"DE", "FR", "IN", "US",
                                                     "BR", "XX"};
  const std::vector<std::string> kClientCountries = {
      "DE", "FR", "IN", "US", "BR", "XX", "GB", "JP", "CA", "AR",
      "ZA", "AU", "NZ", "YY", "EG"};
  const std::vector<int> kScores = {-100, 0, 5, 9, 10, 11, 20};
  const std::vector<double> kNetspeeds = {0, 1, 250, 1000, 3000};
  // What the sequences exercised, summed over every seed.
  std::uint64_t throws = 0, by_handles = 0, fallbacks = 0, demotions = 0,
                promotions = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng gen(seed);
    NtpPool pool;
    ReferencePool ref{pool, {}, 0, 0};
    util::Rng rng_pool(seed * 7919);
    util::Rng rng_ref = rng_pool;
    std::map<std::string, NtpPool::ZoneHandle> held;
    auto any_address = [&] { return addr(1 + gen.below(24)); };
    for (int op = 0; op < 600; ++op) {
      std::uint64_t kind = gen.below(100);
      if (kind < 12) {
        const std::string& country =
            kServerCountries[gen.below(kServerCountries.size())];
        pool.add_server({any_address(), country,
                         kNetspeeds[gen.below(kNetspeeds.size())],
                         kScores[gen.below(kScores.size())], gen.chance(0.3),
                         0});
        held.try_emplace(country, pool.zone(country));
      } else if (kind < 16) {
        pool.withdraw(any_address());
      } else if (kind < 22) {
        pool.set_netspeed(any_address(),
                          kNetspeeds[gen.below(kNetspeeds.size())]);
      } else if (kind < 40) {
        pool.set_monitor_score(any_address(),
                               kScores[gen.below(kScores.size())]);
      } else {
        const std::string& country =
            kClientCountries[gen.below(kClientCountries.size())];
        auto handle = held.find(country);
        bool by_handle = handle != held.end() && gen.chance(0.5);
        std::optional<net::Ipv6Address> got, want;
        bool got_threw = false, want_threw = false;
        try {
          got = by_handle ? pool.resolve(handle->second, rng_pool)
                          : pool.resolve(country, rng_pool);
        } catch (const std::invalid_argument&) {
          got_threw = true;
        }
        try {
          want = ref.resolve(country, rng_ref);
        } catch (const std::invalid_argument&) {
          want_threw = true;
        }
        ASSERT_EQ(got_threw, want_threw) << "op " << op << " " << country;
        throws += got_threw;
        by_handles += by_handle;
        ASSERT_EQ(got, want) << "op " << op << " " << country;
        ASSERT_EQ(rng_pool.state(), rng_ref.state()) << "op " << op;
        ASSERT_EQ(pool.zone_populated(country), ref.populated(country))
            << "op " << op << " " << country;
        ASSERT_DOUBLE_EQ(pool.our_zone_share(country),
                         ref.our_share(country));
      }
      ASSERT_EQ(pool.resolve_calls(), ref.calls) << "op " << op;
      ASSERT_EQ(pool.resolve_fallbacks(), ref.fallbacks) << "op " << op;
    }
    ref.selections.resize(pool.servers().size());
    for (std::size_t i = 0; i < pool.servers().size(); ++i)
      EXPECT_EQ(pool.selections(i), ref.selections[i]) << "server " << i;
    fallbacks += pool.resolve_fallbacks();
    demotions += pool.demotions();
    promotions += pool.promotions();
  }
  EXPECT_GT(throws, 0u);
  EXPECT_GT(by_handles, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(demotions, 0u);
  EXPECT_GT(promotions, 0u);
}

TEST(Pool, DeploymentCountriesMatchPaper) {
  const auto& countries = deployment_countries();
  EXPECT_EQ(countries.size(), 11u);  // Section 3.1's 11 servers
  EXPECT_NE(std::find(countries.begin(), countries.end(), "IN"),
            countries.end());
  EXPECT_NE(std::find(countries.begin(), countries.end(), "NL"),
            countries.end());
}

}  // namespace
}  // namespace tts::ntp
