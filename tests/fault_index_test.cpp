// The prefix index behind the impairment plane, and the equivalence
// property that makes it safe: over seeded generated scenarios, plane
// verdicts through the index equal those of a linear walk — the route
// check by longest match, then every outage and rule — with identical
// counters and RNG streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/ipv6.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fault.hpp"
#include "simnet/network.hpp"
#include "simnet/prefix_index.hpp"
#include "simnet/route.hpp"
#include "util/rng.hpp"

namespace tts::simnet {
namespace {

using net::Ipv6Address;
using net::Ipv6Prefix;

/// Anchors a generated scenario's prefixes and addresses share, so rules
/// nest and addresses fall inside some prefixes and outside others.
std::vector<Ipv6Address> make_anchors(util::Rng& rng) {
  std::vector<Ipv6Address> anchors;
  for (int i = 0; i < 6; ++i)
    anchors.push_back(Ipv6Address::from_halves(
        0x2001000000000000ULL | (rng.below(4) << 40) | (rng.next() >> 40),
        rng.next()));
  return anchors;
}

/// An anchor with every bit from a random position on redrawn: /0 .. /128
/// neighbours of the anchor.
Ipv6Address near(const Ipv6Address& anchor, util::Rng& rng) {
  auto keep = static_cast<unsigned>(rng.below(129));
  std::uint64_t hi = rng.next(), lo = rng.next();
  hi = (anchor.hi64() & net::prefix_mask_hi(keep)) |
       (hi & ~net::prefix_mask_hi(keep));
  lo = (anchor.lo64() & net::prefix_mask_lo(keep)) |
       (lo & ~net::prefix_mask_lo(keep));
  return Ipv6Address::from_halves(hi, lo);
}

// ---- PrefixIndex -------------------------------------------------------

TEST(PrefixIndex, EmptyIndexCoversNothing) {
  PrefixIndex index;
  Ipv6Address a = Ipv6Address::from_halves(0x2001000000000000ULL, 1);
  EXPECT_FALSE(index.may_cover(a));
  EXPECT_TRUE(index.longest(a).empty());
  int visits = 0;
  index.for_each_covering(a, [&](auto) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(PrefixIndex, SharedPrefixKeepsIdsAscending) {
  Ipv6Prefix p48 = *Ipv6Prefix::parse("2001:db8:1::/48");
  Ipv6Prefix p32 = *Ipv6Prefix::parse("2001:db8::/32");
  PrefixIndex index({{p48, 7}, {p32, 1}, {p48, 2}, {p48, 5}});

  Ipv6Address inside = *Ipv6Address::parse("2001:db8:1::9");
  auto ids = index.longest(inside);
  EXPECT_EQ(std::vector<std::uint32_t>(ids.begin(), ids.end()),
            (std::vector<std::uint32_t>{2, 5, 7}));
  std::vector<std::vector<std::uint32_t>> runs;
  index.for_each_covering(inside, [&](auto run) {
    runs.emplace_back(run.begin(), run.end());
  });
  EXPECT_EQ(runs, (std::vector<std::vector<std::uint32_t>>{{2, 5, 7}, {1}}));

  auto outer = index.longest(*Ipv6Address::parse("2001:db8:2::9"));
  EXPECT_EQ(std::vector<std::uint32_t>(outer.begin(), outer.end()),
            (std::vector<std::uint32_t>{1}));
  EXPECT_FALSE(index.may_cover(*Ipv6Address::parse("2400::1")));
}

TEST(PrefixIndex, ShortPrefixesMarkEveryCoveredTopSlot) {
  PrefixIndex index({{*Ipv6Prefix::parse("2000::/3"), 0}});
  EXPECT_TRUE(index.may_cover(*Ipv6Address::parse("2000::")));
  EXPECT_TRUE(index.may_cover(*Ipv6Address::parse("3fff:ffff::1")));
  EXPECT_FALSE(index.may_cover(*Ipv6Address::parse("4000::")));
  EXPECT_FALSE(index.may_cover(*Ipv6Address::parse("1fff::")));

  PrefixIndex all({{Ipv6Prefix(Ipv6Address{}, 0), 3}});
  EXPECT_EQ(all.longest(*Ipv6Address::parse("ffff::1")).size(), 1u);
  EXPECT_EQ(all.longest(Ipv6Address{}).size(), 1u);
}

TEST(PrefixIndex, AgreesWithLinearScanOnGeneratedEntries) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(seed);
    std::vector<Ipv6Address> anchors = make_anchors(rng);
    std::vector<PrefixIndex::Entry> entries;
    auto n = 1 + rng.below(200);
    for (std::uint64_t i = 0; i < n; ++i)
      entries.emplace_back(
          Ipv6Prefix(anchors[rng.below(anchors.size())],
                     static_cast<unsigned>(rng.below(129))),
          static_cast<std::uint32_t>(i));
    PrefixIndex index(entries);

    for (int q = 0; q < 400; ++q) {
      Ipv6Address a = near(anchors[rng.below(anchors.size())], rng);
      std::vector<std::uint32_t> want;
      int best = -1;
      for (const auto& [prefix, id] : entries)
        if (prefix.contains(a)) {
          want.push_back(id);
          best = std::max(best, static_cast<int>(prefix.length()));
        }
      std::vector<std::uint32_t> got;
      unsigned last_len = 129;
      index.for_each_covering(a, [&](auto ids) {
        unsigned len = entries[ids[0]].first.length();
        EXPECT_LT(len, last_len) << "longest prefix first";
        last_len = len;
        got.insert(got.end(), ids.begin(), ids.end());
      });
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "seed " << seed << " " << a.to_string();

      auto top = index.longest(a);
      if (best < 0) {
        EXPECT_TRUE(top.empty());
      } else {
        ASSERT_FALSE(top.empty());
        EXPECT_EQ(static_cast<int>(entries[top[0]].first.length()), best);
      }
    }
  }
}

// ---- FaultPlane over the index -----------------------------------------

TEST(FaultIndex, EveryCoveringRuleIsVisitedOnceInDeclarationOrder) {
  // 40 nested delay rules over one address, more than the verdict's
  // inline hit buffer holds, declared shortest-first while the index
  // yields them longest-first; each kBoth rule covers both ends.
  const Ipv6Address host = *Ipv6Address::parse("2001:db8:1:2::9");
  FaultScenario scenario;
  for (unsigned len = 0; len < 40; ++len)
    scenario.rules.push_back({.prefix = Ipv6Prefix(host, 24 + len * 2),
                              .kind = FaultKind::kDelay,
                              .added_latency = msec(1),
                              .direction = len % 2 ? FaultDirection::kBoth
                                                   : FaultDirection::kInbound});
  // A terminal rule last: reached only after every delay.
  scenario.rules.push_back({.prefix = Ipv6Prefix(host, 128),
                            .kind = FaultKind::kBlackhole,
                            .tcp = false});
  FaultPlane plane(scenario, nullptr);

  FaultPlane::TcpVerdict tcp = plane.on_tcp_connect(host, host, 80, 0);
  EXPECT_EQ(tcp.action, FaultPlane::TcpAction::kNone);
  EXPECT_EQ(tcp.extra_latency, msec(40));
  FaultPlane::UdpVerdict udp = plane.on_udp(host, host, 123, 0);
  EXPECT_TRUE(udp.drop);
  EXPECT_EQ(udp.extra_latency, msec(40));
  EXPECT_EQ(plane.udp_dropped(), 1u);
  EXPECT_EQ(plane.delays_injected(), 1u);
}

// ---- FaultPlane equivalence --------------------------------------------

/// The linear walk the index replaced: with `routes`, first the route
/// check (the longest scripted prefix covering the destination, its events
/// replayed up to now; no draw), then every outage, then every rule in
/// declaration order, scoped by FaultRule::matches, with the plane's RNG
/// streams and counters.
class LinearOracle {
 public:
  struct Counts {
    std::uint64_t udp_dropped = 0, udp_host_down = 0, tcp_blackholed = 0,
                  tcp_rst = 0, tcp_stalled = 0, delays_injected = 0,
                  route_blackholed = 0;
  };

  LinearOracle(const FaultScenario& scenario, DomainId domains,
               const RouteScenario* routes = nullptr)
      : scenario_(scenario), routes_(routes) {
    util::Rng root(scenario.seed);
    rngs_.push_back(root.stream("faultplane"));
    for (DomainId d = 1; d < domains; ++d)
      rngs_.push_back(
          root.stream("faultplane-domain").stream(std::uint64_t{d}));
  }

  /// Is `dst` unrouted at `now`? Every event of the longest scripted
  /// prefix covering it, in (effective time, script order), up to now.
  bool withdrawn(const Ipv6Address& dst, SimTime now) const {
    if (!routes_) return false;
    int best = -1;
    for (const RouteEvent& ev : routes_->events)
      if (ev.prefix.contains(dst))
        best = std::max(best, static_cast<int>(ev.prefix.length()));
    std::vector<std::pair<SimTime, RouteOp>> script;
    for (const RouteEvent& ev : routes_->events)
      if (ev.prefix.contains(dst) &&
          static_cast<int>(ev.prefix.length()) == best)
        script.emplace_back(ev.at + routes_->convergence, ev.op);
    std::stable_sort(script.begin(), script.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    bool down = false;
    for (const auto& [effective, op] : script)
      if (effective <= now) down = op == RouteOp::kWithdraw;
    return down;
  }

  FaultPlane::TcpVerdict verdict(bool tcp, const Ipv6Address& src,
                                 const Ipv6Address& dst, std::uint16_t port,
                                 SimTime now, DomainId domain) {
    using Action = FaultPlane::TcpAction;
    util::Rng& rng = rngs_[domain];
    FaultPlane::TcpVerdict v;
    if (withdrawn(dst, now)) {
      ++counts.route_blackholed;
      v.action = Action::kBlackhole;
      v.unrouted = true;
      return v;
    }
    auto drop = [&] {
      ++(tcp ? counts.tcp_blackholed : counts.udp_dropped);
      v.action = Action::kBlackhole;
      return v;
    };
    for (const HostOutage& outage : scenario_.outages)
      if (outage.host == dst && outage.active(now)) {
        if (!tcp) {
          ++counts.udp_host_down;
          v.action = Action::kBlackhole;
          return v;
        }
        return drop();
      }
    for (const FaultRule& rule : scenario_.rules) {
      if (!(tcp ? rule.tcp : rule.udp) || !rule.active(now) ||
          !rule.matches(src, dst, port))
        continue;
      switch (rule.kind) {
        case FaultKind::kBlackhole:
          return drop();
        case FaultKind::kLoss:
          if (rng.chance(rule.probability)) return drop();
          break;
        case FaultKind::kRst:
          if (!tcp) break;
          ++counts.tcp_rst;
          v.action = Action::kRst;
          return v;
        case FaultKind::kStall:
          if (!tcp) break;
          ++counts.tcp_stalled;
          v.action = Action::kStall;
          return v;
        case FaultKind::kDelay:
          v.extra_latency += rule.added_latency;
          if (rule.added_jitter > 0)
            v.extra_latency += static_cast<SimDuration>(
                rng.below(static_cast<std::uint64_t>(rule.added_jitter)));
          break;
      }
    }
    if (v.extra_latency > 0) ++counts.delays_injected;
    return v;
  }

  Counts counts;

 private:
  const FaultScenario& scenario_;
  const RouteScenario* routes_;
  std::vector<util::Rng> rngs_;
};

constexpr SimTime kSpan = sec(100);
constexpr DomainId kDomains = 3;

/// Rule 0 of every scenario: a jitter-only delay on space the generator
/// never uses, so one verdict into it reads the stream's next draw.
Ipv6Prefix sentinel_prefix() { return *Ipv6Prefix::parse("fe80:1234::/32"); }

SimTime window_edge(util::Rng& rng) {
  return static_cast<SimTime>(rng.below(static_cast<std::uint64_t>(kSpan)));
}

FaultScenario generate(std::uint64_t seed,
                       const std::vector<Ipv6Address>& anchors,
                       util::Rng& rng) {
  FaultScenario scenario;
  scenario.seed = seed;
  scenario.rules.push_back({.prefix = sentinel_prefix(),
                            .kind = FaultKind::kDelay,
                            .added_jitter = SimDuration{1} << 62,
                            .direction = FaultDirection::kInbound});
  constexpr FaultKind kKinds[] = {FaultKind::kLoss, FaultKind::kDelay,
                                  FaultKind::kBlackhole, FaultKind::kRst,
                                  FaultKind::kStall};
  constexpr double kProbabilities[] = {0.0, 0.25, 0.5, 0.9, 1.0};
  constexpr std::uint16_t kPorts[] = {0, 0, 53, 123, 443};
  auto rules = 1 + rng.below(40);
  for (std::uint64_t i = 0; i < rules; ++i) {
    FaultRule rule;
    // Loss and delay dominate, so verdicts reach deep into the list.
    auto pick = rng.below(8);
    rule.kind = pick < 3 ? FaultKind::kLoss
                : pick < 6 ? FaultKind::kDelay
                           : kKinds[rng.below(5)];
    rule.prefix = Ipv6Prefix(anchors[rng.below(anchors.size())],
                             static_cast<unsigned>(rng.below(129)));
    switch (rng.below(5)) {
      case 0:  // forever, from the start
        break;
      case 1:  // zero-width
        rule.from = rule.until = window_edge(rng);
        break;
      case 2:  // opens, never closes
        rule.from = window_edge(rng);
        break;
      default: {
        SimTime a = window_edge(rng), b = window_edge(rng);
        rule.from = std::min(a, b);
        rule.until = std::max(a, b);
      }
    }
    rule.probability = kProbabilities[rng.below(5)];
    auto ms = [&](std::uint64_t most) {
      return msec(1 + static_cast<std::int64_t>(rng.below(most)));
    };
    rule.added_latency = rng.chance(0.5) ? ms(50) : 0;
    rule.added_jitter = rng.chance(0.5) ? ms(20) : 0;
    switch (rng.below(4)) {
      case 0: rule.udp = false; break;
      case 1: rule.tcp = false; break;
      default: break;
    }
    rule.direction = static_cast<FaultDirection>(rng.below(3));
    rule.dst_port = kPorts[rng.below(5)];
    scenario.rules.push_back(rule);
  }
  auto outages = rng.below(5);
  for (std::uint64_t i = 0; i < outages; ++i) {
    HostOutage outage;
    // Reuse a host now and then: overlapping windows on one address.
    outage.host = i > 0 && rng.chance(0.3) ? scenario.outages[0].host
                                           : near(anchors[0], rng);
    SimTime a = window_edge(rng), b = window_edge(rng);
    outage.from = std::min(a, b);
    outage.until = rng.chance(0.2) ? kFaultForever : std::max(a, b);
    scenario.outages.push_back(outage);
  }
  return scenario;
}

TEST(FaultIndexEquivalence, VerdictsCountersAndDrawsMatchTheLinearWalk) {
  constexpr int kScenarios = 150;
  constexpr int kVerdicts = 1500;
  std::uint64_t terminal = 0, delayed = 0;
  for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    std::vector<Ipv6Address> anchors = make_anchors(rng);
    FaultScenario scenario = generate(seed, anchors, rng);
    FaultPlane plane(scenario, nullptr);
    plane.configure_domains(kDomains);
    LinearOracle oracle(scenario, kDomains);

    auto endpoint = [&] {
      switch (rng.below(8)) {
        case 0: return Ipv6Address{};  // unknown source / wildcard
        case 1:
          return Ipv6Address::from_halves(rng.next() | (1ULL << 61),
                                          rng.next());
        case 2:
          if (!scenario.outages.empty())
            return scenario.outages[rng.below(scenario.outages.size())].host;
          [[fallthrough]];
        default: return near(anchors[rng.below(anchors.size())], rng);
      }
    };
    constexpr std::uint16_t kQueryPorts[] = {0, 53, 80, 123, 443};
    for (int q = 0; q < kVerdicts; ++q) {
      Ipv6Address src = endpoint(), dst = endpoint();
      if (dst.is_unspecified()) dst = near(anchors[0], rng);
      std::uint16_t port = kQueryPorts[rng.below(5)];
      // Window edges themselves are the likeliest off-by-one.
      SimTime now = rng.chance(0.2) && scenario.rules.size() > 1
                        ? scenario.rules[1 + rng.below(
                                             scenario.rules.size() - 1)]
                              .until
                        : window_edge(rng);
      auto domain = static_cast<DomainId>(rng.below(kDomains));
      bool tcp = rng.chance(0.5);
      FaultPlane::TcpVerdict want =
          oracle.verdict(tcp, src, dst, port, now, domain);
      if (tcp) {
        FaultPlane::TcpVerdict got =
            plane.on_tcp_connect(src, dst, port, now, domain);
        ASSERT_EQ(got.action, want.action)
            << "seed " << seed << " verdict " << q;
        ASSERT_EQ(got.extra_latency, want.extra_latency)
            << "seed " << seed << " verdict " << q;
      } else {
        FaultPlane::UdpVerdict got = plane.on_udp(src, dst, port, now, domain);
        ASSERT_EQ(got.drop, want.action != FaultPlane::TcpAction::kNone)
            << "seed " << seed << " verdict " << q;
        ASSERT_EQ(got.extra_latency, want.extra_latency)
            << "seed " << seed << " verdict " << q;
      }
      terminal += want.action != FaultPlane::TcpAction::kNone;
      delayed += want.extra_latency > 0;
    }

    EXPECT_EQ(plane.udp_dropped(), oracle.counts.udp_dropped);
    EXPECT_EQ(plane.udp_host_down(), oracle.counts.udp_host_down);
    EXPECT_EQ(plane.tcp_blackholed(), oracle.counts.tcp_blackholed);
    EXPECT_EQ(plane.tcp_rst(), oracle.counts.tcp_rst);
    EXPECT_EQ(plane.tcp_stalled(), oracle.counts.tcp_stalled);
    EXPECT_EQ(plane.delays_injected(), oracle.counts.delays_injected);
    EXPECT_EQ(plane.domain_fallbacks(), 0u);
    // Each stream's next draw, read through the sentinel rule.
    Ipv6Address probe = Ipv6Address::from_halves(
        sentinel_prefix().address().hi64(), 1);
    for (DomainId d = 0; d < kDomains; ++d)
      EXPECT_EQ(plane.on_udp(probe, 0, d).extra_latency,
                oracle.verdict(false, {}, probe, 0, 0, d).extra_latency)
          << "seed " << seed << " domain " << d;
    // The rule index stays small: well under 1 MB for a few dozen rules.
    EXPECT_LT(plane.index_bytes(), std::size_t{1} << 20);
  }
  // The generator really reaches both outcomes.
  EXPECT_GT(terminal, 10'000u);
  EXPECT_GT(delayed, 10'000u);
}

// ---- the plane with both parts ----------------------------------------

/// Route events over the same anchors as the fault rules: /16../64
/// prefixes (several per anchor, so they nest; never short enough to cover
/// the sentinel) withdrawn and announced at random times, with a random
/// convergence delay.
RouteScenario generate_routes(const std::vector<Ipv6Address>& anchors,
                              util::Rng& rng) {
  RouteScenario routes;
  routes.convergence = static_cast<SimDuration>(
      rng.below(static_cast<std::uint64_t>(sec(10))));
  std::vector<Ipv6Prefix> prefixes;
  auto count = 1 + rng.below(8);
  for (std::uint64_t i = 0; i < count; ++i)
    prefixes.emplace_back(anchors[rng.below(anchors.size())],
                          static_cast<unsigned>(16 + rng.below(49)));
  auto events = 1 + rng.below(30);
  for (std::uint64_t i = 0; i < events; ++i) {
    const Ipv6Prefix& prefix = prefixes[rng.below(prefixes.size())];
    if (rng.chance(0.5))
      routes.withdraw(prefix, window_edge(rng));
    else
      routes.announce(prefix, window_edge(rng));
  }
  return routes;
}

TEST(ImpairmentEquivalence, RoutePrecedesOutagesAndRulesOnGeneratedScenarios) {
  constexpr int kScenarios = 150;
  constexpr int kVerdicts = 1500;
  std::uint64_t unrouted = 0, terminal = 0;
  for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
    util::Rng rng(seed * 0xd1b54a32d192ed03ULL);
    std::vector<Ipv6Address> anchors = make_anchors(rng);
    FaultScenario faults = generate(seed, anchors, rng);
    RouteScenario routes = generate_routes(anchors, rng);
    ImpairmentPlane plane;
    plane.configure_domains(kDomains);  // before the fault part, as Network
    plane.install(routes, nullptr);
    plane.install(faults, nullptr);
    LinearOracle oracle(faults, kDomains, &routes);

    auto endpoint = [&] {
      switch (rng.below(8)) {
        case 0: return Ipv6Address{};  // unknown source / wildcard
        case 1:
          return Ipv6Address::from_halves(rng.next() | (1ULL << 61),
                                          rng.next());
        case 2:
          if (!faults.outages.empty())
            return faults.outages[rng.below(faults.outages.size())].host;
          [[fallthrough]];
        default: return near(anchors[rng.below(anchors.size())], rng);
      }
    };
    constexpr std::uint16_t kQueryPorts[] = {0, 53, 80, 123, 443};
    for (int q = 0; q < kVerdicts; ++q) {
      Ipv6Address src = endpoint(), dst = endpoint();
      if (dst.is_unspecified()) dst = near(anchors[0], rng);
      std::uint16_t port = kQueryPorts[rng.below(5)];
      // Route flips themselves are the likeliest off-by-one.
      SimTime now =
          rng.chance(0.2)
              ? routes.events[rng.below(routes.events.size())].at +
                    routes.convergence
              : window_edge(rng);
      auto domain = static_cast<DomainId>(rng.below(kDomains));
      bool tcp = rng.chance(0.5);
      ImpairmentPlane::TcpVerdict want =
          oracle.verdict(tcp, src, dst, port, now, domain);
      if (tcp) {
        ImpairmentPlane::TcpVerdict got =
            plane.on_tcp_connect(src, dst, port, now, domain);
        ASSERT_EQ(got.action, want.action)
            << "seed " << seed << " verdict " << q;
        ASSERT_EQ(got.unrouted, want.unrouted)
            << "seed " << seed << " verdict " << q;
        ASSERT_EQ(got.extra_latency, want.extra_latency)
            << "seed " << seed << " verdict " << q;
      } else {
        ImpairmentPlane::UdpVerdict got =
            plane.on_udp(src, dst, port, now, domain);
        ASSERT_EQ(got.drop, want.action != ImpairmentPlane::TcpAction::kNone)
            << "seed " << seed << " verdict " << q;
        ASSERT_EQ(got.unrouted, want.unrouted)
            << "seed " << seed << " verdict " << q;
        ASSERT_EQ(got.extra_latency, want.extra_latency)
            << "seed " << seed << " verdict " << q;
      }
      unrouted += want.unrouted;
      terminal += !want.unrouted &&
                  want.action != ImpairmentPlane::TcpAction::kNone;
    }

    EXPECT_EQ(plane.blackholed(), oracle.counts.route_blackholed);
    EXPECT_EQ(plane.udp_dropped(), oracle.counts.udp_dropped);
    EXPECT_EQ(plane.udp_host_down(), oracle.counts.udp_host_down);
    EXPECT_EQ(plane.tcp_blackholed(), oracle.counts.tcp_blackholed);
    EXPECT_EQ(plane.tcp_rst(), oracle.counts.tcp_rst);
    EXPECT_EQ(plane.tcp_stalled(), oracle.counts.tcp_stalled);
    EXPECT_EQ(plane.delays_injected(), oracle.counts.delays_injected);
    EXPECT_EQ(plane.domain_fallbacks(), 0u);
    // Each stream's next draw, read through the sentinel rule: unrouted
    // verdicts drew nothing.
    Ipv6Address probe = Ipv6Address::from_halves(
        sentinel_prefix().address().hi64(), 1);
    for (DomainId d = 0; d < kDomains; ++d)
      EXPECT_EQ(plane.on_udp(probe, 0, d).extra_latency,
                oracle.verdict(false, {}, probe, 0, 0, d).extra_latency)
          << "seed " << seed << " domain " << d;
  }
  // The generator really reaches route kills and fault verdicts behind
  // them.
  EXPECT_GT(unrouted, 10'000u);
  EXPECT_GT(terminal, 10'000u);
}

TEST(ImpairmentPlane, NetworkRejectsASecondFaultInstall) {
  EventQueue events;
  Network network(events);
  network.install_faults(FaultScenario{});
  EXPECT_THROW(network.install_faults(FaultScenario{}), std::logic_error);
}

TEST(ImpairmentPlane, NetworkRejectsASecondRouteInstall) {
  EventQueue events;
  Network network(events);
  RouteScenario routes;
  routes.withdraw(*Ipv6Prefix::parse("2001:db8::/32"), sec(1));
  network.install_routes(routes);
  EXPECT_THROW(network.install_routes(routes), std::logic_error);
}

}  // namespace
}  // namespace tts::simnet
