// Impairment-plane bench: verdict-lookup throughput against a RoutePlane
// compiled from 1,000 scripted flap events over 64 prefixes, the end-to-end
// cost of the reachability check on the UDP hot path (the same scripted
// send schedule driven through a Network with and without the plane
// installed), and a fault-rule sweep: the same schedule under a FaultPlane
// scripted with 1/10/100/1000 /48 rules plus one forever eyeball-style loss
// rule, so every verdict draws.
//
// The perf-smoke lane compares the emitted sample against the committed
// BENCH_route_churn.json; the flap/transition/blackhole/fault counts are
// sim-deterministic (both planes are pure functions of their script and
// seed), the *_per_sec_wall rates and *_ns timings are machine-dependent.
// The binary self-gates on two ratios (nonzero exit if either fails):
// installing the route plane must keep at least 95% of the plane-off send
// throughput — the verdict runs before any RNG draw, so the only
// admissible cost is the prefix-index probe itself — and sends under
// 1,000 fault rules must keep at least 80% of the throughput under one
// rule: a fault verdict visits only the rules covering the packet, so its
// cost must not grow with the rule count.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fault.hpp"
#include "simnet/network.hpp"
#include "simnet/route.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace tts;

namespace {

constexpr std::size_t kPrefixes = 64;      // flapped /32 aggregates
constexpr std::size_t kFlapEvents = 1000;  // scripted withdraw/announce ops
constexpr std::size_t kLookups = 2'000'000;
constexpr std::size_t kSendBatches = 500;  // scripted send schedule
constexpr std::size_t kSendsPerBatch = 1200;
constexpr int kSendReps = 16;  // interleaved off/on pairs (noise rejection)
constexpr std::size_t kRuleCounts[] = {1, 10, 100, 1000};  // fault sweep
constexpr int kSweepReps = 8;  // interleaved rounds over kRuleCounts

/// The i-th flapped /32 (2001:100+i::/32) — scripted space.
net::Ipv6Prefix flapped(std::size_t i) {
  std::uint64_t hi = 0x2001000000000000ULL |
                     (static_cast<std::uint64_t>(0x100 + i) << 32);
  return net::Ipv6Prefix(net::Ipv6Address::from_halves(hi, 0), 32);
}

/// An address inside the i-th flapped /32.
net::Ipv6Address flapped_addr(std::size_t i, std::uint64_t lo) {
  return net::Ipv6Address::from_halves(flapped(i).address().hi64() | 0x7,
                                       lo);
}

/// Unscripted, always-routed space (the realistic hot path: most targets
/// are not withdrawn, so the verdict is one LPM miss).
net::Ipv6Address routed_addr(std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x2400cb0000000000ULL, lo);
}

/// 1,000 flap events round-robin over the 64 prefixes: each prefix keeps
/// alternating withdraw/announce, one event every 10 s of sim time.
simnet::RouteScenario churn_scenario() {
  simnet::RouteScenario scenario;
  scenario.convergence = simnet::sec(30);
  std::vector<bool> down(kPrefixes, false);
  for (std::size_t e = 0; e < kFlapEvents; ++e) {
    std::size_t p = e % kPrefixes;
    simnet::SimTime at = simnet::sec(10) * static_cast<std::int64_t>(e);
    if (down[p])
      scenario.announce(flapped(p), at);
    else
      scenario.withdraw(flapped(p), at);
    down[p] = !down[p];
  }
  return scenario;
}

/// Horizon of the flap script (the last event plus convergence slack).
simnet::SimTime churn_horizon() {
  return simnet::sec(10) * static_cast<std::int64_t>(kFlapEvents) +
         simnet::minutes(2);
}

struct SendRun {
  double sends_per_sec = 0;
  double wall_seconds = 0;
  std::uint64_t delivered = 0;
  std::uint64_t blackholed = 0;
};

/// Drive the scripted send schedule through `network`: kSendBatches events
/// spread across the flap timeline, each sending kSendsPerBatch datagrams
/// to `sink` (bound, so a delivered datagram runs a handler) plus one to
/// probe(batch), so a run also exercises the plane's hit path,
/// deterministically.
template <typename Probe>
SendRun drive_sends(simnet::EventQueue& events, simnet::Network& network,
                    const net::Ipv6Address& sink, Probe probe) {
  SendRun out;
  network.bind_udp({sink, 123}, [&out](const simnet::Datagram&) {
    ++out.delivered;
  });
  simnet::SimTime span = churn_horizon();
  for (std::size_t b = 0; b < kSendBatches; ++b) {
    simnet::SimTime at =
        span / static_cast<std::int64_t>(kSendBatches) *
        static_cast<std::int64_t>(b);
    events.schedule_at(at, [&network, &sink, &probe, b] {
      static constexpr std::uint8_t kPayload[] = {1};
      for (std::size_t s = 0; s < kSendsPerBatch; ++s)
        network.send_udp({routed_addr(2), 1}, {sink, 123}, kPayload);
      network.send_udp({routed_addr(2), 1}, {probe(b), 123}, kPayload);
    });
  }
  std::int64_t t0 = bench::bench_wall_ns();
  events.run();
  out.wall_seconds =
      static_cast<double>(bench::bench_wall_ns() - t0) / 1e9;
  auto total =
      static_cast<double>(kSendBatches * (kSendsPerBatch + 1));
  out.sends_per_sec =
      out.wall_seconds > 0 ? total / out.wall_seconds : 0;
  return out;
}

/// The send schedule with or without the churn scenario installed, into
/// always-routed space plus one datagram per batch into the flapped space.
/// The plane-off run schedules a no-op tick at each of the plane's
/// transition instants, so both configurations execute the identical event
/// schedule and the measured ratio isolates the per-send verdict cost —
/// not the event-queue population effect of 1k extra pending events, which
/// at study scale (millions of probes per flap) is noise.
SendRun run_sends(bool with_plane) {
  simnet::EventQueue events;
  simnet::Network network(events);
  if (with_plane) {
    network.install_routes(churn_scenario());
  } else {
    for (std::size_t e = 0; e < kFlapEvents; ++e)
      events.schedule_at(simnet::sec(10) * static_cast<std::int64_t>(e) +
                             simnet::sec(30),
                         [] {});
  }
  SendRun out = drive_sends(events, network, routed_addr(1),
                            [](std::size_t b) {
                              return flapped_addr(b % kPrefixes, 9);
                            });
  if (with_plane) out.blackholed = network.routes()->blackholed();
  return out;
}

// ---- fault-rule sweep -------------------------------------------------------

/// The eyeball-style /32 every sweep rule lives in (2a02:1000::/32).
constexpr std::uint64_t kEyeballHi = 0x2a02100000000000ULL;

/// The i-th fault rule's /48, 2a02:1000:<i+1>::/48.
net::Ipv6Prefix rule_net(std::size_t i) {
  return net::Ipv6Prefix(
      net::Ipv6Address::from_halves(
          kEyeballHi | (static_cast<std::uint64_t>(i + 1) << 16), 0),
      48);
}

/// `rules` /48 rules (a third blackhole, the rest 30% loss) in staggered
/// windows over the send timeline, then one forever 20% loss rule over the
/// whole eyeball /32: the shape of a partial-outage script over an eyeball
/// AS.
simnet::FaultScenario fault_scenario(std::size_t rules) {
  simnet::FaultScenario scenario;
  simnet::SimTime quarter = churn_horizon() / 4;
  for (std::size_t i = 0; i < rules; ++i) {
    simnet::SimTime from = quarter * static_cast<std::int64_t>(i % 4);
    scenario.rules.push_back(
        {.prefix = rule_net(i),
         .kind = i % 3 == 0 ? simnet::FaultKind::kBlackhole
                            : simnet::FaultKind::kLoss,
         .from = from,
         .until = from + 2 * quarter,
         .probability = 0.3});
  }
  scenario.rules.push_back(
      {.prefix = net::Ipv6Prefix(net::Ipv6Address::from_halves(kEyeballHi, 0),
                                 32),
       .kind = simnet::FaultKind::kLoss,
       .probability = 0.2});
  return scenario;
}

struct FaultRun {
  SendRun sends;
  std::uint64_t dropped = 0;
};

/// The send schedule under fault_scenario(rules): the sink sits in the
/// eyeball /32 outside every rule's /48, so each of its verdicts draws
/// once (for the eyeball loss rule) at every rule count, and each batch's
/// probe lands inside one of the /48s.
FaultRun run_fault_sends(std::size_t rules) {
  simnet::EventQueue events;
  simnet::Network network(events);
  network.install_faults(fault_scenario(rules));
  // 2a02:1000:0:1::1, in the /32 but in no rule's /48.
  net::Ipv6Address sink = net::Ipv6Address::from_halves(kEyeballHi | 0x1, 1);
  FaultRun out;
  out.sends = drive_sends(events, network, sink, [rules](std::size_t b) {
    return net::Ipv6Address::from_halves(
        rule_net(b % rules).address().hi64() | 0x7, 9);
  });
  out.dropped = network.faults()->udp_dropped();
  return out;
}

/// Throughput of a configuration relative to a base one, from their
/// wall-time samples: the better of the minimum-wall ratio (noise only
/// ever *adds* wall time, so per-config minima converge on clean run
/// times) and the median-wall ratio (order statistics shrug off outlier
/// runs), either of which a genuine hot-path regression drags down.
double throughput_ratio(std::vector<double> base_walls,
                        std::vector<double> walls) {
  std::sort(base_walls.begin(), base_walls.end());
  std::sort(walls.begin(), walls.end());
  double min_ratio =
      walls.front() > 0 ? base_walls.front() / walls.front() : 0;
  double median_ratio = walls[walls.size() / 2] > 0
                            ? base_walls[base_walls.size() / 2] /
                                  walls[walls.size() / 2]
                            : 0;
  return std::max(min_ratio, median_ratio);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main() {
  std::int64_t t0 = bench::bench_wall_ns();

  // Raw verdict throughput: the compiled plane answered directly, over a
  // deterministic mix of flapped and unscripted targets at times spanning
  // the whole churn window.
  simnet::RoutePlane plane(churn_scenario(), nullptr);
  constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
  util::Rng rng(kSeed);
  std::vector<std::pair<net::Ipv6Address, simnet::SimTime>> probes;
  probes.reserve(kLookups);
  auto span = static_cast<std::uint64_t>(churn_horizon());
  for (std::size_t i = 0; i < kLookups; ++i) {
    net::Ipv6Address a = (i & 1) ? flapped_addr(rng.below(kPrefixes), i)
                                 : routed_addr(i);
    probes.emplace_back(
        a, static_cast<simnet::SimTime>(rng.below(span)));
  }
  std::uint64_t withdrawn_hits = 0;
  std::int64_t t_lookup = bench::bench_wall_ns();
  for (const auto& [a, at] : probes) withdrawn_hits += plane.withdrawn(a, at);
  double lookup_s =
      static_cast<double>(bench::bench_wall_ns() - t_lookup) / 1e9;
  double lookups_per_sec =
      lookup_s > 0 ? static_cast<double>(kLookups) / lookup_s : 0;

  // End-to-end hot-path overhead: kSendReps interleaved off/on runs per
  // configuration (scheduler/co-tenant noise on shared runners swings a
  // single run by 10%+), gated on throughput_ratio.
  SendRun on, off;
  std::vector<double> off_walls, on_walls;
  for (int rep = 0; rep < kSendReps; ++rep) {
    SendRun o = run_sends(/*with_plane=*/false);
    SendRun w = run_sends(/*with_plane=*/true);
    off_walls.push_back(o.wall_seconds);
    on_walls.push_back(w.wall_seconds);
    if (o.sends_per_sec > off.sends_per_sec) off = o;
    if (w.sends_per_sec > on.sends_per_sec) on = w;
  }
  double ratio = throughput_ratio(off_walls, on_walls);

  // Fault-rule sweep: kSweepReps rounds, each running every rule count
  // once, so drift in machine load spreads evenly over the counts.
  constexpr std::size_t kCounts = std::size(kRuleCounts);
  std::vector<std::vector<double>> sweep_walls(kCounts);
  std::vector<FaultRun> sweep(kCounts);
  for (int rep = 0; rep < kSweepReps; ++rep) {
    for (std::size_t c = 0; c < kCounts; ++c) {
      FaultRun run = run_fault_sends(kRuleCounts[c]);
      sweep_walls[c].push_back(run.sends.wall_seconds);
      if (run.sends.sends_per_sec > sweep[c].sends.sends_per_sec)
        sweep[c] = run;
    }
  }
  double rule_ratio =
      throughput_ratio(sweep_walls.front(), sweep_walls.back());

  // Compile cost (best of five) and footprint of the largest sweep
  // script's indexes.
  simnet::FaultScenario largest = fault_scenario(kRuleCounts[kCounts - 1]);
  std::int64_t compile_ns = 0;
  std::size_t index_bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::int64_t t_compile = bench::bench_wall_ns();
    simnet::FaultPlane compiled(largest, nullptr);
    std::int64_t ns = bench::bench_wall_ns() - t_compile;
    if (rep == 0 || ns < compile_ns) compile_ns = ns;
    index_bytes = compiled.index_bytes();
  }

  double wall_seconds =
      static_cast<double>(bench::bench_wall_ns() - t0) / 1e9;

  util::TextTable t(
      "Impairment planes: route verdicts under 1k flaps, fault-rule sweep");
  t.set_header({"metric", "value"});
  t.add_row({"flap events scripted", std::to_string(kFlapEvents)});
  t.add_row({"transitions compiled",
             std::to_string(plane.transition_count())});
  t.add_row({"verdict lookups/s", fmt(lookups_per_sec)});
  t.add_row({"withdrawn verdicts", std::to_string(withdrawn_hits)});
  t.add_row({"sends/s (plane off)", fmt(off.sends_per_sec)});
  t.add_row({"sends/s (plane on)", fmt(on.sends_per_sec)});
  t.add_row({"on/off throughput ratio", fmt(ratio)});
  t.add_row({"datagrams blackholed", std::to_string(on.blackholed)});
  for (std::size_t c = 0; c < kCounts; ++c)
    t.add_row({"sends/s (" + std::to_string(kRuleCounts[c]) +
                   " fault rules)",
               fmt(sweep[c].sends.sends_per_sec)});
  t.add_row({"1000-rule/1-rule throughput ratio", fmt(rule_ratio)});
  t.add_row({"fault index compile (1001 rules)",
             fmt(static_cast<double>(compile_ns) / 1e3) + " us"});
  t.add_row({"fault index footprint",
             std::to_string(index_bytes) + " B"});
  t.render(std::cout);

  bench::BenchMetrics metrics;
  metrics.emplace_back("flap_events", std::to_string(kFlapEvents));
  metrics.emplace_back("route_transitions",
                       std::to_string(plane.transition_count()));
  metrics.emplace_back("withdrawn_verdicts",
                       std::to_string(withdrawn_hits));
  metrics.emplace_back("datagrams_blackholed",
                       std::to_string(on.blackholed));
  metrics.emplace_back("datagrams_delivered", std::to_string(on.delivered));
  metrics.emplace_back("verdict_lookups_per_sec_wall",
                       fmt(lookups_per_sec));
  metrics.emplace_back("sends_plane_on_per_sec_wall",
                       fmt(on.sends_per_sec));
  metrics.emplace_back("sends_plane_off_per_sec_wall",
                       fmt(off.sends_per_sec));
  for (std::size_t c = 0; c < kCounts; ++c)
    metrics.emplace_back(
        "fault_rules_" + std::to_string(kRuleCounts[c]) +
            "_sends_per_sec_wall",
        fmt(sweep[c].sends.sends_per_sec));
  metrics.emplace_back("fault_datagrams_dropped",
                       std::to_string(sweep.back().dropped));
  metrics.emplace_back("fault_datagrams_delivered",
                       std::to_string(sweep.back().sends.delivered));
  metrics.emplace_back("fault_index_bytes",
                       std::to_string(index_bytes));
  metrics.emplace_back("fault_index_compile_ns", std::to_string(compile_ns));
  metrics.emplace_back("wall_seconds", fmt(wall_seconds));
  metrics.emplace_back("rss_peak_kb",
                       std::to_string(bench::bench_rss_peak_kb()));
  bench::emit_bench_json("route_churn", "micro", metrics);

  // The acceptance bars: the reachability check costs <= 5% of plane-off
  // UDP throughput and the scripted churn exercised both verdict outcomes;
  // sends under 1,000 fault rules keep >= 80% of the 1-rule throughput and
  // the sweep's rules actually fired.
  bool route_pass = ratio >= 0.95 && withdrawn_hits > 0 && on.blackholed > 0;
  bool fault_pass = rule_ratio >= 0.80 && sweep.back().dropped > 0;
  std::cout << "\nRoute-plane overhead check (>= 0.95x plane-off"
            << " throughput, both verdicts exercised): "
            << (route_pass ? "PASS" : "FAIL") << "\n";
  std::cout << "Fault-rule scaling check (1000 rules >= 0.80x the 1-rule"
            << " throughput, rules fired): "
            << (fault_pass ? "PASS" : "FAIL") << "\n";
  return route_pass && fault_pass ? 0 : 1;
}
