// SharedBudget property harness: randomised (client count, pps, work
// sizes) scenarios driven through FakePacer clients, asserting the three
// pacing invariants — no 1-second window exceeds the shared cap, n
// saturated clients each converge to an equal 1/n share (and none
// starves), and the whole grant sequence is bit-identical between
// same-configuration runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "scan/budget.hpp"
#include "simnet/event_queue.hpp"
#include "util/rng.hpp"

namespace tts::harness {
namespace {

using scan::SharedBudget;
using scan::SharedBudgetConfig;

struct Scenario {
  double pps = 1000;
  /// Work per client, one entry per client.
  std::vector<std::uint64_t> work;
};

Scenario random_scenario(util::Rng& rng) {
  Scenario s;
  s.pps = rng.uniform(200.0, 5000.0);
  std::size_t clients = 2 + rng.below(3);
  for (std::size_t i = 0; i < clients; ++i)
    s.work.push_back(500 + rng.below(1500));
  return s;
}

/// Run a scenario to completion: all clients start backlogged at t = 0.
std::vector<Grant> run_scenario(const Scenario& s, SharedBudget& budget,
                                simnet::EventQueue& events) {
  GrantLog log;
  log.attach(budget);
  std::vector<std::unique_ptr<FakePacer>> pacers;
  for (std::size_t i = 0; i < s.work.size(); ++i)
    pacers.push_back(std::make_unique<FakePacer>(events, budget,
                                                 "c" + std::to_string(i)));
  for (std::size_t i = 0; i < pacers.size(); ++i)
    pacers[i]->add_work(s.work[i]);
  events.run();
  for (std::size_t i = 0; i < pacers.size(); ++i)
    EXPECT_EQ(pacers[i]->done(), s.work[i]) << "client " << i;
  return log.grants();
}

/// Launches inside any window of length W consume tokens whose accrual
/// times span at most W + burst * gap, so the count is bounded by
/// ceil(W / gap) + burst + 1 whatever the client mix.
std::size_t window_cap(const SharedBudget& budget, simnet::SimDuration w) {
  return static_cast<std::size_t>((w + budget.gap() - 1) / budget.gap()) +
         static_cast<std::size_t>(budget.burst_slots()) + 1;
}

TEST(BudgetHarness, RandomisedScenariosNeverExceedCapInAnyWindow) {
  util::Rng rng(0x70cbad5e11);
  for (int iter = 0; iter < 12; ++iter) {
    Scenario s = random_scenario(rng);
    simnet::EventQueue events;
    SharedBudget budget(events, SharedBudgetConfig{s.pps, nullptr});
    auto grants = run_scenario(s, budget, events);

    std::uint64_t total = 0;
    for (auto w : s.work) total += w;
    ASSERT_EQ(grants.size(), total) << "iter " << iter;

    std::vector<simnet::SimTime> times;
    times.reserve(grants.size());
    for (const Grant& g : grants) times.push_back(g.at);
    EXPECT_LE(max_window_count(times, simnet::sec(1)),
              window_cap(budget, simnet::sec(1)))
        << "iter " << iter << " pps=" << s.pps;
    // Every consumed token was accrued, never future-dated, and within the
    // burst bank of its launch.
    for (const Grant& g : grants) {
      EXPECT_LE(g.slot, g.at);
      EXPECT_LE(g.at - g.slot, budget.burst_slots() * budget.gap());
    }
  }
}

TEST(BudgetHarness, SaturatedClientsGetEqualSharesAndNobodyStarves) {
  util::Rng rng(0x5fa1c0de);
  for (int iter = 0; iter < 12; ++iter) {
    Scenario s = random_scenario(rng);
    simnet::EventQueue events;
    SharedBudget budget(events, SharedBudgetConfig{s.pps, nullptr});
    auto grants = run_scenario(s, budget, events);

    // All clients are backlogged until the earliest last-grant time; the
    // equal-share property is asserted over that fully contended prefix.
    std::vector<simnet::SimTime> last(s.work.size(), 0);
    for (const Grant& g : grants) last[g.client] = g.at;
    simnet::SimTime cutoff = *std::min_element(last.begin(), last.end());

    std::vector<std::uint64_t> before(s.work.size(), 0);
    std::uint64_t total_before = 0;
    for (const Grant& g : grants)
      if (g.at < cutoff) {
        ++before[g.client];
        ++total_before;
      }
    ASSERT_GT(total_before, 200u) << "iter " << iter;

    const double expected = static_cast<double>(total_before) /
                            static_cast<double>(s.work.size());
    for (std::size_t i = 0; i < s.work.size(); ++i) {
      // Within 5% of 1/n (plus a constant few-grant slack for the SFQ
      // quantisation at the interval edges)...
      EXPECT_NEAR(static_cast<double>(before[i]), expected,
                  0.05 * expected + 4.0)
          << "iter " << iter << " client " << i;
      // ...and in particular never starved below it.
      EXPECT_GE(static_cast<double>(before[i]), 0.95 * expected - 4.0)
          << "iter " << iter << " client " << i;
    }
  }
}

TEST(BudgetHarness, SameScenarioGivesBitIdenticalGrantSequences) {
  util::Rng rng(0xd37e2317);
  Scenario s = random_scenario(rng);
  auto run_once = [&] {
    simnet::EventQueue events;
    SharedBudget budget(events, SharedBudgetConfig{s.pps, nullptr});
    return run_scenario(s, budget, events);
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);  // same clients, same slots, same launch times
}

TEST(BudgetHarness, IdleShareIsLentAndReclaimedWithinOneGap) {
  simnet::EventQueue events;
  SharedBudget budget(events, SharedBudgetConfig{1000, nullptr});  // gap = 1 ms
  GrantLog log;
  log.attach(budget);
  FakePacer a(events, budget, "a");
  FakePacer b(events, budget, "b");
  a.add_work(4000);  // 4 s of work at the full (borrowed) rate
  events.schedule_at(simnet::sec(1), [&] { b.add_work(500); });
  events.run();

  EXPECT_EQ(a.done(), 4000u);
  EXPECT_EQ(b.done(), 500u);
  // While b was idle, a took b's share too: borrowing is the common case,
  // not the exception.
  EXPECT_GT(budget.borrowed(a.id()), 2000u);
  // b only ever ran against a backlogged peer, so none of its grants are
  // borrows.
  EXPECT_EQ(budget.borrowed(b.id()), 0u);
  // b turned busy at t = 1 s and re-entered at the current virtual time:
  // its first grant (the reclaim) landed within a token gap or two, not
  // after a's banked history.
  simnet::SimTime first = log.first_at_or_after(b.id(), simnet::sec(1));
  ASSERT_GE(first, simnet::sec(1));
  EXPECT_LE(first - simnet::sec(1), 2 * budget.gap());
  ASSERT_GE(budget.reclaim(b.id()).count(), 1u);
  EXPECT_LE(budget.reclaim(b.id()).max(), 2 * budget.gap());
}

TEST(BudgetHarness, FractionalGapRateIsExactOverLongWindows) {
  // Regression: truncating the token gap to whole microseconds overshot the
  // cap for non-divisor rates (max_pps = 4096 -> gap 244 us = 4098.4 pps,
  // ~0.06% hot). With integer error-feedback accrual the long-run rate is
  // exact: 4096 pps x 600 s = 2 457 600 tokens, and token k accrues at
  // floor(k x 244.140625) us, so exactly 2 457 600 accrual slots fall in
  // [0, 600 s).
  auto run_once = [] {
    simnet::EventQueue events;
    SharedBudget budget(events, SharedBudgetConfig{4096, nullptr});
    GrantLog log;
    log.attach(budget);
    FakePacer pacer(events, budget, "solo");
    pacer.add_work(2'460'000);  // saturated past the 600 s window
    events.run();
    return log.grants();
  };
  auto grants = run_once();
  ASSERT_EQ(grants.size(), 2'460'000u);
  std::uint64_t in_window = 0;
  for (const Grant& g : grants) in_window += g.slot < simnet::sec(600);
  EXPECT_EQ(in_window, 2'457'600u);
  // Accrual slots are strictly increasing (no two tokens share a slot even
  // though the fractional carry stretches some gaps by 1 us).
  for (std::size_t i = 1; i < grants.size(); ++i)
    ASSERT_GT(grants[i].slot, grants[i - 1].slot) << "grant " << i;
  // And the error-fed sequence is bit-identical between runs.
  EXPECT_TRUE(grants == run_once());
}

TEST(BudgetHarness, ConfigValidation) {
  simnet::EventQueue events;
  EXPECT_THROW(SharedBudget(events, SharedBudgetConfig{0, nullptr}),
               std::invalid_argument);
  EXPECT_THROW(SharedBudget(events, SharedBudgetConfig{-5, nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tts::harness
