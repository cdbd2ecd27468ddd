// Two real ScanEngines on one SharedBudget: the end-to-end pacing
// properties the study relies on — a sole busy engine borrows the whole
// shared cap (and sustains >= 95% of it), two saturated engines converge
// to equal shares, a newly busy engine reclaims its share within a
// token gap or two, the aggregate launch rate never exceeds the cap in any
// 1-second window, the budget's one pump timer keeps its wake-up count well
// under one event per probe (contended or not), and an engine destroyed
// mid-run leaves its peer the whole cap.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness.hpp"
#include "scan/engine.hpp"
#include "simnet/network.hpp"

namespace tts::harness {
namespace {

using scan::Dataset;
using scan::ScanEngine;
using scan::ScanEngineConfig;
using scan::SharedBudget;
using scan::SharedBudgetConfig;

net::Ipv6Address addr(std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x2400003000000000ULL, lo);
}

std::vector<net::Ipv6Address> targets(std::uint64_t n, std::uint64_t base) {
  std::vector<net::Ipv6Address> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(addr(base + i));
  return out;
}

class PacingHarness : public ::testing::Test {
 protected:
  PacingHarness() : network_(events_) {}

  ScanEngineConfig engine_config(Dataset dataset, std::uint64_t scanner_lo,
                                 SharedBudget* budget) {
    ScanEngineConfig c;
    c.scanner_address = addr(scanner_lo);
    c.dataset = dataset;
    c.budget = budget;
    // Near-zero protocol stagger keeps a fed engine continuously
    // backlogged, so the budget is the only pacing force.
    c.min_protocol_delay = simnet::usec(0);
    c.max_protocol_delay = simnet::usec(1);
    return c;
  }

  /// Endless-enough cursor feed into the engine.
  static void feed(ScanEngine& engine, std::uint64_t n, std::uint64_t base) {
    struct Cursor {
      std::vector<net::Ipv6Address> list;
      std::size_t next = 0;
    };
    auto cursor = std::make_shared<Cursor>(Cursor{targets(n, base), 0});
    engine.add_source([cursor](std::size_t max_n) {
      std::size_t take = std::min(max_n, cursor->list.size() - cursor->next);
      std::vector<net::Ipv6Address> out(
          cursor->list.begin() + static_cast<std::ptrdiff_t>(cursor->next),
          cursor->list.begin() +
              static_cast<std::ptrdiff_t>(cursor->next + take));
      cursor->next += take;
      return out;
    });
  }

  simnet::EventQueue events_;
  simnet::Network network_;
  scan::ResultStore results_;
};

TEST_F(PacingHarness, SoleBusyEngineSustainsSharedCapAndCoalescesWakes) {
  SharedBudget budget(events_, SharedBudgetConfig{1000, nullptr});
  GrantLog log;
  log.attach(budget);
  ScanEngine ntp(network_, results_,
                 engine_config(Dataset::kNtp, 0xa1, &budget));
  ScanEngine hitlist(network_, results_,
                     engine_config(Dataset::kHitlist, 0xa2, &budget));

  hitlist.submit_bulk(targets(1000, 5000));
  events_.run();

  const std::uint64_t probes = 1000 * scan::kProtocolCount;
  ASSERT_EQ(hitlist.probes_launched(), probes);
  EXPECT_EQ(budget.grants(ntp.budget_client()), 0u);
  ASSERT_EQ(budget.grants(hitlist.budget_client()), probes);

  // Sustained >= 95% of the shared cap: the idle NTP engine's share was
  // fully lent, not reserved.
  const auto& grants = log.grants();
  simnet::SimDuration span = grants.back().at - grants.front().at;
  double achieved_pps =
      static_cast<double>(probes - 1) * 1e6 / static_cast<double>(span);
  EXPECT_GE(achieved_pps, 0.95 * budget.max_pps());
  // Nearly every grant past the contended share is a borrow.
  EXPECT_GT(budget.borrowed(hitlist.budget_client()), probes * 9 / 10);

  // Pump wake coalescing: one timer wake launches a banked batch (about
  // burst_slots + 1 probes), so wakes stay at most half the probe count —
  // the >= 2x event cut over a wake-per-grant pump.
  EXPECT_GE(hitlist.pump_wakes(), 1u);
  EXPECT_LE(hitlist.pump_wakes() * 2, hitlist.probes_launched());
}

TEST_F(PacingHarness, EqualSharesConvergeUnderSaturation) {
  SharedBudget budget(events_, SharedBudgetConfig{2000, nullptr});
  ScanEngine ntp(network_, results_,
                 engine_config(Dataset::kNtp, 0xb1, &budget));
  ScanEngine hitlist(network_, results_,
                     engine_config(Dataset::kHitlist, 0xb2, &budget));
  feed(ntp, 2500, 10000);      // 20000 probes: saturated well past 5 s
  feed(hitlist, 1500, 50000);  // 12000 probes: saturated at half the cap

  events_.run_until(simnet::sec(5));

  std::uint64_t ntp_grants = budget.grants(ntp.budget_client());
  std::uint64_t hit_grants = budget.grants(hitlist.budget_client());
  std::uint64_t total = ntp_grants + hit_grants;
  ASSERT_GT(total, 9000u);  // the shared cap was actually saturated
  double ntp_share =
      static_cast<double>(ntp_grants) / static_cast<double>(total);
  // Equal shares: 50% each, within 5% relative.
  EXPECT_NEAR(ntp_share, 0.5, 0.5 * 0.05);
}

TEST_F(PacingHarness, LateJoinerReclaimsItsShareWithinAGap) {
  SharedBudget budget(events_, SharedBudgetConfig{1000, nullptr});
  GrantLog log;
  log.attach(budget);
  ScanEngine ntp(network_, results_,
                 engine_config(Dataset::kNtp, 0xc1, &budget));
  ScanEngine hitlist(network_, results_,
                     engine_config(Dataset::kHitlist, 0xc2, &budget));

  hitlist.submit_bulk(targets(800, 5000));  // saturates from t = 0
  const simnet::SimTime join = simnet::sec(2);
  events_.schedule_at(join, [&] { ntp.submit_bulk(targets(100, 90000)); });
  events_.run();

  // The NTP engine was granted its first token within ~one gap of turning
  // busy, despite the hitlist engine's long borrowing streak.
  simnet::SimTime first = log.first_at_or_after(ntp.budget_client(), join);
  ASSERT_GE(first, join);
  EXPECT_LE(first - join, 2 * budget.gap());

  // Aggregate invariant across the whole run, joins included: no 1-second
  // window of launches exceeds cap * window + burst + 1.
  std::size_t cap =
      static_cast<std::size_t>((simnet::sec(1) + budget.gap() - 1) /
                               budget.gap()) +
      static_cast<std::size_t>(budget.burst_slots()) + 1;
  EXPECT_LE(max_window_count(log.times(), simnet::sec(1)), cap);

  // Everything still completes: shared pacing delays probes, never drops
  // them.
  EXPECT_EQ(ntp.probes_launched() + hitlist.probes_launched(),
            900 * scan::kProtocolCount);
}

TEST_F(PacingHarness, ContendedEnginesShareBatchedWakes) {
  SharedBudget budget(events_, SharedBudgetConfig{2000, nullptr});
  ScanEngine ntp(network_, results_,
                 engine_config(Dataset::kNtp, 0xd1, &budget));
  ScanEngine hitlist(network_, results_,
                     engine_config(Dataset::kHitlist, 0xd2, &budget));
  feed(ntp, 2500, 10000);
  feed(hitlist, 1500, 50000);

  events_.run_until(simnet::sec(5));

  std::uint64_t grants = budget.grants(ntp.budget_client()) +
                         budget.grants(hitlist.budget_client());
  ASSERT_GT(grants, 9000u);  // both engines saturated the shared cap
  // Every timer firing is counted on exactly one engine.
  EXPECT_EQ(ntp.pump_wakes() + hitlist.pump_wakes(), budget.wakes());
  // One wake hands the whole bank out across both engines, so contention
  // costs no extra wakes: at most half a wake per grant.
  EXPECT_LE(budget.wakes() * 2, grants);
}

TEST_F(PacingHarness, RemovingAnEngineMidRunLeavesItsPeerTheCap) {
  SharedBudget budget(events_, SharedBudgetConfig{1000, nullptr});
  GrantLog log;
  log.attach(budget);
  // A five-minute protocol stagger: once its first probes conclude, the
  // NTP engine holds only intents due minutes later, so destroying it
  // leaves no probe in flight but a due time the budget must forget.
  ScanEngineConfig ntp_config =
      engine_config(Dataset::kNtp, 0xe1, &budget);
  ntp_config.min_protocol_delay = simnet::minutes(5);
  ntp_config.max_protocol_delay = simnet::minutes(5);
  auto ntp = std::make_unique<ScanEngine>(network_, results_, ntp_config);
  ScanEngine hitlist(network_, results_,
                     engine_config(Dataset::kHitlist, 0xe2, &budget));
  const SharedBudget::ClientId ntp_id = ntp->budget_client();
  for (std::uint64_t i = 0; i < 20; ++i)
    ASSERT_TRUE(ntp->submit(addr(70000 + i)));
  hitlist.submit_bulk(targets(2000, 5000));  // ~16 s at the full cap

  const simnet::SimTime cut = simnet::sec(10);
  std::uint64_t ntp_wakes = 0;
  events_.schedule_at(cut, [&] {
    EXPECT_GT(hitlist.pending_depth(), 0u);  // the peer is still backlogged
    ntp_wakes = ntp->pump_wakes();
    ntp.reset();
  });
  events_.run();

  // The NTP engine was granted its first probes and nothing after removal.
  EXPECT_EQ(budget.grants(ntp_id), 20u);
  EXPECT_EQ(log.first_at_or_after(ntp_id, cut), -1);
  EXPECT_EQ(ntp_wakes + hitlist.pump_wakes(), budget.wakes());
  ASSERT_EQ(hitlist.probes_launched(), 2000 * scan::kProtocolCount);

  // The survivor sustains >= 95% of the cap from the removal on.
  std::uint64_t after = 0;
  simnet::SimTime first = -1, last = -1;
  for (const Grant& g : log.grants()) {
    if (g.at < cut) continue;
    ++after;
    if (first < 0) first = g.at;
    last = g.at;
  }
  ASSERT_GT(after, 1000u);
  double achieved_pps = static_cast<double>(after - 1) * 1e6 /
                        static_cast<double>(last - first);
  EXPECT_GE(achieved_pps, 0.95 * budget.max_pps());
}

}  // namespace
}  // namespace tts::harness
