// Pull-based pacing pump: bounded staging, fairness between dataset
// engines on one budget, backpressure, token-wait semantics, and config
// validation.
#include <gtest/gtest.h>

#include <vector>

#include "scan/engine.hpp"
#include "scan/pending_queue.hpp"

namespace tts::scan {
namespace {

net::Ipv6Address addr(std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x2400003000000000ULL, lo);
}

std::vector<net::Ipv6Address> targets(std::uint64_t n,
                                      std::uint64_t base = 1000) {
  std::vector<net::Ipv6Address> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(addr(base + i));
  return out;
}

class ScanPumpTest : public ::testing::Test {
 protected:
  ScanPumpTest() : network_(events_) {}

  ScanEngineConfig fast_config() {
    ScanEngineConfig c;
    c.scanner_address = addr(0xbeef);
    c.min_protocol_delay = simnet::usec(10);
    c.max_protocol_delay = simnet::usec(20);
    c.max_pps = 100000;
    return c;
  }

  simnet::EventQueue events_;
  simnet::Network network_;
  ResultStore results_;
};

// ------------------------------------------------------------ PendingQueue

TEST(PendingQueue, CapAndPeak) {
  PendingQueue q(2);
  auto intent = [](simnet::SimTime at, net::Ipv6Address target) {
    return ScanIntent{.not_before = at, .target = target};
  };
  EXPECT_EQ(q.free_slots(), 2u);
  EXPECT_TRUE(q.push(intent(0, addr(1))));
  EXPECT_TRUE(q.push(intent(0, addr(2))));
  EXPECT_FALSE(q.push(intent(0, addr(3))));  // at capacity
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.free_slots(), 0u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.peak(), 2u);
  q.pull_due(0);
  EXPECT_EQ(q.free_slots(), 1u);
  EXPECT_TRUE(q.push(intent(0, addr(3))));  // a pull frees its slot
  q.pull_due(0);
  q.pull_due(0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peak(), 2u);  // high-water mark sticks
}

TEST(PendingQueue, PullsEarliestDueInStagingOrder) {
  PendingQueue q(8);
  auto intent = [](simnet::SimTime at, net::Ipv6Address target) {
    return ScanIntent{.not_before = at, .target = target};
  };
  q.push(intent(50, addr(1)));
  q.push(intent(10, addr(2)));
  q.push(intent(20, addr(3)));
  q.push(intent(20, addr(4)));  // ties with addr(3): staged later
  q.push(intent(90, addr(5)));  // not due yet

  EXPECT_EQ(q.peek_due(60)->target, addr(2));
  std::vector<net::Ipv6Address> pulled;
  while (auto next = q.pull_due(60)) pulled.push_back(next->target);
  EXPECT_EQ(pulled, (std::vector{addr(2), addr(3), addr(4), addr(1)}));
  EXPECT_EQ(q.peek_due(60), nullptr);  // the t=90 intent is not due at t=60
  EXPECT_EQ(*q.next_not_before(), 90);
}

// ------------------------------------------------------------- ScanEngine

TEST_F(ScanPumpTest, BulkSubmitKeepsPendingBounded) {
  auto config = fast_config();
  config.max_pending = 256;
  ScanEngine engine(network_, results_, config);

  engine.submit_bulk(targets(10000));
  EXPECT_EQ(engine.sources_pending(), 1u);
  // Submission staged nothing beyond the cap: no O(total) queue build-up.
  EXPECT_LE(engine.pending_depth(), config.max_pending);

  events_.run();
  EXPECT_EQ(engine.sources_pending(), 0u);
  EXPECT_EQ(engine.submitted(), 10000u);
  EXPECT_EQ(engine.probes_launched(), 10000 * kProtocolCount);
  EXPECT_EQ(engine.probes_completed(), 10000 * kProtocolCount);
  EXPECT_LE(engine.pending_peak(), config.max_pending);
  EXPECT_EQ(engine.pending_depth(), 0u);
}

TEST_F(ScanPumpTest, DatasetEnginesShareTheBudgetFairly) {
  // The study's shape: one engine per dataset, both drawing from one
  // budget, which alone keeps the two datasets progressing together.
  SharedBudget budget(events_, SharedBudgetConfig{100, nullptr});  // 10 ms
  auto config = fast_config();
  config.budget = &budget;
  config.max_pending = 64;
  config.min_protocol_delay = simnet::usec(0);
  config.max_protocol_delay = simnet::usec(1);
  config.dataset = Dataset::kNtp;
  ScanEngine ntp(network_, results_, config);
  config.dataset = Dataset::kHitlist;
  config.scanner_address = addr(0xbeee);
  ScanEngine hitlist(network_, results_, config);
  ntp.submit_bulk(targets(200, 1000));
  hitlist.submit_bulk(targets(200, 9000));

  // Mid-sweep snapshot: launches before t-8s have recorded their timeout.
  events_.run_until(simnet::sec(18));
  auto ntp_done = results_.total(Dataset::kNtp);
  auto hitlist_done = results_.total(Dataset::kHitlist);
  ASSERT_GT(ntp_done + hitlist_done, 600u);
  EXPECT_GT(ntp_done, (ntp_done + hitlist_done) * 2 / 5);
  EXPECT_GT(hitlist_done, (ntp_done + hitlist_done) * 2 / 5);
  const std::uint64_t ntp_grants = budget.grants(ntp.budget_client());
  const std::uint64_t hitlist_grants = budget.grants(hitlist.budget_client());
  EXPECT_GT(ntp_grants, (ntp_grants + hitlist_grants) * 2 / 5);
  EXPECT_GT(hitlist_grants, (ntp_grants + hitlist_grants) * 2 / 5);
}

TEST_F(ScanPumpTest, BackpressureAtCapThenRecovery) {
  auto config = fast_config();
  config.max_pending = 4;
  ScanEngine engine(network_, results_, config);

  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(engine.try_submit(addr(1 + i)), SubmitResult::kAccepted);
  EXPECT_EQ(engine.try_submit(addr(5)), SubmitResult::kQueueFull);
  EXPECT_FALSE(engine.submit(addr(5)));
  EXPECT_EQ(engine.backpressure_events(), 2u);
  // Backpressure did not consume the blackout: the refused target is
  // accepted once the queue drains.
  events_.run();
  EXPECT_EQ(engine.try_submit(addr(5)), SubmitResult::kAccepted);
  events_.run();
  EXPECT_EQ(engine.submitted(), 5u);
  EXPECT_EQ(engine.probes_completed(), 5 * kProtocolCount);
}

TEST_F(ScanPumpTest, TokenWaitMeasuresPacingNotBacklog) {
  // kTiny-style budget: 500 pps = 2000 us token gap. Under the old eager
  // reservation a 1000-target bulk submit put the mean token wait at
  // minutes (backlog position); the pump must keep it within its slack
  // window of 2 gaps.
  auto config = fast_config();
  config.max_pps = 500;
  config.min_protocol_delay = simnet::usec(0);
  config.max_protocol_delay = simnet::usec(1);
  ScanEngine engine(network_, results_, config);
  engine.submit_bulk(targets(1000));
  events_.run();

  const double gap_us = 1e6 / config.max_pps;
  ASSERT_EQ(engine.token_wait().count(), 1000 * kProtocolCount);
  EXPECT_LT(engine.token_wait().mean(), 2 * gap_us);
  EXPECT_LE(engine.token_wait().max(), 2 * static_cast<std::int64_t>(gap_us));
  // The backlog delay is visible in the queue-delay histogram instead.
  EXPECT_EQ(engine.queue_delay().count(), engine.token_wait().count());
  EXPECT_GT(engine.queue_delay().mean(), engine.token_wait().mean());
}

TEST_F(ScanPumpTest, EqualMinAndMaxDelayIsValid) {
  // Degenerate-but-legal stagger range (used to hit rng.below(0)).
  auto config = fast_config();
  config.min_protocol_delay = simnet::sec(10);
  config.max_protocol_delay = simnet::sec(10);
  ScanEngine engine(network_, results_, config);
  engine.submit(addr(1));
  events_.run();
  EXPECT_EQ(engine.probes_completed(), kProtocolCount);
  EXPECT_GE(events_.now(), (kProtocolCount - 1) * simnet::sec(10));
}

TEST_F(ScanPumpTest, ConfigValidationRejectsBadRanges) {
  auto inverted = fast_config();
  inverted.min_protocol_delay = simnet::minutes(10);
  inverted.max_protocol_delay = simnet::sec(10);
  EXPECT_THROW(ScanEngine(network_, results_, inverted),
               std::invalid_argument);

  auto no_budget = fast_config();
  no_budget.max_pps = 0;
  EXPECT_THROW(ScanEngine(network_, results_, no_budget),
               std::invalid_argument);

  auto negative_delay = fast_config();
  negative_delay.min_protocol_delay = -simnet::sec(1);
  EXPECT_THROW(ScanEngine(network_, results_, negative_delay),
               std::invalid_argument);

  auto no_staging = fast_config();
  no_staging.max_pending = 0;
  EXPECT_THROW(ScanEngine(network_, results_, no_staging),
               std::invalid_argument);
}

}  // namespace
}  // namespace tts::scan
