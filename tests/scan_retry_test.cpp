// Retry/backoff and per-prefix circuit breaking: the RetryPolicy schedule,
// the CircuitBreakerSet state machine, and both woven through the engine
// (conservation of probe records under retries and shedding).
#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.hpp"
#include "scan/engine.hpp"
#include "scan/retry.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fault.hpp"
#include "simnet/network.hpp"
#include "simnet/route.hpp"
#include "util/rng.hpp"

namespace tts::scan {
namespace {

constexpr std::uint64_t kNetA = 0x20010db800010000ULL;
constexpr std::uint64_t kNetB = 0x20010db900010000ULL;

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_halves(hi, lo);
}

// ------------------------------------------------------------ RetryPolicy

TEST(RetryPolicy, DisabledByDefault) {
  RetryPolicy p;
  EXPECT_FALSE(p.enabled());
  RetryPolicy on;
  on.max_retries = 1;
  EXPECT_TRUE(on.enabled());
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.max_retries = 8;
  p.base_backoff = simnet::sec(4);
  p.multiplier = 2.0;
  p.max_backoff = simnet::minutes(4);
  p.jitter = 0.0;  // exact schedule
  util::Rng rng(1);
  EXPECT_EQ(p.backoff(1, rng), simnet::sec(4));
  EXPECT_EQ(p.backoff(2, rng), simnet::sec(8));
  EXPECT_EQ(p.backoff(3, rng), simnet::sec(16));
  // Far past the cap: clamped, not overflowed.
  EXPECT_EQ(p.backoff(30, rng), simnet::minutes(4));
}

TEST(RetryPolicy, JitterIsBoundedAndSeedDeterministic) {
  RetryPolicy p;
  p.max_retries = 4;
  p.base_backoff = simnet::sec(10);
  p.jitter = 0.25;
  std::vector<simnet::SimDuration> first, second;
  {
    util::Rng rng(7);
    for (std::uint32_t i = 0; i < 16; ++i) first.push_back(p.backoff(1, rng));
  }
  {
    util::Rng rng(7);
    for (std::uint32_t i = 0; i < 16; ++i) second.push_back(p.backoff(1, rng));
  }
  EXPECT_EQ(first, second);
  for (simnet::SimDuration d : first) {
    EXPECT_GE(d, simnet::sec(10));
    EXPECT_LT(d, simnet::sec(10) + simnet::sec(10) / 4);
  }
}

TEST(RetryPolicy, JitteredBackoffNeverExceedsMaxBackoff) {
  // Regression: jitter used to be added after the cap, so a base at or near
  // max_backoff overshot it by up to jitter x.
  RetryPolicy p;
  p.max_retries = 12;
  p.base_backoff = simnet::sec(10);
  p.multiplier = 2.0;
  p.max_backoff = simnet::sec(12);
  p.jitter = 0.5;
  util::Rng rng(99);
  for (std::uint32_t retry = 1; retry <= 12; ++retry) {
    for (int draw = 0; draw < 64; ++draw) {
      simnet::SimDuration d = p.backoff(retry, rng);
      EXPECT_LE(d, p.max_backoff) << "retry " << retry;
      EXPECT_GE(d, simnet::sec(10));
    }
  }
  // Once the un-jittered base already sits at the cap, every jittered draw
  // clamps to exactly max_backoff.
  for (int draw = 0; draw < 16; ++draw)
    EXPECT_EQ(p.backoff(10, rng), simnet::sec(12));
}

TEST(RetryPolicy, RetryIndexZeroDoesNotUnderflow) {
  // Regression: retry_index is 1-based; a 0 from a buggy caller used to
  // underflow to pow(multiplier, 2^32 - 1) = inf. It now behaves like the
  // first retry.
  RetryPolicy p;
  p.max_retries = 4;
  p.base_backoff = simnet::sec(4);
  p.multiplier = 2.0;
  p.max_backoff = simnet::minutes(4);
  p.jitter = 0.0;
  util::Rng rng(3);
  EXPECT_EQ(p.backoff(0, rng), simnet::sec(4));
  EXPECT_EQ(p.backoff(0, rng), p.backoff(1, rng));
}

// ------------------------------------------------------ CircuitBreakerSet

BreakerConfig breaker_config() {
  BreakerConfig c;
  c.enabled = true;
  c.prefix_len = 48;
  c.open_after = 3;
  c.open_for = simnet::minutes(1);
  return c;
}

TEST(CircuitBreaker, OpensAfterConsecutiveTimeoutsInOnePrefix) {
  CircuitBreakerSet b(breaker_config());
  auto t1 = addr(kNetA, 1), t2 = addr(kNetA, 2);
  ASSERT_EQ(b.key_of(t1), b.key_of(t2));  // same /48: one breaker

  EXPECT_TRUE(b.would_admit(t1, 0));
  b.on_outcome(t1, false, simnet::sec(1));
  b.on_outcome(t2, false, simnet::sec(2));
  EXPECT_EQ(b.state(t1), CircuitBreakerSet::State::kClosed);
  b.on_outcome(t1, false, simnet::sec(3));  // third in a row: trip
  EXPECT_EQ(b.state(t1), CircuitBreakerSet::State::kOpen);
  EXPECT_EQ(b.opens(), 1u);
  EXPECT_EQ(b.tripped_now(), 1);
  EXPECT_FALSE(b.would_admit(t2, simnet::sec(4)));
}

TEST(CircuitBreaker, ConclusiveOutcomeResetsTheStreak) {
  CircuitBreakerSet b(breaker_config());
  auto t = addr(kNetA, 1);
  b.on_outcome(t, false, 1);
  b.on_outcome(t, false, 2);
  b.on_outcome(t, true, 3);  // the path answered: forgive the streak
  b.on_outcome(t, false, 4);
  b.on_outcome(t, false, 5);
  EXPECT_EQ(b.state(t), CircuitBreakerSet::State::kClosed);
  EXPECT_EQ(b.opens(), 0u);
}

TEST(CircuitBreaker, PrefixesAreIndependent) {
  CircuitBreakerSet b(breaker_config());
  auto in = addr(kNetA, 1), out = addr(kNetB, 1);
  for (int i = 0; i < 3; ++i) b.on_outcome(in, false, i);
  EXPECT_EQ(b.state(in), CircuitBreakerSet::State::kOpen);
  EXPECT_EQ(b.state(out), CircuitBreakerSet::State::kClosed);
  EXPECT_TRUE(b.would_admit(out, simnet::sec(1)));
}

TEST(CircuitBreaker, HalfOpensAfterCooldownAndClosesOnSuccess) {
  CircuitBreakerSet b(breaker_config());
  auto t = addr(kNetA, 1);
  for (int i = 0; i < 3; ++i) b.on_outcome(t, false, i);
  ASSERT_EQ(b.state(t), CircuitBreakerSet::State::kOpen);

  EXPECT_FALSE(b.would_admit(t, simnet::sec(59)));
  simnet::SimTime after = simnet::minutes(1) + simnet::sec(1);
  EXPECT_TRUE(b.would_admit(t, after));

  b.note_launch(t, after);  // commits the open -> half-open transition
  EXPECT_EQ(b.state(t), CircuitBreakerSet::State::kHalfOpen);
  EXPECT_EQ(b.half_opens(), 1u);
  // One trial in flight: the trickle cap refuses a second probe.
  EXPECT_FALSE(b.would_admit(t, after));

  b.on_outcome(t, true, after + simnet::sec(1));
  EXPECT_EQ(b.state(t), CircuitBreakerSet::State::kClosed);
  EXPECT_EQ(b.closes(), 1u);
  EXPECT_EQ(b.tripped_now(), 0);
  EXPECT_TRUE(b.would_admit(t, after + simnet::sec(2)));
}

TEST(CircuitBreaker, TrialTimeoutReopens) {
  CircuitBreakerSet b(breaker_config());
  auto t = addr(kNetA, 1);
  for (int i = 0; i < 3; ++i) b.on_outcome(t, false, i);
  simnet::SimTime after = simnet::minutes(1) + simnet::sec(1);
  b.note_launch(t, after);
  ASSERT_EQ(b.state(t), CircuitBreakerSet::State::kHalfOpen);

  b.on_outcome(t, false, after + simnet::sec(8));  // trial also silent
  EXPECT_EQ(b.state(t), CircuitBreakerSet::State::kOpen);
  EXPECT_EQ(b.opens(), 2u);
  EXPECT_EQ(b.closes(), 0u);
  // The re-open restarts the cool-down from the trial's failure time.
  EXPECT_FALSE(b.would_admit(t, after + simnet::sec(30)));
  EXPECT_TRUE(
      b.would_admit(t, after + simnet::sec(8) + simnet::minutes(1) + 1));
}

// ----------------------------------------------------------- engine level

class RetryEngineTest : public ::testing::Test {
 protected:
  RetryEngineTest() : network_(events_) {}

  ScanEngineConfig fast_config() {
    ScanEngineConfig c;
    c.scanner_address = addr(kNetB, 0xbeef);
    c.min_protocol_delay = simnet::usec(10);
    c.max_protocol_delay = simnet::usec(20);
    c.max_pps = 100000;
    return c;
  }

  simnet::EventQueue events_;
  simnet::Network network_;
  ResultStore results_;
};

TEST_F(RetryEngineTest, TimedOutProbesAreRestagedThenRecordedOnce) {
  auto config = fast_config();
  config.retry.max_retries = 2;
  config.retry.base_backoff = simnet::sec(1);
  ScanEngine engine(network_, results_, config);

  // Three offline targets: every probe of every attempt times out.
  for (std::uint64_t i = 1; i <= 3; ++i) engine.submit(addr(kNetA, i));
  events_.run();

  const std::uint64_t chains = 3 * kProtocolCount;
  EXPECT_EQ(engine.retries_staged(), 2 * chains);
  EXPECT_EQ(engine.probes_launched(), 3 * chains);
  EXPECT_EQ(engine.probes_completed(), 3 * chains);
  EXPECT_EQ(engine.retries_dropped(), 0u);
  EXPECT_EQ(engine.retry_successes(), 0u);
  // Conservation: one record per target x protocol, attempts collapse.
  EXPECT_EQ(results_.total(config.dataset), chains);
  EXPECT_EQ(results_.total(config.dataset),
            engine.probes_completed() - engine.retries_staged());
}

TEST_F(RetryEngineTest, ConclusiveOutcomeStopsTheRetryLadder) {
  // A blackhole window covers the first attempt; retries land after it and
  // get an immediate RST (attached host, no listener) — conclusive, so the
  // remaining retry budget is never spent on the TCP protocols.
  simnet::FaultScenario scenario;
  scenario.rules.push_back({.prefix = net::Ipv6Prefix(addr(kNetA, 0), 32),
                            .kind = simnet::FaultKind::kBlackhole,
                            .from = 0,
                            .until = simnet::sec(10)});
  network_.install_faults(scenario);
  network_.attach(addr(kNetA, 1));

  auto config = fast_config();
  config.retry.max_retries = 5;
  config.retry.base_backoff = simnet::sec(15);
  config.retry.jitter = 0.0;
  ScanEngine engine(network_, results_, config);
  engine.submit(addr(kNetA, 1));
  events_.run();

  // 7 TCP protocols: first attempt blackholed, one retry refused. CoAP is
  // UDP-silent forever and burns its whole ladder.
  EXPECT_EQ(engine.retries_staged(), 7 + 5u);
  EXPECT_EQ(results_.total(config.dataset), kProtocolCount);
  std::uint64_t refused = 0;
  for (std::size_t p = 0; p < kProtocolCount; ++p)
    refused += results_.count(config.dataset, static_cast<Protocol>(p),
                              Outcome::kRefused);
  EXPECT_EQ(refused, 7u);
}

TEST_F(RetryEngineTest, BreakerShedsConservesRecordsAndRecloses) {
  // One /48 of dead-for-a-minute targets: the breaker opens on the timeout
  // streak, sheds the staggered later probes, then half-open trials close
  // it once the fault window ends and connects answer with RSTs.
  simnet::FaultScenario scenario;
  scenario.rules.push_back({.prefix = net::Ipv6Prefix(addr(kNetA, 0), 48),
                            .kind = simnet::FaultKind::kBlackhole,
                            .from = 0,
                            .until = simnet::sec(60)});
  network_.install_faults(scenario);
  for (std::uint64_t i = 1; i <= 6; ++i) network_.attach(addr(kNetA, i));

  auto config = fast_config();
  config.min_protocol_delay = simnet::sec(10);
  config.max_protocol_delay = simnet::sec(20);
  config.breaker.enabled = true;
  config.breaker.prefix_len = 48;
  config.breaker.open_after = 3;
  config.breaker.open_for = simnet::sec(30);
  ScanEngine engine(network_, results_, config);
  for (std::uint64_t i = 1; i <= 6; ++i) engine.submit(addr(kNetA, i));
  events_.run();

  ASSERT_NE(engine.breaker(), nullptr);
  EXPECT_GE(engine.breaker()->opens(), 1u);
  EXPECT_GE(engine.breaker()->closes(), 1u);
  EXPECT_GE(engine.breaker_shed(), 1u);
  // (No tripped_now assertion: the chain ends on CoAP, whose UDP silence
  // may deterministically leave the breaker's final state open.)
  // Every target x protocol produced exactly one record: launched probes
  // completed, shed probes synthesized their timeout.
  const std::uint64_t chains = 6 * kProtocolCount;
  EXPECT_EQ(results_.total(config.dataset), chains);
  EXPECT_EQ(results_.total(config.dataset),
            engine.probes_completed() + engine.breaker_shed());
}

TEST_F(RetryEngineTest, ReParkingAQuarantinedIntentOpensNoStageSpan) {
  // kNetA is withdrawn from t=0 to 30 s: its target parks in the route
  // quarantine. At the announce, two routed chains (kNetB, started 4 s
  // apart, 10 s between protocols) hold both staging slots, so every drain
  // until the first chain ends re-parks the intent; the second chain's
  // last wake then finds room and re-stages it.
  simnet::RouteScenario routes;
  routes.convergence = 0;
  routes.withdraw(net::Ipv6Prefix(addr(kNetA, 0), 32), 0);
  routes.announce(net::Ipv6Prefix(addr(kNetA, 0), 32), simnet::sec(30));
  network_.install_routes(std::move(routes));

  obs::Tracer tracer;
  tracer.set_sim_clock(&events_);
  auto config = fast_config();
  config.min_protocol_delay = simnet::sec(10);
  config.max_protocol_delay = simnet::sec(10);
  config.max_pending = 2;
  config.tracer = &tracer;
  ScanEngine engine(network_, results_, config);
  ASSERT_TRUE(engine.submit(addr(kNetA, 1)));
  events_.schedule_at(simnet::sec(1),
                      [&] { EXPECT_TRUE(engine.submit(addr(kNetB, 1))); });
  events_.schedule_at(simnet::sec(5),
                      [&] { EXPECT_TRUE(engine.submit(addr(kNetB, 2))); });
  events_.schedule_at(simnet::sec(31), [&] {
    EXPECT_EQ(engine.quarantine_depth(), 1u);  // routed, but no room
  });
  events_.run();

  EXPECT_EQ(engine.route_deferred(), 1u);
  EXPECT_EQ(engine.route_requeued(), 1u);
  EXPECT_EQ(engine.quarantine_depth(), 0u);
  EXPECT_EQ(results_.total(config.dataset), 3 * kProtocolCount);

  // The parked intent's trace holds exactly two staging spans: the one the
  // quarantine closed and the one its re-stage opened.
  std::uint64_t parked = 0;
  for (const obs::SpanRecord& rec : tracer.records())
    if (rec.name == "probe/quarantine") parked = rec.trace;
  ASSERT_NE(parked, 0u);
  int stage_spans = 0;
  for (const obs::SpanRecord& rec : tracer.records())
    stage_spans += rec.trace == parked && rec.name == "probe/stage";
  EXPECT_EQ(stage_spans, 2);
}

TEST_F(RetryEngineTest, ParkedIntentReStagesWhenTheLastLaunchFreesAStagingSlot) {
  // kNetA is withdrawn from t=0 to 30 s: its target parks in the route
  // quarantine. One routed chain (kNetB, 10 s between protocols) holds the
  // only staging slot from t=1 s to its last launch at 71 s, across the
  // announce. Nothing else is due after that launch, so only the token-free
  // step that follows it can hand the freed slot to the parked intent.
  simnet::RouteScenario routes;
  routes.convergence = 0;
  routes.withdraw(net::Ipv6Prefix(addr(kNetA, 0), 32), 0);
  routes.announce(net::Ipv6Prefix(addr(kNetA, 0), 32), simnet::sec(30));
  network_.install_routes(std::move(routes));

  auto config = fast_config();
  config.min_protocol_delay = simnet::sec(10);
  config.max_protocol_delay = simnet::sec(10);
  config.max_pending = 1;
  ScanEngine engine(network_, results_, config);
  ASSERT_TRUE(engine.submit(addr(kNetA, 1)));
  events_.schedule_at(simnet::sec(1),
                      [&] { EXPECT_TRUE(engine.submit(addr(kNetB, 1))); });
  events_.schedule_at(simnet::sec(31), [&] {
    EXPECT_EQ(engine.quarantine_depth(), 1u);  // routed, but no room
  });
  events_.run();

  EXPECT_EQ(engine.route_deferred(), 1u);
  EXPECT_EQ(engine.route_requeued(), 1u);
  EXPECT_EQ(engine.quarantine_depth(), 0u);
  EXPECT_EQ(results_.total(config.dataset), 2 * kProtocolCount);
}

TEST_F(RetryEngineTest, ValidatesTimeoutAndRetryConfig) {
  auto bad_connect = fast_config();
  bad_connect.connect_timeout = simnet::sec(30);  // exceeds probe guard
  EXPECT_THROW(ScanEngine(network_, results_, bad_connect),
               std::invalid_argument);

  auto bad_retries = fast_config();
  bad_retries.retry.max_retries = 1000;
  EXPECT_THROW(ScanEngine(network_, results_, bad_retries),
               std::invalid_argument);
}

}  // namespace
}  // namespace tts::scan
