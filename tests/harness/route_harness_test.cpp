// Route-plane harness: a full Study under a scripted reachability flap — a
// whole eyeball AS withdrawn mid-run and re-announced, one of our pool
// servers' /48 withdrawn alongside it, and an inbound-only loss window that
// trips prefix breakers. Asserts the stack degrades and recovers end to
// end: probe-record conservation including the deferred term, the
// quarantine drains back through the queue, prefix breakers open AND
// re-close, the pool monitor demotes on withdrawal and re-promotes on
// convergence, and the whole perturbed run keeps bit-identical same-seed
// digests at shard counts 1, 2 and 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/report.hpp"
#include "core/study.hpp"
#include "harness.hpp"
#include "inet/as_registry.hpp"
#include "simnet/fault.hpp"
#include "simnet/route.hpp"

namespace tts::harness {
namespace {

/// The flap windows, in sim time. The loss window runs first so the prefix
/// breakers trip on real timeout streaks; the withdrawal follows so
/// quarantined targets are deferred without ever launching (no token spent,
/// no record synthesized), then drain back when the routes return.
constexpr simnet::SimTime kLossFrom = simnet::hours(6);
constexpr simnet::SimTime kLossUntil = simnet::hours(12);
constexpr simnet::SimTime kWithdrawAt = simnet::hours(13);
constexpr simnet::SimTime kAnnounceAt = simnet::hours(18);

/// Script both planes against generated artifacts: the eyeball prefixes
/// and our pool servers' addresses only exist once the study has built its
/// Internet, so everything installs from on_built (route subscriptions made
/// at engine construction are buffered until then).
void install_flap(core::Study& study) {
  auto eyeballs =
      study.registry().by_category(inet::AsCategory::kCableDslIsp);
  ASSERT_FALSE(eyeballs.empty());

  // Inbound-only total loss into the eyeball space for six hours: every
  // probe into it times out, tripping per-/40 breakers.
  simnet::FaultScenario faults;
  for (const inet::AsInfo* as : eyeballs) {
    for (const net::Ipv6Prefix& prefix : as->prefixes) {
      faults.rules.push_back({.prefix = prefix,
                              .kind = simnet::FaultKind::kLoss,
                              .from = kLossFrom,
                              .until = kLossUntil,
                              .probability = 1.0,
                              .direction = simnet::FaultDirection::kInbound});
    }
  }
  study.network().install_faults(std::move(faults), &study.metrics(),
                                 &study.flight());

  // The reachability flap: one whole eyeball AS vanishes from the routing
  // plane mid-scan, plus the /48 holding one of our own pool servers.
  simnet::RouteScenario routes;
  routes.convergence = simnet::minutes(2);
  for (const net::Ipv6Prefix& prefix : eyeballs.front()->prefixes) {
    routes.withdraw(prefix, kWithdrawAt);
    routes.announce(prefix, kAnnounceAt);
  }
  auto ours = study.pool().our_servers();
  ASSERT_FALSE(ours.empty());
  net::Ipv6Prefix server_net(ours.front().address.masked(48), 48);
  routes.withdraw(server_net, kWithdrawAt);
  routes.announce(server_net, kAnnounceAt);
  study.network().install_routes(std::move(routes), &study.metrics(),
                                 &study.flight());
}

core::StudyConfig flap_config() {
  auto config = core::make_study_config(core::StudyScale::kTiny);
  config.population.device_scale = 0.05;
  config.runtime.duration = simnet::days(2);
  config.hitlist_scan_start = simnet::days(1);
  config.drain = simnet::hours(12);

  config.scan_retry.max_retries = 2;
  config.scan_retry.base_backoff = simnet::sec(30);

  // Fine-grained breakers: one per /40.
  config.scan_breaker.enabled = true;
  config.scan_breaker.prefix_len = 40;
  config.scan_breaker.open_after = 3;
  config.scan_breaker.open_for = simnet::minutes(10);

  config.enable_pool_monitor = true;
  config.pool_monitor.check_interval = simnet::minutes(30);
  config.pool_monitor.min_score = -20;

  config.on_built = install_flap;
  return config;
}

/// Per-engine record conservation, extended for the route plane: deferred
/// launches never spent a token and never synthesized a record, so the
/// fault-harness identity (records = completed + shed - retries) still
/// holds — and every deferral is accounted for as either re-queued or
/// still quarantined.
void expect_conserved(const scan::ScanEngine& engine,
                      const scan::ResultStore& results) {
  scan::Dataset ds = engine.config().dataset;
  EXPECT_EQ(results.total(ds), engine.probes_completed() +
                                   engine.breaker_shed() -
                                   engine.retries_staged())
      << "dataset " << to_string(ds);
  EXPECT_EQ(engine.route_deferred(),
            engine.route_requeued() + engine.quarantine_depth())
      << "dataset " << to_string(ds);
  EXPECT_LE(engine.probes_completed(), engine.probes_launched());
}

std::uint64_t flap_digest(const core::StudyConfig& config) {
  core::Study study(config);
  study.run();
  std::string md = core::render_markdown(core::build_report(study));
  Fnv64 f;
  f.mix_bytes(md);
  const simnet::RoutePlane* routes = study.network().routes();
  f.mix(routes->withdrawals())
      .mix(routes->announcements())
      .mix(routes->blackholed());
  f.mix(study.network().faults()->udp_dropped());
  for (const scan::ScanEngine* engine :
       {study.ntp_engine(), study.hitlist_engine()}) {
    f.mix(engine->probes_launched())
        .mix(engine->retries_staged())
        .mix(engine->breaker_shed())
        .mix(engine->route_deferred())
        .mix(engine->route_requeued())
        .mix(engine->breaker()->opens())
        .mix(engine->breaker()->closes());
  }
  f.mix(study.pool_monitor()->route_demotions())
      .mix(study.pool_monitor()->route_promotions());
  f.mix(study.pool().demotions()).mix(study.pool().promotions());
  f.mix(study.events_executed());
  return f.value();
}

TEST(RouteHarness, StudyAdaptsToReachabilityFlap) {
  core::Study study(flap_config());
  study.run();

  // The flap actually committed and the data path saw it.
  const simnet::RoutePlane* routes = study.network().routes();
  ASSERT_NE(routes, nullptr);
  EXPECT_GT(routes->withdrawals(), 0u);
  EXPECT_GT(routes->announcements(), 0u);
  EXPECT_GT(routes->blackholed(), 0u);
  EXPECT_GT(study.network().faults()->udp_dropped(), 0u);

  // The run still completed and produced scan material.
  ASSERT_NE(study.ntp_engine(), nullptr);
  ASSERT_NE(study.hitlist_engine(), nullptr);
  EXPECT_GT(study.results().size(), 0u);
  EXPECT_GT(study.collector().distinct_addresses(), 0u);

  // Targets in the withdrawn AS were quarantined instead of launched, then
  // re-staged through the queue once the routes returned — and the
  // conservation law holds with the deferred term.
  EXPECT_GT(study.ntp_engine()->route_deferred(), 0u);
  EXPECT_GT(study.ntp_engine()->route_requeued(), 0u);
  expect_conserved(*study.ntp_engine(), study.results());
  expect_conserved(*study.hitlist_engine(), study.results());

  // The loss window tripped /40 breakers, and post-window recovery trials
  // closed them again.
  std::uint64_t opens = 0, closes = 0;
  for (const scan::ScanEngine* engine :
       {study.ntp_engine(), study.hitlist_engine()}) {
    ASSERT_NE(engine->breaker(), nullptr);
    opens += engine->breaker()->opens();
    closes += engine->breaker()->closes();
  }
  EXPECT_GT(opens, 0u);
  EXPECT_GT(closes, 0u);

  // The pool monitor fast-demoted the server in the withdrawn /48 at the
  // withdrawal barrier and restored its score on re-announcement.
  ASSERT_NE(study.pool_monitor(), nullptr);
  EXPECT_GE(study.pool_monitor()->route_demotions(), 1u);
  EXPECT_GE(study.pool_monitor()->route_promotions(), 1u);

  // Route instruments reached the registry for the report.
  EXPECT_NE(study.metrics().find_counter("route_withdrawals", {}), nullptr);
  EXPECT_NE(study.metrics().find_counter("route_blackholed", {}), nullptr);
  EXPECT_NE(study.metrics().find_counter("scan_route_deferred",
                                         {{"dataset", "ntp"}}),
            nullptr);
}

TEST(RouteHarness, SameSeedSameFlapBitIdentical) {
  auto config = flap_config();
  EXPECT_EQ(flap_digest(config), flap_digest(config));
}

TEST(RouteHarness, ShardedFlapMatchesSingleShardDigest) {
  // Route transitions commit at window barriers and the verdict itself is
  // draw-free, so the full flap pipeline — blackholes, quarantine and
  // re-staging, breaker trips, the monitor's demote/promote — must be
  // shard-count-invariant.
  auto config = flap_config();
  config.shards.shards = 1;
  std::uint64_t single = flap_digest(config);
  config.shards.shards = 2;
  config.shards.workers = 2;
  EXPECT_EQ(single, flap_digest(config));
  config.shards.shards = 4;
  config.shards.workers = 2;
  EXPECT_EQ(single, flap_digest(config));
}

}  // namespace
}  // namespace tts::harness
