#include "core/study.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "util/format.hpp"
#include "util/serialize.hpp"

namespace tts::core {

namespace {

/// Anomaly flight-recorder ring capacity (typed events, trace-linked).
constexpr std::size_t kFlightCapacity = 2048;
/// Fault-injection burst trigger: this many injections inside the window
/// dump the flight ring (a scenario's impairment wave in full context).
constexpr std::uint32_t kFaultBurst = 64;
constexpr simnet::SimDuration kFaultBurstWindow = simnet::sec(1);
/// Route-flap burst trigger: this many route withdrawals inside the window
/// dump the flight ring (a flap storm in full context).
constexpr std::uint32_t kRouteFlapBurst = 8;
constexpr simnet::SimDuration kRouteFlapWindow = simnet::minutes(1);

}  // namespace

StudyConfig make_study_config(StudyScale scale) {
  StudyConfig config;
  config.server_countries = ntp::deployment_countries();
  switch (scale) {
    case StudyScale::kTiny:
      config.population.device_scale = 0.15;
      config.runtime.duration = simnet::days(7);
      config.hitlist_scan_start = simnet::days(4);
      config.hitlist.routers_per_prefix = 4;
      config.hitlist.aliased_samples = 300;
      config.scan_pps = 500;
      config.drain = simnet::days(1);
      break;
    case StudyScale::kSmall:
      config.population.device_scale = 1.0;
      config.runtime.duration = simnet::days(28);
      config.hitlist_scan_start = simnet::days(21);
      config.hitlist.aliased_samples = 30000;
      break;
    case StudyScale::kMedium:
      config.population.device_scale = 3.0;
      config.runtime.duration = simnet::days(28);
      config.hitlist_scan_start = simnet::days(21);
      config.hitlist.aliased_samples = 60000;
      config.scan_pps = 6000;
      break;
  }
  return config;
}

Study::Study(StudyConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      tracer_(config_.obs.trace_capacity),
      flight_(kFlightCapacity),
      collector_(&metrics_) {
  if (config_.server_countries.empty())
    config_.server_countries = ntp::deployment_countries();
  tracer_.set_sim_clock(&events_);
  tracer_.set_enabled(config_.obs.enabled);
  // The flight recorder shares the virtual clock; its wall stamps come
  // from the tracer's sanctioned clock (data only, never rendered).
  flight_.set_sim_clock(&events_);
  flight_.set_wall_clock(&obs::Tracer::wall_clock_ns);
  flight_.set_enabled(config_.obs.enabled);
  flight_.add_trigger(obs::FlightKind::kFaultInjected, kFaultBurst,
                      kFaultBurstWindow, "fault-burst");
  flight_.add_trigger(obs::FlightKind::kRouteWithdrawn, kRouteFlapBurst,
                      kRouteFlapWindow, "route-flap");
  // The accessor-backing instruments are always enrolled (enrolment is a
  // cold path); obs.enabled only adds wall-clock work on hot paths.
  events_.attach_metrics(metrics_, {}, /*time_dispatch=*/config_.obs.enabled);
  // Sampling keeps the dispatch histogram's wall-clock reads off most
  // events (two clock reads per timed dispatch dominate the obs cost).
  events_.set_dispatch_sampling(64);
  events_.set_flight_recorder(&flight_, config_.obs.slow_dispatch_ns);
  pool_.set_registry(&metrics_);
  metrics_.enroll(overflow_dropped_, "scan_overflow_dropped",
                  {{"dataset", "ntp"}}, this);
  // One token source for both engines: the aggregate rate is the paper's
  // scan budget, per-engine shares come from the weights. Built here (not
  // in run()) so tests can attach a grant observer up front.
  if (config_.enable_ntp_scans || config_.enable_hitlist_scan)
    scan_budget_ = std::make_unique<scan::SharedBudget>(
        scan::SharedBudgetConfig{config_.scan_pps, /*burst_slots=*/2,
                                 &metrics_});
}

Study::~Study() { metrics_.drop_owner(this); }

net::Ipv6Address Study::allocate_infra_address(const std::string& country,
                                               std::uint16_t tag) {
  // Infrastructure (NTP servers, scanners) gets addresses in a reserved
  // high /48 band of a hosting AS of its country, clear of customer space.
  auto hosting = registry_->in_country(country, inet::AsCategory::kHosting);
  if (hosting.empty()) hosting = registry_->in_country(country);
  if (hosting.empty())
    hosting = registry_->by_category(inet::AsCategory::kContent);
  if (hosting.empty()) throw std::logic_error("no AS for infra address");
  const inet::AsInfo* as = hosting.front();
  std::uint64_t hi = as->prefixes.front().address().hi64() |
                     (0xff00ULL << 16) | (static_cast<std::uint64_t>(tag) << 16);
  net::Ipv6Address addr =
      net::Ipv6Address::from_halves(hi, 0x1000 + next_infra_++);
  // Infra lives inside AS prefixes: without a pin the longest-prefix map
  // would place a pool server on its AS's domain instead of domain 0,
  // where all digest-feeding state (collector, results, engines) mutates.
  if (config_.shards.shards > 0) shard_map_.pin(addr, 0);
  return addr;
}

void Study::build_shards() {
  const auto& all = registry_->all();
  for (std::size_t i = 0; i < all.size(); ++i)
    for (const auto& prefix : all[i].prefixes)
      shard_map_.map_prefix(prefix, static_cast<simnet::DomainId>(1 + i));
  simnet::ShardPlan plan = config_.shards;
  if (plan.lookahead <= 0)
    plan.lookahead = std::max<simnet::SimDuration>(1, config_.network.min_latency);
  events_.configure_shards(plan,
                           static_cast<simnet::DomainId>(1 + all.size()));
  network_->set_shard_map(&shard_map_);
}

void Study::build_pool() {
  util::Rng pool_rng = rng_.stream("pool");

  // Third-party background servers in every country zone.
  for (const auto& country : registry_->countries()) {
    int n = 2 + static_cast<int>(pool_rng.below(3));
    double per_server = config_.background_netspeed / n;
    for (int i = 0; i < n; ++i) {
      net::Ipv6Address addr = allocate_infra_address(
          country.code, static_cast<std::uint16_t>(10 + i));
      ntp::NtpServerConfig server;
      server.address = addr;
      server.country = country.code;
      server.capture = false;
      background_servers_.push_back(std::make_unique<ntp::NtpServer>(
          *network_, server, nullptr));
      pool_.add_server(ntp::PoolEntry{addr, country.code, per_server, 20,
                                      /*ours=*/false, 0});
    }
  }

  // Our 11 capture servers, netspeed-tuned to the target zone share
  // (the paper raises netspeed until the request rate matches the scan
  // budget; the closed-form equivalent against a known zone total).
  double share = config_.pool_share;
  double our_netspeed =
      config_.background_netspeed * share / std::max(1e-9, 1.0 - share);
  ntp::ServerId id = 0;
  for (const auto& country : config_.server_countries) {
    net::Ipv6Address addr = allocate_infra_address(country, 1);
    ntp::NtpServerConfig server;
    server.address = addr;
    server.country = country;
    server.id = id++;
    server.capture = true;
    our_servers_.push_back(
        std::make_unique<ntp::NtpServer>(*network_, server, &collector_));
    pool_.add_server(
        ntp::PoolEntry{addr, country, our_netspeed, 20, /*ours=*/true,
                       server.id});
  }
}

void Study::build_telescope() {
  // Telescope prefix: documentation-range space outside the synthetic
  // registry, so captures cannot collide with population traffic.
  auto probe_prefix = *net::Ipv6Prefix::parse("3fff:909:aaaa::/48");
  auto monitor_prefix = *net::Ipv6Prefix::parse("3fff:909::/32");
  telescope::ProberConfig prober_config;
  prober_config.probe_prefix = probe_prefix;
  prober_config.monitor_prefix = monitor_prefix;
  prober_config.duration = config_.runtime.duration;
  prober_config.seed = rng_.stream("prober").root_seed();
  prober_config.registry = &metrics_;
  prober_ = std::make_unique<telescope::PoolProber>(*network_, pool_,
                                                    prober_config);

  if (!config_.enable_actors) return;

  // Actor 1: overt research scanner (Georgia-Tech-like). 15 pool servers,
  // 1011 ports, scans within the hour, identifies itself.
  {
    telescope::ActorConfig gt;
    gt.name = "research-university";
    gt.identifies_itself = true;
    gt.server_country = "US";
    gt.server_netspeed = 60;
    for (int i = 0; i < 15; ++i)
      gt.server_addresses.push_back(allocate_infra_address(
          "US", static_cast<std::uint16_t>(0x80 + i)));
    auto edu = registry_->in_country("US", inet::AsCategory::kEducation);
    net::Ipv6Address src =
        edu.empty()
            ? allocate_infra_address("US", 0x9f)
            : net::Ipv6Address::from_halves(
                  edu.front()->prefixes.front().address().hi64() |
                      (0xedULL << 16),
                  0x515);
    if (config_.shards.shards > 0) shard_map_.pin(src, 0);
    gt.scan_sources.push_back(src);
    gt.ports = telescope::research_actor_ports();
    gt.scan_delay_min = simnet::minutes(3);
    gt.scan_delay_max = simnet::minutes(55);
    gt.scan_spread = simnet::minutes(10);
    gt.seed = rng_.stream("actor-gt").root_seed();
    actors_.push_back(std::make_unique<telescope::ScanningActor>(
        *network_, pool_, gt));
  }

  // Actor 2: covert. Servers in one cloud provider, scan sources in
  // another, security-sensitive ports, multi-day spread, partial coverage.
  {
    telescope::ActorConfig covert;
    covert.name = "";
    covert.identifies_itself = false;
    covert.server_country = "US";
    covert.server_netspeed = 40;
    auto clouds = registry_->by_category(inet::AsCategory::kContent);
    const inet::AsInfo* cloud_a =
        clouds.size() > 1 ? clouds[1] : clouds.front();
    const inet::AsInfo* cloud_b =
        clouds.size() > 2 ? clouds[2] : clouds.front();
    for (int i = 0; i < 4; ++i) {
      covert.server_addresses.push_back(net::Ipv6Address::from_halves(
          cloud_a->prefixes.front().address().hi64() |
              (static_cast<std::uint64_t>(0xc0 + i) << 16),
          0x11));
    }
    for (int i = 0; i < 2; ++i) {
      covert.scan_sources.push_back(net::Ipv6Address::from_halves(
          cloud_b->prefixes.front().address().hi64() |
              (static_cast<std::uint64_t>(0xd0 + i) << 16),
          0x22));
    }
    if (config_.shards.shards > 0) {
      for (const auto& a : covert.server_addresses) shard_map_.pin(a, 0);
      for (const auto& a : covert.scan_sources) shard_map_.pin(a, 0);
    }
    covert.ports = telescope::covert_actor_ports();
    covert.scan_delay_min = simnet::hours(10);
    covert.scan_delay_max = simnet::hours(60);
    covert.scan_spread = simnet::days(2);
    covert.port_coverage = 0.6;
    covert.seed = rng_.stream("actor-covert").root_seed();
    actors_.push_back(std::make_unique<telescope::ScanningActor>(
        *network_, pool_, covert));
  }
}

void Study::run() {
  if (ran_) throw std::logic_error("Study::run called twice");
  ran_ = true;

  simnet::NetworkConfig net_config = config_.network;
  net_config.seed = rng_.stream("network").root_seed();
  network_ = std::make_unique<simnet::Network>(events_, net_config);
  if (!config_.faults.empty()) {
    simnet::FaultScenario scenario = config_.faults;
    scenario.seed = rng_.stream("faults").root_seed() ^ scenario.seed;
    network_->install_faults(std::move(scenario), &metrics_, &flight_);
  }
  // The route plane is draw-free (pure scripted windows), so no seed
  // mixing; transitions commit at barriers, counters enroll as route_*.
  if (!config_.routes.empty())
    network_->install_routes(config_.routes, &metrics_, &flight_);

  {
    auto span = tracer_.span("study/build_internet");
    inet::AsRegistryConfig reg_config;
    reg_config.seed = rng_.stream("registry").root_seed();
    registry_ = inet::AsRegistry::generate(reg_config);

    inet::PopulationConfig pop_config = config_.population;
    pop_config.seed = rng_.stream("population").root_seed();
    population_ = inet::Population::generate(*registry_, pop_config);
  }

  // Partition before anything allocates infra addresses (allocation pins
  // them to domain 0) or schedules events (configure_shards requires a
  // quiet queue).
  if (config_.shards.shards > 0) build_shards();

  {
    auto span = tracer_.span("study/build_pool");
    build_pool();
  }

  eui64_.attach(collector_);

  if (config_.enable_pool_monitor) {
    ntp::PoolMonitorConfig monitor_config = config_.pool_monitor;
    monitor_config.vantage = allocate_infra_address("US", 0x77);
    monitor_config.duration =
        std::min(monitor_config.duration, config_.runtime.duration);
    monitor_ =
        std::make_unique<ntp::PoolMonitor>(*network_, pool_, monitor_config);
    monitor_->start();
  }

  if (config_.enable_ntp_scans) {
    scan::ScanEngineConfig engine;
    engine.scanner_address = allocate_infra_address("DE", 0x51);
    engine.dataset = scan::Dataset::kNtp;
    engine.budget = scan_budget_.get();
    engine.budget_weight = config_.ntp_scan_weight;
    engine.max_pending = config_.scan_max_pending;
    // One source of truth for the connect give-up: the network default the
    // simnet blackhole path uses (instead of a silently different 5 s).
    engine.connect_timeout = config_.network.connect_timeout;
    engine.retry = config_.scan_retry;
    engine.breaker = config_.scan_breaker;
    engine.seed = rng_.stream("ntp-engine").root_seed();
    engine.registry = &metrics_;
    engine.tracer = config_.obs.enabled ? &tracer_ : nullptr;
    engine.flight = &flight_;
    ntp_engine_ =
        std::make_unique<scan::ScanEngine>(*network_, results_, engine);
    collector_.subscribe([this](const ntp::CollectedAddress& rec) {
      if (ntp_engine_->try_submit(rec.addr) != scan::SubmitResult::kQueueFull)
        return;
      // Backpressure: a collector-fed address must not be silently lost to
      // a momentarily full lane, so it overflows into a study-side buffer
      // the engine drains as a pull source once staging room frees up. The
      // buffer itself is capped: a feed that outruns the scan budget for
      // long enough drops (and counts) the excess instead of growing
      // without bound.
      if (ntp_overflow_.size() >= config_.overflow_cap) {
        overflow_dropped_.inc();
        return;
      }
      ntp_overflow_.push_back(rec.addr);
      if (ntp_overflow_active_) return;
      ntp_overflow_active_ = true;
      ntp_engine_->add_source([this](std::size_t max_n) {
        auto n = static_cast<std::ptrdiff_t>(
            std::min(max_n, ntp_overflow_.size()));
        std::vector<net::Ipv6Address> out(ntp_overflow_.begin(),
                                          ntp_overflow_.begin() + n);
        ntp_overflow_.erase(ntp_overflow_.begin(), ntp_overflow_.begin() + n);
        if (out.empty()) ntp_overflow_active_ = false;
        return out;
      });
    });
  }

  inet::RuntimeConfig runtime_config = config_.runtime;
  runtime_config.seed = rng_.stream("runtime").root_seed();
  runtime_ = std::make_unique<inet::InternetRuntime>(
      *network_, *population_, &pool_, runtime_config);
  runtime_->start();

  // The hitlist snapshot is roughly contemporaneous with the scan week
  // (the paper scanned the July '24 list in August '24): build it from the
  // live address state two days before the sweep starts. Dynamic devices
  // still rot out of it during those days plus the sweep itself.
  simnet::SimTime hitlist_build_at =
      std::max<simnet::SimTime>(0, config_.hitlist_scan_start -
                                       simnet::days(2));
  simnet::EventQueue::CategoryId hitlist_cat =
      events_.register_category("hitlist_build");
  if (events_.sharded()) {
    // Incremental build: one slice per AS on its home domain (killing the
    // monolithic build's dispatch tail), merged on domain 0 one lookahead
    // later. Any window containing a slice closes at a bound <= build
    // time + lookahead, so the merge always lands in a later window.
    std::size_t as_count = registry_->all().size();
    hitlist_partials_.resize(as_count);
    for (std::size_t i = 0; i < as_count; ++i) {
      events_.schedule_on(static_cast<simnet::DomainId>(1 + i),
                          hitlist_build_at, hitlist_cat, [this, i] {
                            hitlist_partials_[i] =
                                hitlist::HitlistBuilder::build_partial(
                                    *population_, runtime_.get(),
                                    config_.hitlist, i);
                          });
    }
    events_.schedule_on(0, hitlist_build_at + events_.lookahead(),
                        hitlist_cat, [this] {
                          auto span = tracer_.span("study/hitlist_build");
                          hitlist_ = hitlist::HitlistBuilder::merge_partials(
                              *registry_, config_.hitlist, hitlist_partials_);
                          hitlist_partials_.clear();
                          hitlist_partials_.shrink_to_fit();
                        });
  } else {
    events_.schedule_at(hitlist_build_at, hitlist_cat, [this] {
      auto span = tracer_.span("study/hitlist_build");
      hitlist_ = hitlist::HitlistBuilder::build(*population_, runtime_.get(),
                                                config_.hitlist);
    });
  }

  if (config_.enable_hitlist_scan) {
    scan::ScanEngineConfig engine;
    engine.scanner_address = allocate_infra_address("DE", 0x52);
    engine.dataset = scan::Dataset::kHitlist;
    engine.budget = scan_budget_.get();
    engine.budget_weight = config_.hitlist_scan_weight;
    engine.max_pending = config_.scan_max_pending;
    engine.connect_timeout = config_.network.connect_timeout;
    engine.retry = config_.scan_retry;
    engine.breaker = config_.scan_breaker;
    engine.seed = rng_.stream("hitlist-engine").root_seed();
    engine.registry = &metrics_;
    engine.tracer = config_.obs.enabled ? &tracer_ : nullptr;
    engine.flight = &flight_;
    hitlist_engine_ =
        std::make_unique<scan::ScanEngine>(*network_, results_, engine);
    events_.schedule_at(config_.hitlist_scan_start, hitlist_cat, [this] {
      // Chunked pull feed: the engine drains the hitlist as staging room
      // frees up, so pending_depth stays bounded by scan_max_pending
      // instead of one intent per probe of the whole sweep.
      sweeper_ = std::make_unique<hitlist::SweepFeeder>(*hitlist_engine_,
                                                        hitlist_.full);
      sweeper_->start();
    });
  }

  if (config_.enable_telescope) {
    build_telescope();
    prober_->start();
  }

  // Everything is built; scenarios that need generated artifacts (an
  // eyeball prefix, a pool server's address) script themselves now, before
  // the first event fires.
  if (config_.on_built) config_.on_built(*this);

  // Checkpoint / resume-verify. Both runs of a checkpointed study (the
  // one that writes the snapshot and the one resumed from it) schedule
  // the same capture event from this same spot, so their event sequences
  // — and therefore their reports — stay bit-identical.
  if (config_.checkpoint_at > 0 || restore_) {
    simnet::EventQueue::CategoryId snap_cat =
        events_.register_category("checkpoint");
    bool combined = restore_ && restore_->at == config_.checkpoint_at;
    if (restore_) {
      simnet::SimTime at = restore_->at;
      events_.schedule_at(at, snap_cat, [this, combined, at] {
        // At a barrier the whole data plane is quiesced, so the capture
        // sees the same bytes at every shard count (immediate on an
        // unsharded queue, where the event itself is the quiet point).
        events_.run_at_barrier([this, combined, at] {
          StudySnapshot live = capture_snapshot(at);
          verify_restore(live);
          if (combined) checkpoint_ = live.serialize();
        });
      });
    }
    if (config_.checkpoint_at > 0 && !combined) {
      simnet::SimTime at = config_.checkpoint_at;
      events_.schedule_at(at, snap_cat, [this, at] {
        events_.run_at_barrier(
            [this, at] { checkpoint_ = capture_snapshot(at).serialize(); });
      });
    }
  }

  simnet::SimTime horizon = config_.runtime.duration + config_.drain;
  if (config_.obs.enabled) {
    obs::HeartbeatConfig hb;
    hb.interval = config_.obs.heartbeat_interval;
    hb.until = horizon;
    hb.max_snapshots = config_.obs.max_snapshots;
    heartbeat_ = std::make_unique<obs::Heartbeat>(events_, metrics_, hb);
    heartbeat_->snap_now();  // t=0 baseline row
    heartbeat_->start();
  }

  {
    auto span = tracer_.span("study/event_loop");
    events_.run_until(horizon);
  }
  if (heartbeat_) heartbeat_->snap_now();  // final end-of-run reading
}

void Study::resume_from(std::string_view snapshot_bytes) {
  if (ran_) throw std::logic_error("Study::resume_from after run()");
  StudySnapshot snap = StudySnapshot::parse(snapshot_bytes);
  if (snap.seed != config_.seed)
    throw std::invalid_argument(
        "Study::resume_from: snapshot seed " + std::to_string(snap.seed) +
        " does not match config seed " + std::to_string(config_.seed));
  restore_ = std::move(snap);
}

StudySnapshot Study::capture_snapshot(simnet::SimTime at) const {
  StudySnapshot snap;
  snap.seed = config_.seed;
  snap.at = at;

  util::ByteWriter clock;
  clock.i64(at);
  clock.u64(events_.executed());
  snap.sections.push_back({"clock", clock.take()});

  util::ByteWriter collector;
  collector_.save_state(collector);
  snap.sections.push_back({"collector", collector.take()});

  util::ByteWriter hl;
  hitlist_.save_state(hl);
  snap.sections.push_back({"hitlist", hl.take()});

  util::ByteWriter res;
  results_.save_state(res);
  snap.sections.push_back({"results", res.take()});

  // RNG streams that mutate during the run (the study rng_ itself only
  // derives child streams at build time): the engines' retry/jitter
  // generators. Equal states prove the stochastic timelines match.
  util::ByteWriter rng;
  auto put_state = [&rng](const std::array<std::uint64_t, 4>& s) {
    for (std::uint64_t word : s) rng.u64(word);
  };
  put_state(rng_.state());
  rng.u8(ntp_engine_ ? 1 : 0);
  if (ntp_engine_) put_state(ntp_engine_->rng_state());
  rng.u8(hitlist_engine_ ? 1 : 0);
  if (hitlist_engine_) put_state(hitlist_engine_->rng_state());
  snap.sections.push_back({"rng", rng.take()});
  return snap;
}

void Study::verify_restore(const StudySnapshot& live) const {
  if (live.at != restore_->at)
    throw SnapshotDivergence("snapshot verify ran at t=" +
                             std::to_string(live.at) + ", checkpoint was t=" +
                             std::to_string(restore_->at));
  std::string diverged;
  for (const auto& s : live.sections) {
    const SnapshotSection* stored = restore_->section(s.name);
    if (stored && stored->bytes == s.bytes) continue;
    if (!diverged.empty()) diverged += ", ";
    diverged += stored ? s.name : s.name + " (missing from snapshot)";
  }
  if (!diverged.empty())
    throw SnapshotDivergence(
        "resumed study diverged from checkpoint at t=" +
        std::to_string(live.at) + " in section(s): " + diverged);
}

std::vector<std::pair<std::string, std::uint64_t>> Study::per_server_counts()
    const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& server : our_servers_) {
    out.emplace_back(server->config().country,
                     collector_.server_distinct(server->config().id));
  }
  return out;
}

double Study::ntp_hit_rate() const {
  if (!ntp_engine_ || ntp_engine_->probes_launched() == 0) return 0.0;
  std::uint64_t successes = 0;
  for (std::size_t p = 0; p < scan::kProtocolCount; ++p)
    successes += results_.count(scan::Dataset::kNtp,
                                static_cast<scan::Protocol>(p),
                                scan::Outcome::kSuccess);
  return static_cast<double>(successes) /
         static_cast<double>(ntp_engine_->probes_launched());
}

telescope::ClassifierReport Study::telescope_report() const {
  if (!prober_) return {};
  auto identity = [this](const net::Ipv6Address& addr) -> std::string {
    for (const auto& actor : actors_) {
      if (actor->owns_scan_source(addr))
        return actor->config().identifies_itself
                   ? "research-scan." + actor->config().name + ".example"
                   : "";
    }
    // Our own scan engines identify themselves (Appendix A.2.2).
    if (ntp_engine_ && addr == ntp_engine_->config().scanner_address)
      return "research-scan.our-study.example";
    if (hitlist_engine_ && addr == hitlist_engine_->config().scanner_address)
      return "research-scan.our-study.example";
    return "";
  };
  return telescope::classify_actors(*prober_, *registry_, identity,
                                    &tracer_);
}

std::vector<std::string> Study::timeline_columns() {
  return {"ntp_requests",
          "ntp_distinct_addresses",
          "scan_probes_launched{dataset=ntp}",
          "scan_probes_completed{dataset=ntp}",
          "scan_probes_launched{dataset=hitlist}",
          "scan_pending_depth{dataset=hitlist}",
          "telescope_queries",
          "telescope_captures",
          "simnet_events_executed",
          // Per-category dispatch histogram (count column = sampled packet
          // dispatches): the per-day share of the hot packet path.
          "simnet_dispatch_wall_ns{category=packet}"};
}

std::string Study::observability_report() const {
  std::string out;
  if (heartbeat_) {
    // Delta columns turn the per-interval table into the paper's
    // collection-rate view: each row shows how much that interval added,
    // not just the running totals.
    obs::TimelineOptions timeline_options;
    timeline_options.deltas = true;
    out += obs::timeline_table(heartbeat_->timeline(), timeline_columns(),
                               "heartbeat timeline (per virtual " +
                                   simnet::format_duration(
                                       config_.obs.heartbeat_interval) +
                                   ")",
                               timeline_options)
               .to_string();
    out += "\n";
  }
  obs::TableRollup rollup;
  rollup.names = config_.obs.rollup_names;
  rollup.top_n = config_.obs.rollup_top_n;
  out += obs::to_table(metrics_.snapshot(events_.now()), "final metrics",
                       rollup)
             .to_string();
  if (!tracer_.stats().empty()) {
    out += "\n";
    out += obs::span_table(tracer_, "pipeline spans").to_string();
  }
  // Top-K slow dispatches: names the ~9 ms tail the dispatch histogram
  // only hints at (which category, at what sim time). Wall readings are
  // nondeterministic, so this table is for humans, not digests.
  auto slow = events_.slowest();
  if (!slow.empty()) {
    util::TextTable table("slowest timed dispatches");
    table.set_header({"sim t", "category", "wall"},
                     {util::Align::kLeft, util::Align::kLeft});
    for (const auto& s : slow) {
      table.add_row({simnet::format_duration(s.at),
                     events_.category_name(s.category),
                     util::cat(util::fixed(
                                   static_cast<double>(s.wall_ns) / 1e6, 3),
                               " ms")});
    }
    out += "\n";
    out += table.to_string();
  }
  if (flight_.recorded() > 0 || flight_.triggers() > 0) {
    out += util::cat("\nflight recorder: ", flight_.recorded(),
                     " events recorded (", flight_.overwritten(),
                     " overwritten), ", flight_.triggers(), " triggers (",
                     flight_.suppressed(), " suppressed), ",
                     flight_.dumps().size(), " dumps");  // ttslint: allow(barrier-only) reason=post-run report: run() has returned, appends quiesced
    // ttslint: allow(barrier-only) reason=post-run report: run() has returned, appends quiesced
    for (const auto& d : flight_.dumps())
      out += util::cat("\n  dump: ", d.first);
    out += "\n";
  }
  return out;
}

}  // namespace tts::core
