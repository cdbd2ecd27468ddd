// Study benchmark: one workload's full core::Study, from
// construction through build_report + render_markdown, timed only from
// outside the program.
//
//   tts_bench --workload=<name> --seed=<n> [--traced | --setup-only] [--smoke]
//
// Prints one JSON object on stdout: the FNV-64 digest of the rendered
// report, the correctness checks, and the metrics. A plain run reports the
// end-to-end group. --traced turns on the program's own instruments
// (StudyConfig::obs: the sampled dispatch profiler, spans, heartbeat) and
// reports the per-layer group, plus three layer probes that call one
// module's public functions against the finished run and, on a sharded
// workload, a rerun of the study with a worker thread. --setup-only stops
// at StudyConfig::on_built and reports setup_s alone. --smoke cuts every
// workload to at most one sim-day. run.py repeats runs and aggregates them.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/study.hpp"
#include "inet/as_registry.hpp"
#include "net/ipv6.hpp"
#include "ntp/collector.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fault.hpp"
#include "simnet/network.hpp"
#include "simnet/route.hpp"
#include "util/rng.hpp"

namespace {

using namespace tts;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set (VmHWM) in MB; 0 when /proc is unavailable.
double rss_peak_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

std::uint64_t fnv64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- workloads --------------------------------------------------------------

/// Impairment scripts a workload generates from its seed. They are kept so
/// the send-path probe can install the same scripts on a fresh network.
struct Scripts {
  simnet::FaultScenario faults;
  simnet::RouteScenario routes;
};

struct Workload {
  std::string_view name;
  core::StudyConfig (*config)();
  /// Generates the scripts from the built Internet (nullptr = pristine).
  void (*script)(const core::Study&, util::Rng&, Scripts&);
};

/// The paper's whole pipeline: collection, real-time NTP scans, the
/// hitlist sweep, telescope and actors, on the legacy dispatcher.
core::StudyConfig paper_config() {
  auto c = core::make_study_config(core::StudyScale::kSmall);
  c.runtime.duration = simnet::days(2);
  c.hitlist_scan_start = simnet::days(1);
  c.drain = simnet::hours(12);
  return c;
}

/// Collection only: churn, NTP polls and collector ingest. The scan layer
/// does no work, so a scan-side change must show no change here.
core::StudyConfig collect_config() {
  auto c = paper_config();
  c.enable_ntp_scans = false;
  c.enable_hitlist_scan = false;
  c.enable_telescope = false;
  c.enable_actors = false;
  return c;
}

/// Scan-heavy over a small population under partial outages: the per-send
/// route -> outage -> rule verdicts, retries and breakers work.
core::StudyConfig impaired_config() {
  auto c = core::make_study_config(core::StudyScale::kTiny);
  c.population.device_scale = 0.3;
  c.runtime.duration = simnet::days(5);
  c.hitlist_scan_start = simnet::days(3);
  c.hitlist.aliased_samples = 20000;
  c.scan_pps = 4000;
  c.scan_retry.max_retries = 2;
  c.scan_retry.base_backoff = simnet::sec(30);
  c.scan_breaker.enabled = true;
  c.scan_breaker.prefix_len = 48;
  return c;
}

/// 1,000 /48 more-specific rules around live customers (1/3 blackhole, 2/3
/// loss 0.3) in staggered 6 h windows, 20% loss on every eyeball prefix,
/// and 64 withdraw/announce flaps of our capture servers' /48s.
///
/// The flaps stay off scan targets on purpose: a withdrawn target is
/// quarantined, and while its lane is full every pump wake rescans the
/// whole quarantine, so flapping target ASes made one study cost anywhere
/// from 2.3 s to 30 s depending on the seed (see README.md).
void impaired_script(const core::Study& study, util::Rng& rng, Scripts& out) {
  const simnet::SimTime span = study.config().runtime.duration;
  auto random_time = [&] {
    return static_cast<simnet::SimTime>(rng.below(
        static_cast<std::uint64_t>(std::max<simnet::SimTime>(1, span))));
  };
  const auto& devices = study.population().devices();
  for (int i = 0; i < 1000 && !devices.empty(); ++i) {
    const inet::Device& d = devices[rng.below(devices.size())];
    simnet::SimTime from = random_time();
    out.faults.rules.push_back(
        {.prefix = net::Ipv6Prefix(d.initial_address.masked(48), 48),
         .kind = i % 3 == 0 ? simnet::FaultKind::kBlackhole
                            : simnet::FaultKind::kLoss,
         .from = from,
         .until = from + simnet::hours(6),
         .probability = 0.3});
  }
  for (const inet::AsInfo* as :
       study.registry().by_category(inet::AsCategory::kCableDslIsp))
    for (const net::Ipv6Prefix& prefix : as->prefixes)
      out.faults.rules.push_back({.prefix = prefix,
                                  .kind = simnet::FaultKind::kLoss,
                                  .probability = 0.2});
  out.faults.seed = rng.next();

  const auto servers = study.pool().our_servers();
  for (int i = 0; i < 64 && !servers.empty(); ++i) {
    net::Ipv6Prefix net48(
        servers[rng.below(servers.size())].address.masked(48), 48);
    simnet::SimTime at = random_time();
    out.routes.withdraw(net48, at);
    out.routes.announce(
        net48, at + simnet::minutes(30 + static_cast<std::int64_t>(
                                             rng.below(330))));
  }
}

/// The only workload on the windowed dispatcher: windows, barrier commits,
/// inboxes. It runs on one executor. Almost every window holds a single
/// event, so with worker threads the loop is mostly futex wake-ups, whose
/// latency on a shared host swung the same study from 2.0 s to 2.7 s within
/// minutes (one executor: 0.46-0.52 s). A traced run times the threaded
/// loop as a layer metric instead (threaded_loop).
core::StudyConfig sharded_config() {
  auto c = core::make_study_config(core::StudyScale::kTiny);
  c.population.device_scale = 0.05;
  c.runtime.duration = simnet::hours(6);
  c.hitlist_scan_start = simnet::hours(3);
  c.drain = simnet::hours(2);
  c.shards.shards = 4;
  c.shards.workers = 1;
  return c;
}

constexpr Workload kWorkloads[] = {
    {"paper_small", paper_config, nullptr},
    {"collect_small", collect_config, nullptr},
    {"impaired_sweep", impaired_config, impaired_script},
    {"sharded4_tiny", sharded_config, nullptr},
};

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::uint64_t digest = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<Metric> metrics;

  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void count(std::string name, std::uint64_t value) {
    metric(std::move(name), static_cast<double>(value), "count");
  }
  void print(std::string_view workload, std::uint64_t seed) const {
    std::printf("{\"workload\": \"%.*s\", \"seed\": %llu, ",
                static_cast<int>(workload.size()), workload.data(),
                static_cast<unsigned long long>(seed));
    std::printf("\"digest\": \"%016llx\", \"checks\": {",
                static_cast<unsigned long long>(digest));
    for (std::size_t i = 0; i < checks.size(); ++i)
      std::printf("%s\"%s\": %s", i ? ", " : "", checks[i].first.c_str(),
                  checks[i].second ? "true" : "false");
    std::printf("}, \"metrics\": {");
    for (std::size_t i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    std::printf("}}\n");
  }
};

// ---- checks -----------------------------------------------------------------

void run_checks(core::Study& study, const Workload& w, Result& r) {
  for (const scan::ScanEngine* e :
       {study.ntp_engine(), study.hitlist_engine()}) {
    if (!e) continue;
    scan::Dataset ds = e->config().dataset;
    std::string tag(scan::label(ds));
    r.check("conservation." + tag,
            study.results().total(ds) == e->probes_completed() +
                                             e->breaker_shed() -
                                             e->retries_staged());
    r.check("route_deferred." + tag,
            e->route_deferred() == e->route_requeued() + e->quarantine_depth());
  }
  const simnet::EventQueue& q = study.network().events();
  r.check("shard_violations", q.shard_violations() == 0);
  r.check("addresses_collected", study.collector().distinct_addresses() > 0);
  const bool scans =
      study.config().enable_ntp_scans || study.config().enable_hitlist_scan;
  // The bypass workload must really bypass the scan layer.
  r.check(scans ? "scan_layer_ran" : "scan_layer_bypassed",
          scans ? study.results().total(scan::Dataset::kNtp) > 0
                : study.results().size() == 0 && !study.ntp_engine());
  if (study.config().shards.shards > 0)
    r.check("windows_ran", q.shard_windows() > 0);
  if (w.script) {
    const simnet::FaultPlane* f = study.network().faults();
    const simnet::RoutePlane* rp = study.network().routes();
    r.check("faults_injected",
            f && f->udp_dropped() + f->tcp_blackholed() > 0);
    r.check("routes_blackholed", rp && rp->blackholed() > 0);
  }
}

// ---- layer probes (--traced) ------------------------------------------------

/// Median wall time of attach + bind_udp + detach on fresh addresses against
/// the finished run's network (every detach sweeps the binding tables).
double detach_us(simnet::Network& net) {
  std::vector<double> us;
  us.reserve(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    // 2001:db8::/32 is documentation space: never part of the population.
    auto addr = net::Ipv6Address::from_halves(0x20010db800000000ULL | i, 1);
    auto t0 = Clock::now();
    net.attach(addr);
    net.bind_udp({addr, 123}, [](const simnet::Datagram&) {});
    net.detach(addr);
    us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  return us[us.size() / 2];
}

/// Mean wall ns per send_udp on a fresh queue + network carrying the
/// workload's scripts, to the run's collected addresses at eight instants
/// across the collection window.
double send_udp_ns(const core::Study& study, const Scripts& scripts,
                   const std::vector<net::Ipv6Address>& targets) {
  simnet::EventQueue q;
  simnet::Network net(q, study.config().network);
  if (!scripts.faults.empty()) net.install_faults(scripts.faults);
  if (!scripts.routes.empty()) net.install_routes(scripts.routes);
  simnet::Endpoint src{study.pool().our_servers().front().address, 123};
  const std::size_t n = std::min<std::size_t>(targets.size(), 20000);
  double total_s = 0;
  std::uint64_t sends = 0;
  for (int k = 0; k < 8; ++k) {
    q.run_until(study.config().runtime.duration * k / 8);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
      net.send_udp(src, {targets[i], 123}, std::vector<std::uint8_t>(48));
    total_s += seconds_between(t0, Clock::now());
    sends += n;
  }
  return 1e9 * ratio(total_s, static_cast<double>(sends));
}

/// Wall ns per address replaying the run's address stream into a fresh
/// collector in 64-address batches: once as inserts, once as dedup hits.
std::pair<double, double> ingest_ns(
    const std::vector<net::Ipv6Address>& addrs) {
  ntp::AddressCollector collector;
  auto pass = [&] {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < addrs.size(); i += 64) {
      std::span<const net::Ipv6Address> batch(
          addrs.data() + i, std::min<std::size_t>(64, addrs.size() - i));
      collector.record_batch(batch, 0, 0);
    }
    return 1e9 * ratio(seconds_between(t0, Clock::now()),
                       static_cast<double>(addrs.size()));
  };
  double insert = pass();
  return {insert, pass()};
}

/// The same study on two executors, the driving thread and one worker:
/// its loop time, and its report digest, which must equal the
/// one-executor run's (workers only place domains on threads).
std::pair<double, std::uint64_t> threaded_loop(core::StudyConfig config) {
  config.shards.workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
  Clock::time_point built{};
  config.on_built = [&](core::Study&) { built = Clock::now(); };
  core::Study study(config);
  study.run();
  const double loop_s = seconds_between(built, Clock::now());
  return {loop_s, fnv64(core::render_markdown(core::build_report(study)))};
}

// ---- per-layer metrics ------------------------------------------------------

/// Dispatch categories the per-layer table reports (the profiler's tags),
/// and whether it reports their time. The profiler times one dispatch in
/// 64, so the rare categories get too few samples to read a time from;
/// hitlist.build_s times the hitlist build from its span instead.
constexpr std::pair<std::string_view, bool> kCategories[] = {
    {"packet", true},         {"scan_pump", true},     {"scan_probe", true},
    {"churn", true},          {"ntp_poll", true},      {"telescope", true},
    {"ntp_query", false},     {"hitlist_build", false}, {"device_start", false},
    {"route", false},         {"fault_window", false}};

void layer_metrics(core::Study& study, const Scripts& scripts, double loop_s,
                   double report_s, Result& r) {
  auto d = [](auto v) { return static_cast<double>(v); };
  const simnet::EventQueue& q = study.network().events();
  r.metric("core.loop_s", loop_s, "s");
  r.metric("analysis.report_s", report_s, "s");

  // Category time = sampled mean x exact count; the remainder of the loop
  // is dispatch overhead (heap, callback moves, barriers).
  std::map<std::string, std::pair<std::uint64_t, double>, std::less<>> cats;
  double category_s = 0;
  for (std::size_t id = 0; id < q.category_count(); ++id) {
    auto cid = static_cast<simnet::EventQueue::CategoryId>(id);
    const obs::Histogram& h = q.category_wall_ns(cid);
    double s = 1e-9 * h.mean() * d(q.category_executed(cid));
    cats[q.category_name(cid)] = {q.category_executed(cid), s};
    category_s += s;
  }
  r.count("simnet.events", q.executed());
  r.metric("simnet.events_per_s", ratio(d(q.executed()), loop_s), "1/s");
  r.metric("simnet.dispatch_overhead_s", loop_s - category_s, "s");
  r.count("simnet.windows", q.shard_windows());
  r.metric("simnet.barrier_stall_s", 1e-9 * d(q.barrier_stall_ns().sum()),
           "s");
  r.count("simnet.lookahead_violations", q.shard_violations());
  for (auto [name, timed] : kCategories) {
    auto it = cats.find(name);
    auto [events, s] = it == cats.end()
                           ? std::pair<std::uint64_t, double>{0, 0}
                           : it->second;
    std::string key = "dispatch." + std::string(name);
    r.count(key + ".events", events);
    if (timed) r.metric(key + ".s", s, "s");
  }

  const simnet::Network& net = study.network();
  r.count("net.udp_sent", net.udp_sent());
  r.count("net.tcp_attempts", net.tcp_attempts());
  r.count("net.online", net.online_count());
  std::uint64_t injections = 0;
  if (const simnet::FaultPlane* f = net.faults())
    injections = f->udp_dropped() + f->udp_host_down() + f->tcp_blackholed() +
                 f->tcp_rst() + f->tcp_stalled() + f->delays_injected();
  r.count("net.fault_injections", injections);
  r.count("net.route_blackholed",
          net.routes() ? net.routes()->blackholed() : 0);

  std::uint64_t probes = 0, grants = 0, borrowed = 0, wakes = 0, retries = 0,
                shed = 0, deferred = 0, pending_peak = 0, timeouts = 0,
                records = 0;
  double token_wait_us = 0, queue_delay_us = 0;
  std::uint64_t token_waits = 0, queue_delays = 0;
  for (const scan::ScanEngine* e :
       {study.ntp_engine(), study.hitlist_engine()}) {
    if (!e) continue;
    probes += e->probes_launched();
    grants += e->budget().grants(e->budget_client());
    borrowed += e->budget().borrowed(e->budget_client());
    wakes += e->pump_wakes();
    retries += e->retries_staged();
    shed += e->breaker_shed();
    deferred += e->route_deferred();
    pending_peak = std::max<std::uint64_t>(pending_peak, e->pending_peak());
    token_wait_us += static_cast<double>(e->token_wait().sum());
    token_waits += e->token_wait().count();
    queue_delay_us += static_cast<double>(e->queue_delay().sum());
    queue_delays += e->queue_delay().count();
    scan::Dataset ds = e->config().dataset;
    records += study.results().total(ds);
    for (std::size_t p = 0; p < scan::kProtocolCount; ++p)
      timeouts += study.results().count(ds, static_cast<scan::Protocol>(p),
                                        scan::Outcome::kTimeout);
  }
  r.count("scan.probes", probes);
  r.metric("scan.probes_per_s", ratio(d(probes), loop_s), "1/s");
  r.count("scan.grants", grants);
  r.count("scan.pump_wakes", wakes);
  r.metric("scan.wakes_per_grant", ratio(d(wakes), d(grants)), "ratio");
  r.metric("scan.borrowed_share", ratio(d(borrowed), d(grants)), "ratio");
  r.count("scan.retries", retries);
  r.count("scan.breaker_shed", shed);
  r.count("scan.route_deferred", deferred);
  r.count("scan.pending_peak", pending_peak);
  r.metric("scan.token_wait_mean_us", ratio(token_wait_us, d(token_waits)),
           "us");
  r.metric("scan.queue_delay_mean_s",
           1e-6 * ratio(queue_delay_us, d(queue_delays)), "s");
  r.metric("scan.timeout_share", ratio(d(timeouts), d(records)), "ratio");

  const ntp::AddressCollector& c = study.collector();
  std::vector<net::Ipv6Address> addrs = study.ntp_addresses();
  r.count("ntp.requests", c.total_requests());
  r.count("ntp.addresses", c.distinct_addresses());
  r.metric("ntp.dedup_share", ratio(d(c.dedup_hits()), d(c.total_requests())),
           "ratio");
  r.metric("ntp.store_bytes_per_addr",
           ratio(d(c.addresses().memory_bytes()), d(c.distinct_addresses())),
           "B");
  auto [insert_ns, dedup_ns] = ingest_ns(addrs);
  r.metric("ntp.ingest_ns", insert_ns, "ns");
  r.metric("ntp.dedup_ns", dedup_ns, "ns");

  r.count("hitlist.targets", study.hitlist().full.size());
  auto spans = study.tracer().stats();
  auto build = spans.find("study/hitlist_build");
  r.metric("hitlist.build_s",
           build == spans.end() ? 0.0 : 1e-9 * d(build->second.total_wall_ns),
           "s");

  r.metric("net.send_udp_ns", send_udp_ns(study, scripts, addrs), "ns");
  // Last: it changes the finished run's network.
  r.metric("net.detach_us", detach_us(study.network()), "us");
}

// ---- one run ----------------------------------------------------------------

enum class Mode {
  kPlain,   ///< end-to-end metrics
  kTraced,  ///< obs on; per-layer metrics
  kSetup,   ///< stop at on_built; setup_s only
};

/// Thrown from on_built to end a kSetup run where set-up ends.
struct SetupDone {};

Result run(const Workload& w, std::uint64_t seed, Mode mode, bool smoke) {
  core::StudyConfig config = w.config();
  config.seed = seed;
  if (smoke) {
    config.runtime.duration =
        std::min(config.runtime.duration, simnet::days(1));
    config.hitlist_scan_start =
        std::min(config.hitlist_scan_start, config.runtime.duration / 2);
    config.drain = std::min(config.drain, simnet::hours(6));
  }
  config.obs.enabled = mode == Mode::kTraced;

  Scripts scripts;
  Clock::time_point built{};
  config.on_built = [&](core::Study& study) {
    if (w.script) {
      util::Rng rng = util::Rng(seed).stream(w.name);
      w.script(study, rng, scripts);
      study.network().install_faults(scripts.faults, &study.metrics(),
                                     &study.flight());
      study.network().install_routes(scripts.routes, &study.metrics(),
                                     &study.flight());
    }
    built = Clock::now();
    if (mode == Mode::kSetup) throw SetupDone{};
  };

  Result r;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  core::Study study(config);
  try {
    study.run();
  } catch (const SetupDone&) {
    r.metric("setup_s", seconds_between(t0, built), "s");
    return r;
  }
  const auto ran = Clock::now();
  std::string md = core::render_markdown(core::build_report(study));
  const auto done = Clock::now();
  const double cpu_s = cpu_seconds() - cpu0;

  r.digest = fnv64(md);
  r.check("report_rendered", !md.empty());
  run_checks(study, w, r);

  const double wall_s = seconds_between(t0, done);
  r.metric("wall_s", wall_s, "s");
  if (mode == Mode::kTraced) {
    layer_metrics(study, scripts, seconds_between(built, ran),
                  seconds_between(ran, done), r);
    double threaded_s = 0;
    if (config.shards.shards > 0) {
      auto [loop_s, digest] = threaded_loop(config);
      r.check("threaded_digest", digest == r.digest);
      threaded_s = loop_s;
    }
    r.metric("simnet.threaded_loop_s", threaded_s, "s");
    return r;
  }
  r.metric("setup_s", seconds_between(t0, built), "s");
  r.metric("cpu_s", cpu_s, "s");
  r.metric("events_per_s",
           ratio(static_cast<double>(study.events_executed()), wall_s), "1/s");
  r.metric("addresses_per_s",
           ratio(static_cast<double>(study.collector().distinct_addresses()),
                 wall_s),
           "1/s");
  r.metric("rss_peak_mb", rss_peak_mb(), "MB");
  return r;
}

int usage() {
  std::fprintf(stderr,
               "usage: tts_bench --workload=<name> --seed=<n> "
               "[--traced | --setup-only] [--smoke]\nworkloads:");
  for (const Workload& w : kWorkloads)
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false, smoke = false;
  Mode mode = Mode::kPlain;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a.starts_with("--workload=")) {
      std::string_view name = a.substr(11);
      for (const Workload& w : kWorkloads)
        if (w.name == name) workload = &w;
      if (!workload) return usage();
    } else if (a.starts_with("--seed=")) {
      char* end = nullptr;
      std::string v(a.substr(7));
      seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && *end == '\0';
    } else if (a == "--traced") {
      mode = Mode::kTraced;
    } else if (a == "--setup-only") {
      mode = Mode::kSetup;
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  if (!workload || !have_seed) return usage();
  run(*workload, seed, mode, smoke).print(workload->name, seed);
  return 0;
}
