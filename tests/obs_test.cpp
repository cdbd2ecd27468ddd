// tts::obs: counter/gauge/histogram semantics, label handling, span
// nesting, heartbeat snapshot ordering, exporter round-trips, and the
// registry-backed counters of the instrumented pipeline components.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "ntp/collector.hpp"
#include "obs/export.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scan/engine.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"

namespace tts::obs {
namespace {

net::Ipv6Address addr(std::uint64_t lo) {
  return net::Ipv6Address::from_halves(0x2400003000000000ULL, lo);
}

// ---------------------------------------------------------- instruments

TEST(Instruments, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(Instruments, HistogramBucketsAreLogLinear) {
  Histogram h;
  // 0..15 have a bucket each; 16 and 17 share the first 2-wide bucket.
  for (std::int64_t v : {0, 7, 8, 15, 16, 17, 18}) h.record(v);
  h.record(-5);  // clamps into bucket 0
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(7), 1u);
  EXPECT_EQ(h.bucket_count(8), 1u);
  EXPECT_EQ(h.bucket_count(15), 1u);
  EXPECT_EQ(h.bucket_count(16), 2u);
  EXPECT_EQ(h.bucket_count(17), 1u);
  EXPECT_EQ(Histogram::bucket_upper(16), 17);
  EXPECT_EQ(Histogram::bucket_upper(17), 19);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 18);
  EXPECT_EQ(h.sum(), 0 + 7 + 8 + 15 + 16 + 17 + 18 - 5);
  EXPECT_DOUBLE_EQ(h.mean(), (0 + 7 + 8 + 15 + 16 + 17 + 18 - 5) / 8.0);
  // Counts run to the last non-empty bucket, not the whole layout.
  EXPECT_EQ(h.counts().size(), 18u);
  EXPECT_TRUE(Histogram().counts().empty());
}

TEST(Instruments, HistogramPercentileReadsBucketEdges) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(5);   // bucket 5 holds only 5
  for (int i = 0; i < 49; ++i) h.record(50);  // bucket [48, 51]
  h.record(12345);
  EXPECT_EQ(h.percentile(0.5), 5);     // within the first 50 samples
  EXPECT_EQ(h.percentile(0.95), 51);   // the upper edge of 50's bucket
  EXPECT_EQ(h.percentile(1.0), 12345);  // edges are capped at the max
  EXPECT_EQ(Histogram().percentile(0.5), 0);  // empty histogram
}

/// Lowest value bucket `b` counts (bucket 0 also takes every negative).
std::int64_t bucket_lower(std::size_t b) {
  return b == 0 ? std::numeric_limits<std::int64_t>::min()
                : Histogram::bucket_upper(b - 1) + 1;
}

TEST(Instruments, HistogramLayoutCoversInt64InNarrowBuckets) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // Every bucket is non-empty, contiguous with the last, and at most 12.5%
  // of its lower edge wide past 8; the last one ends at INT64_MAX.
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    SCOPED_TRACE(b);
    const std::int64_t lo = bucket_lower(b), hi = Histogram::bucket_upper(b);
    ASSERT_LE(lo, hi);
    EXPECT_EQ(Histogram::bucket_index(lo), b);
    EXPECT_EQ(Histogram::bucket_index(hi), b);
    if (b >= 8) {
      const auto width = static_cast<std::uint64_t>(hi - lo) + 1;
      EXPECT_LE(width * 8, static_cast<std::uint64_t>(lo));
    }
  }
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kBuckets - 1), kMax);

  std::vector<std::int64_t> values = {0, 1, 2, 3, 4, 7, 8, 15, 16, 17,
                                      kMax, -1, -1000,
                                      std::numeric_limits<std::int64_t>::min()};
  for (int k = 2; k < 63; ++k) {
    const std::int64_t p = std::int64_t{1} << k;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  util::Rng rng(0x4157);
  for (int i = 0; i < 10000; ++i)
    values.push_back(static_cast<std::int64_t>(rng.next() >> rng.below(64)));
  std::sort(values.begin(), values.end());
  std::size_t prev = 0;
  for (std::int64_t v : values) {
    SCOPED_TRACE(v);
    const std::size_t b = Histogram::bucket_index(v);
    ASSERT_LT(b, Histogram::kBuckets);
    EXPECT_LE(bucket_lower(b), v);
    EXPECT_LE(v, Histogram::bucket_upper(b));
    EXPECT_GE(b, prev);  // indices never fall as values grow
    prev = b;
  }
}

TEST(Instruments, HistogramPercentileIsWithinOneEighthOfExact) {
  Histogram h;
  std::vector<std::int64_t> samples;
  util::Rng rng(0x9e7c);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform over 0 .. 2^40 so every decade has samples.
    auto v = static_cast<std::int64_t>(rng.next() >> (24 + rng.below(40)));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                   0.999, 1.0}) {
    SCOPED_TRACE(p);
    auto rank = static_cast<std::size_t>(p * 10000);
    const std::int64_t exact = samples[std::max<std::size_t>(rank, 1) - 1];
    const std::int64_t got = h.percentile(p);
    EXPECT_GE(got, exact);
    EXPECT_LE((got - exact) * 8, exact);
  }
}

// ------------------------------------------------------------- registry

TEST(Registry, LabelsDistinguishInstrumentsAndOrderDoesNotMatter) {
  Registry reg;
  Counter ssh, http;
  reg.enroll(ssh, "probes", {{"proto", "ssh"}, {"dataset", "ntp"}});
  reg.enroll(http, "probes", {{"proto", "http"}, {"dataset", "ntp"}});
  ssh.inc(3);
  http.inc(5);
  // Lookup labels in any order match the sorted enrolment.
  const Counter* found =
      reg.find_counter("probes", {{"dataset", "ntp"}, {"proto", "ssh"}});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &ssh);
  EXPECT_EQ(found->value(), 3u);
  EXPECT_EQ(reg.find_counter("probes", {{"proto", "smtp"}}), nullptr);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, DropOwnerRemovesOnlyThatOwnersInstruments) {
  Registry reg;
  Counter a, b;
  int owner_a = 0, owner_b = 0;
  reg.enroll(a, "a", {}, &owner_a);
  reg.enroll(b, "b", {}, &owner_b);
  reg.drop_owner(&owner_a);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.find_counter("a"), nullptr);
  EXPECT_NE(reg.find_counter("b"), nullptr);
}

TEST(Registry, SnapshotIsSortedByNameThenLabels) {
  Registry reg;
  Counter z, a1, a2;
  Gauge g;
  reg.enroll(z, "zz");
  reg.enroll(a2, "aa", {{"k", "2"}});
  reg.enroll(a1, "aa", {{"k", "1"}});
  reg.enroll(g, "mm");
  RegistrySnapshot snap = reg.snapshot(77);
  EXPECT_EQ(snap.at, 77);
  ASSERT_EQ(snap.values.size(), 4u);
  EXPECT_EQ(snap.values[0].full_name(), "aa{k=1}");
  EXPECT_EQ(snap.values[1].full_name(), "aa{k=2}");
  EXPECT_EQ(snap.values[2].full_name(), "mm");
  EXPECT_EQ(snap.values[3].full_name(), "zz");
  EXPECT_NE(snap.find("aa{k=2}"), nullptr);
  EXPECT_EQ(snap.find("aa{k=3}"), nullptr);
}

// --------------------------------------------------------------- tracer

TEST(Tracer, ScopedSpansNestAndRecordSimDurations) {
  simnet::EventQueue events;
  Tracer tracer(16);
  tracer.set_sim_clock(&events);
  events.schedule_at(simnet::sec(1), [] {});
  events.run();  // clock at 1 s

  {
    auto outer = tracer.span("outer");
    events.schedule_in(simnet::sec(2), [&tracer] {
      auto inner = tracer.span("inner");  // closes immediately
    });
    events.run();  // clock at 3 s
  }
  auto records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  // Inner closed first; spans land in completion order.
  EXPECT_EQ(records[0].name, "inner");
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_EQ(records[1].name, "outer");
  EXPECT_EQ(records[1].depth, 0u);
  EXPECT_EQ(records[1].sim_begin, simnet::sec(1));
  EXPECT_EQ(records[1].sim_end, simnet::sec(3));
  EXPECT_EQ(records[1].sim_duration(), simnet::sec(2));
  EXPECT_GE(records[1].wall_ns, 0);

  const auto& stats = tracer.stats();
  ASSERT_EQ(stats.count("outer"), 1u);
  EXPECT_EQ(stats.at("outer").count, 1u);
  EXPECT_EQ(stats.at("outer").total_sim, simnet::sec(2));
}

TEST(Tracer, RingIsBoundedButStatsAreComplete) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    auto s = tracer.span("loop");
  }
  EXPECT_EQ(tracer.records().size(), 4u);
  EXPECT_EQ(tracer.completed(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.stats().at("loop").count, 10u);
}

TEST(Tracer, DisabledTracerIsANoOp) {
  Tracer tracer(4);
  tracer.set_enabled(false);
  auto id = tracer.open("x");
  EXPECT_EQ(id, Tracer::kNoSpan);
  tracer.close(id);
  EXPECT_TRUE(tracer.records().empty());
  EXPECT_EQ(tracer.completed(), 0u);
}

TEST(Tracer, InternIsIdempotentAndNamesAreStable) {
  Tracer tracer(8);
  Tracer::NameId http = tracer.intern("probe/http");
  Tracer::NameId ssh = tracer.intern("probe/ssh");
  EXPECT_NE(http, ssh);
  EXPECT_EQ(tracer.intern("probe/http"), http);
  EXPECT_EQ(tracer.name_of(http), "probe/http");
  EXPECT_EQ(tracer.name_of(ssh), "probe/ssh");
}

TEST(Tracer, OpenByIdAndByStringShareOneAggregate) {
  simnet::EventQueue events;
  Tracer tracer(8);
  tracer.set_sim_clock(&events);
  Tracer::NameId id = tracer.intern("probe/http");
  Tracer::SpanId span = tracer.open(id);
  events.schedule_at(simnet::sec(3), [&] { tracer.close(span); });
  events.run();
  EXPECT_EQ(tracer.stats_of(id).count, 1u);
  EXPECT_EQ(tracer.stats_of(id).total_sim, simnet::sec(3));
  {
    auto scope = tracer.span("probe/http");  // string path, same NameId
  }
  EXPECT_EQ(tracer.stats_of(id).count, 2u);
  EXPECT_EQ(tracer.stats().at("probe/http").count, 2u);
  // Records still carry the resolved name for human output.
  ASSERT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.records()[0].name, "probe/http");
}

TEST(Tracer, StatsSkipInternedButNeverOpenedNames) {
  Tracer tracer(8);
  tracer.intern("enrolled/unused");
  {
    auto scope = tracer.span("used");
  }
  auto stats = tracer.stats();
  EXPECT_EQ(stats.count("enrolled/unused"), 0u);
  EXPECT_EQ(stats.count("used"), 1u);
}

TEST(Tracer, OpenCloseSpansAsyncStages) {
  simnet::EventQueue events;
  Tracer tracer(16);
  tracer.set_sim_clock(&events);
  Tracer::SpanId id = tracer.open("async");
  events.schedule_at(simnet::minutes(5), [&] { tracer.close(id); });
  events.run();
  ASSERT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.records()[0].sim_duration(), simnet::minutes(5));
  EXPECT_EQ(tracer.open_spans(), 0u);
}

// ------------------------------------------------------------ heartbeat

TEST(Heartbeat, SnapshotsEveryIntervalInOrder) {
  simnet::EventQueue events;
  Registry reg;
  Counter ticks;
  reg.enroll(ticks, "ticks");
  // One tick per virtual second feeds the counter.
  for (int i = 1; i <= 50; ++i)
    events.schedule_at(simnet::sec(i), [&ticks] { ticks.inc(); });

  HeartbeatConfig cfg;
  cfg.interval = simnet::sec(10);
  cfg.until = simnet::sec(45);
  Heartbeat hb(events, reg, cfg);
  hb.start();
  events.run_until(simnet::sec(60));

  const auto& timeline = hb.timeline();
  ASSERT_EQ(timeline.size(), 4u);  // 10,20,30,40 (50 > until)
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].at, simnet::sec(10 * static_cast<int>(i + 1)));
    const SnapshotValue* v = timeline[i].find("ticks");
    ASSERT_NE(v, nullptr);
    // Ticks were scheduled before start(), so at equal instants the tick
    // fires first and each snapshot sees everything up to its own time.
    EXPECT_GE(v->count, prev);
    prev = v->count;
  }
  EXPECT_EQ(timeline.back().find("ticks")->count, 40u);
}

TEST(Heartbeat, SameInstantReadingReplacesInsteadOfDuplicating) {
  simnet::EventQueue events;
  Registry reg;
  Counter c;
  reg.enroll(c, "c");
  Heartbeat hb(events, reg, HeartbeatConfig{});
  hb.snap_now();
  c.inc(5);
  hb.snap_now();  // same virtual time -> replaces, with the fresher value
  ASSERT_EQ(hb.timeline().size(), 1u);
  EXPECT_EQ(hb.timeline()[0].find("c")->count, 5u);
}

TEST(Heartbeat, MaxSnapshotsStopsRescheduling) {
  simnet::EventQueue events;
  Registry reg;
  HeartbeatConfig cfg;
  cfg.interval = simnet::sec(1);
  cfg.max_snapshots = 3;
  Heartbeat hb(events, reg, cfg);
  hb.start();
  events.run();  // would loop forever without the cap
  EXPECT_EQ(hb.timeline().size(), 3u);
}

// ------------------------------------------------------------ exporters

TEST(Exporters, JsonlRoundTrip) {
  Registry reg;
  Counter c;
  Gauge g;
  Histogram h;
  reg.enroll(c, "requests", {{"zone", "DE"}, {"ours", "1"}});
  reg.enroll(g, "depth");
  reg.enroll(h, "wait_us");
  c.inc(12345);
  g.set(-42);
  h.record(7);
  h.record(500);
  h.record(99999);

  RegistrySnapshot snap = reg.snapshot(987654321);
  EXPECT_EQ(snap.find("wait_us")->bucket_counts.size(),
            Histogram::bucket_index(99999) + 1);
  std::string jsonl = to_jsonl(snap);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);

  auto parsed = parse_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at, snap.at);
  ASSERT_EQ(parsed->values.size(), snap.values.size());
  for (std::size_t i = 0; i < snap.values.size(); ++i) {
    const SnapshotValue& want = snap.values[i];
    const SnapshotValue& got = parsed->values[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.full_name(), want.full_name());
    if (want.kind == Kind::kCounter) {
      EXPECT_EQ(got.count, want.count);
    }
    if (want.kind == Kind::kGauge) {
      EXPECT_EQ(got.value, want.value);
    }
    if (want.kind == Kind::kHistogram) {
      EXPECT_EQ(got.count, want.count);
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(got.min, want.min);
      EXPECT_EQ(got.max, want.max);
      EXPECT_EQ(got.bucket_counts, want.bucket_counts);
    }
  }
}

TEST(Exporters, ParseJsonlRejectsGarbage) {
  EXPECT_FALSE(parse_jsonl("not json\n").has_value());
  EXPECT_FALSE(parse_jsonl("{\"name\":\"x\"}\n").has_value());  // no kind
  EXPECT_TRUE(parse_jsonl("").has_value());  // empty dump is an empty snap
}

TEST(Exporters, JsonlHistogramCountsEndAtTheLastNonEmptyBucket) {
  Registry reg;
  Histogram h;
  reg.enroll(h, "lat");
  h.record(3);
  h.record(70);

  std::string jsonl = to_jsonl(reg.snapshot());
  EXPECT_NE(jsonl.find("\"count\":2,\"sum\":73,\"min\":3,\"max\":70"),
            std::string::npos);
  auto parsed = parse_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value());
  const std::vector<std::uint64_t>& counts =
      parsed->find("lat")->bucket_counts;
  // One count per bucket up to 70's bucket [64, 71], leading empties
  // included; nothing past it.
  ASSERT_EQ(counts.size(), Histogram::bucket_index(70) + 1);
  EXPECT_EQ(Histogram::bucket_upper(counts.size() - 1), 71);
  EXPECT_EQ(counts[Histogram::bucket_index(2)], 0u);
  EXPECT_EQ(counts[Histogram::bucket_index(3)], 1u);
  EXPECT_EQ(counts.back(), 1u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
            2u);
}

TEST(Exporters, TimelineTableShowsColumnsAndMissingDash) {
  simnet::EventQueue events;
  Registry reg;
  Counter c;
  reg.enroll(c, "seen");
  Heartbeat hb(events, reg, HeartbeatConfig{});
  c.inc(3);
  hb.snap_now();
  std::string text =
      timeline_table(hb.timeline(), {"seen", "missing"}).to_string();
  EXPECT_NE(text.find("seen"), std::string::npos);
  EXPECT_NE(text.find("3"), std::string::npos);
  EXPECT_NE(text.find("-"), std::string::npos);
}

TEST(Exporters, TimelineDeltasAndRatesForCountersOnly) {
  simnet::EventQueue events;
  Registry reg;
  Counter c;
  Gauge g;
  reg.enroll(c, "reqs");
  reg.enroll(g, "depth");
  Heartbeat hb(events, reg, HeartbeatConfig{});

  c.inc(10);
  g.set(5);
  events.schedule_at(simnet::sec(0), [&] { hb.snap_now(); });
  events.schedule_at(simnet::sec(10), [&] {
    c.inc(30);
    g.set(7);
    hb.snap_now();
  });
  events.run_until(simnet::sec(11));

  std::string text = timeline_table(hb.timeline(), {"reqs", "depth"}, "t",
                                    {.deltas = true, .rates = true})
                         .to_string();
  // Counter columns grow a Δ and a /s view; the gauge stays absolute.
  EXPECT_NE(text.find("Δreqs"), std::string::npos);
  EXPECT_NE(text.find("reqs/s"), std::string::npos);
  EXPECT_EQ(text.find("Δdepth"), std::string::npos);
  EXPECT_EQ(text.find("depth/s"), std::string::npos);
  // First row has no predecessor: delta and rate render as "-". The second
  // row increments by 30 over 10 s.
  EXPECT_NE(text.find("30"), std::string::npos);
  EXPECT_NE(text.find("3.00"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
}

TEST(Exporters, MetricsTableListsEveryInstrument) {
  Registry reg;
  Counter c;
  Histogram h;
  reg.enroll(c, "alpha");
  reg.enroll(h, "beta");
  h.record(12);
  std::string text = to_table(reg.snapshot()).to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
}

TEST(Exporters, TableRollupFoldsTheLongTailIntoOther) {
  Registry reg;
  // A 6-series family: top-2 + "other" should fold the remaining 4.
  std::array<Counter, 6> picks;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    picks[i].inc(100 * (i + 1));  // s5 (600) and s4 (500) are the top two
    reg.enroll(picks[i], "pool_selections",
               {{"server", "s" + std::to_string(i)}});
  }
  Counter untouched;
  reg.enroll(untouched, "scan_submitted", {{"dataset", "ntp"}});

  TableRollup rollup;
  rollup.names = {"pool_selections"};
  rollup.top_n = 2;
  std::string text = to_table(reg.snapshot(), "metrics", rollup).to_string();

  EXPECT_NE(text.find("pool_selections{server=s5}"), std::string::npos);
  EXPECT_NE(text.find("pool_selections{server=s4}"), std::string::npos);
  EXPECT_EQ(text.find("pool_selections{server=s0}"), std::string::npos);
  EXPECT_NE(text.find("pool_selections{series=other}"), std::string::npos);
  EXPECT_NE(text.find("rollup of 4 series"), std::string::npos);
  // The "other" value is the exact sum of the folded series (100..400).
  EXPECT_NE(text.find("1 000"), std::string::npos);
  // Unlisted families render in full.
  EXPECT_NE(text.find("scan_submitted{dataset=ntp}"), std::string::npos);
}

TEST(Exporters, TableRollupLeavesSmallFamiliesAlone) {
  Registry reg;
  std::array<Counter, 3> picks;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    picks[i].inc(i + 1);
    reg.enroll(picks[i], "pool_selections",
               {{"server", "s" + std::to_string(i)}});
  }
  TableRollup rollup;
  rollup.names = {"pool_selections"};
  rollup.top_n = 2;  // 3 <= top_n + 1: rolling would save nothing
  std::string text = to_table(reg.snapshot(), "metrics", rollup).to_string();
  EXPECT_NE(text.find("pool_selections{server=s0}"), std::string::npos);
  EXPECT_EQ(text.find("series=other"), std::string::npos);
}

TEST(Exporters, RollupFeedsJsonl) {
  Registry reg;
  std::array<Counter, 6> picks;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    picks[i].inc(100 * (i + 1));
    reg.enroll(picks[i], "pool_selections",
               {{"server", "s" + std::to_string(i)}});
  }
  Counter untouched;
  reg.enroll(untouched, "scan_submitted", {{"dataset", "ntp"}});
  TableRollup rollup;
  rollup.names = {"pool_selections"};
  rollup.top_n = 2;

  RegistrySnapshot rolled = apply_rollup(reg.snapshot(), rollup);
  ASSERT_EQ(rolled.values.size(), 4u);  // top-2 + other + untouched family
  EXPECT_EQ(rolled.values[0].full_name(), "pool_selections{server=s5}");
  EXPECT_EQ(rolled.values[1].full_name(), "pool_selections{server=s4}");
  EXPECT_EQ(rolled.values[2].full_name(), "pool_selections{series=other}");
  EXPECT_EQ(rolled.values[2].count, 1000u);  // 100+200+300+400
  EXPECT_EQ(rolled.values[3].full_name(), "scan_submitted{dataset=ntp}");

  // JSONL of the rolled snapshot emits the rolled set and round-trips.
  std::string jsonl = to_jsonl(rolled);
  auto parsed = parse_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->values.size(), 4u);
  EXPECT_EQ(parsed->values[2].full_name(), "pool_selections{series=other}");
  EXPECT_EQ(parsed->values[2].count, 1000u);
}

TEST(Exporters, RollupAddsHistogramsBucketByBucket) {
  Registry reg;
  std::array<Histogram, 4> waits;
  for (std::size_t i = 0; i < waits.size(); ++i) {
    for (std::size_t n = 0; n <= i; ++n) waits[i].record(3);
    waits[i].record(static_cast<std::int64_t>(10 * i));
    reg.enroll(waits[i], "wait_us", {{"lane", std::to_string(i)}});
  }
  TableRollup rollup;
  rollup.names = {"wait_us"};
  rollup.top_n = 1;  // lane 3 stays; lanes 0..2 fold, counts of 3 lengths

  RegistrySnapshot rolled = apply_rollup(reg.snapshot(), rollup);
  ASSERT_EQ(rolled.values.size(), 2u);
  const SnapshotValue& other = rolled.values[1];
  EXPECT_EQ(other.full_name(), "wait_us{series=other}");
  EXPECT_EQ(other.count, 9u);
  EXPECT_EQ(other.min, 0);
  EXPECT_EQ(other.max, 20);
  std::vector<std::uint64_t> want(Histogram::bucket_index(20) + 1);
  want[0] = 1;
  want[3] = 6;
  want[Histogram::bucket_index(10)] = 1;
  want[Histogram::bucket_index(20)] = 1;
  EXPECT_EQ(other.bucket_counts, want);
}

// ------------------------------------------- instrumented components

TEST(Collector, ServerDistinctBoundsAndRegistryExport) {
  Registry reg;
  ntp::AddressCollector collector(&reg);
  EXPECT_EQ(collector.server_distinct(0), 0u);    // nothing recorded yet
  EXPECT_EQ(collector.server_distinct(999), 0u);  // unknown server id

  collector.record(addr(1), 0, simnet::sec(5));
  collector.record(addr(1), 7, simnet::sec(6));  // dup: not attributed to 7
  collector.record(addr(2), 7, simnet::sec(7));

  EXPECT_EQ(collector.total_requests(), 3u);
  EXPECT_EQ(collector.distinct_addresses(), 2u);
  EXPECT_EQ(collector.dedup_hits(), 1u);
  EXPECT_EQ(collector.server_distinct(0), 1u);
  EXPECT_EQ(collector.server_distinct(7), 1u);
  EXPECT_EQ(collector.server_distinct(8), 0u);

  // The accessors and the registry read the same cells.
  const Counter* exported =
      reg.find_counter("ntp_server_distinct", {{"server", "7"}});
  ASSERT_NE(exported, nullptr);
  EXPECT_EQ(exported->value(), collector.server_distinct(7));
  EXPECT_EQ(reg.find_counter("ntp_requests")->value(), 3u);
  EXPECT_EQ(reg.find_counter("ntp_dedup_hits")->value(), 1u);
}

TEST(Collector, DailyNewBucketingStableAcrossHeartbeatBoundary) {
  simnet::EventQueue events;
  Registry reg;
  ntp::AddressCollector collector(&reg);
  HeartbeatConfig cfg;
  cfg.interval = simnet::days(1);  // ticks exactly on the day boundaries
  cfg.until = simnet::days(3);
  Heartbeat hb(events, reg, cfg);
  hb.start();

  // Sightings straddling the day-1 boundary: one just before, one exactly
  // on it, one just after. The day bucket is floor(t / 1 day), so the
  // boundary sighting belongs to day 1, not day 0 — and heartbeat ticks on
  // the same instants must not disturb the bucketing.
  std::uint64_t n = 10;
  events.schedule_at(simnet::days(1) - 1,
                     [&] { collector.record(addr(n++), 0, events.now()); });
  events.schedule_at(simnet::days(1),
                     [&] { collector.record(addr(n++), 0, events.now()); });
  events.schedule_at(simnet::days(1) + 1,
                     [&] { collector.record(addr(n++), 0, events.now()); });
  events.schedule_at(simnet::days(2) + simnet::hours(3),
                     [&] { collector.record(addr(n++), 0, events.now()); });
  events.run_until(simnet::days(3));

  const auto& daily = collector.daily_new();
  ASSERT_EQ(daily.size(), 3u);
  EXPECT_EQ(daily.at(0), 1u);  // the t = 1d-1us sighting
  EXPECT_EQ(daily.at(1), 2u);  // boundary + just-after
  EXPECT_EQ(daily.at(2), 1u);

  // The day-boundary heartbeat snapshot (scheduled before that instant's
  // sighting) still sees the pre-boundary total; the final one sees all.
  ASSERT_EQ(hb.timeline().size(), 3u);
  EXPECT_EQ(hb.timeline()[0].find("ntp_distinct_addresses")->count, 1u);
  EXPECT_EQ(hb.timeline()[2].find("ntp_distinct_addresses")->count, 4u);
}

TEST(ScanEngine, AccessorsReadTheRegistryInstruments) {
  simnet::EventQueue events;
  simnet::Network network(events);
  scan::ResultStore results;
  Registry reg;
  Tracer tracer(64);
  tracer.set_sim_clock(&events);

  scan::ScanEngineConfig cfg;
  cfg.scanner_address = addr(0xbeef);
  cfg.min_protocol_delay = simnet::usec(10);
  cfg.max_protocol_delay = simnet::usec(20);
  cfg.max_pps = 100000;
  cfg.registry = &reg;
  cfg.tracer = &tracer;
  {
    scan::ScanEngine engine(network, results, cfg);
    engine.submit(addr(1));
    engine.submit(addr(2));
    engine.submit(addr(1));  // inside the blackout -> skipped
    events.run();

    obs::Labels ds{{"dataset", "ntp"}};
    EXPECT_EQ(engine.submitted(), 2u);
    EXPECT_EQ(engine.skipped_blackout(), 1u);
    EXPECT_EQ(reg.find_counter("scan_submitted", ds)->value(),
              engine.submitted());
    EXPECT_EQ(reg.find_counter("scan_skipped_blackout", ds)->value(),
              engine.skipped_blackout());
    EXPECT_EQ(engine.probes_launched(), 2 * scan::kProtocolCount);
    EXPECT_EQ(engine.probes_completed(), engine.probes_launched());

    // Per-protocol counters sum to the total.
    std::uint64_t launched = 0, completed = 0;
    for (std::size_t p = 0; p < scan::kProtocolCount; ++p) {
      auto proto = static_cast<scan::Protocol>(p);
      launched += engine.probes_launched(proto);
      completed += engine.probes_completed(proto);
      obs::Labels labeled = ds;
      labeled.emplace_back("proto", std::string(scan::label(proto)));
      EXPECT_EQ(reg.find_counter("scan_probes_launched", labeled)->value(),
                engine.probes_launched(proto));
    }
    EXPECT_EQ(launched, engine.probes_launched());
    EXPECT_EQ(completed, engine.probes_completed());

    // Token bucket recorded one wait per launched probe; RTT one per
    // completion; the tracer saw each probe's full lifecycle — stage span,
    // grant instant, launch span, record instant and lifecycle span.
    EXPECT_EQ(engine.token_wait().count(), engine.probes_launched());
    EXPECT_EQ(engine.probe_rtt().count(), engine.probes_completed());
    EXPECT_EQ(tracer.completed(), 5 * engine.probes_completed());
    EXPECT_EQ(tracer.open_spans(), 0u);
    EXPECT_GE(reg.size(), 7u + 2 * scan::kProtocolCount);
  }
  // Engine destruction dropped its instruments from the registry.
  EXPECT_EQ(reg.size(), 0u);
}

TEST(EventQueueMetrics, ExecutedAndPendingExported) {
  Registry reg;
  simnet::EventQueue events;
  events.attach_metrics(reg, {{"queue", "test"}});
  for (int i = 0; i < 5; ++i) events.schedule_at(simnet::sec(i + 1), [] {});
  EXPECT_EQ(reg.find_gauge("simnet_events_pending", {{"queue", "test"}})
                ->value(),
            5);
  events.run();
  EXPECT_EQ(events.executed(), 5u);
  EXPECT_EQ(reg.find_counter("simnet_events_executed", {{"queue", "test"}})
                ->value(),
            5u);
  const Histogram* h =
      reg.find_histogram("simnet_dispatch_wall_ns", {{"queue", "test"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 5u);  // dispatch timing on by default when attached
}

}  // namespace
}  // namespace tts::obs
