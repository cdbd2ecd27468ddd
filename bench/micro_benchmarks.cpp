// Microbenchmarks for the hot primitives: address codec, LPM trie, NTP and
// CoAP wire codecs, Levenshtein grouping, RNG, the event queue, the
// network's host table, the address store, and the obs instruments riding
// on every hot path.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/study.hpp"
#include "net/address_store.hpp"
#include "net/ipv6.hpp"
#include "net/routing_table.hpp"
#include "ntp/ntp_packet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/coap.hpp"
#include "proto/mqtt.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "util/levenshtein.hpp"
#include "util/rng.hpp"

using namespace tts;

static void BM_Ipv6Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto a = net::Ipv6Address::parse("2001:db8:1234:5678::9abc:def0");
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Ipv6Parse);

static void BM_Ipv6Format(benchmark::State& state) {
  auto a = *net::Ipv6Address::parse("2400:cb00:2048:1::6814:55");
  for (auto _ : state) {
    auto s = a.to_string();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Ipv6Format);

static void BM_RoutingLookup(benchmark::State& state) {
  net::RoutingTable table;
  constexpr std::uint64_t kSeed = 1;
  util::Rng rng(kSeed);
  std::vector<net::Ipv6Address> probes;
  for (int i = 0; i < 1000; ++i) {
    auto addr = net::Ipv6Address::from_halves(
        0x2400000000000000ULL | (rng.next() >> 12), rng.next());
    table.announce(net::Ipv6Prefix(addr, 32 + i % 33), 64500u + i);
    probes.push_back(addr);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = table.lookup(probes[i++ % probes.size()]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RoutingLookup);

static void BM_NtpRoundTrip(benchmark::State& state) {
  auto request = ntp::NtpPacket::client_request(simnet::sec(100));
  for (auto _ : state) {
    auto wire = request.serialize();
    auto parsed = ntp::NtpPacket::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_NtpRoundTrip);

static void BM_CoapRoundTrip(benchmark::State& state) {
  auto request = proto::CoapMessage::well_known_core(42, 0x1234);
  for (auto _ : state) {
    auto wire = request.serialize();
    auto parsed = proto::CoapMessage::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_CoapRoundTrip);

static void BM_MqttConnectRoundTrip(benchmark::State& state) {
  proto::MqttConnect connect;
  for (auto _ : state) {
    auto wire = connect.serialize();
    auto parsed = proto::MqttConnect::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_MqttConnectRoundTrip);

static void BM_LevenshteinBounded(benchmark::State& state) {
  std::string a = "3CX Phone System Management Console";
  std::string b = "3CX Webclient Management Console v18";
  for (auto _ : state) {
    auto d = util::levenshtein_bounded(a, b, a.size() / 4);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_LevenshteinBounded);

static void BM_RngStream(benchmark::State& state) {
  constexpr std::uint64_t kSeed = 7;
  util::Rng rng(kSeed);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngStream);

// The classic hold model at the depth a kSmall study runs at (~25 k events
// pending): every iteration pops the earliest event, whose callback pushes
// one successor at now + a random delay of up to 8 s (a probe guard's
// horizon), so the depth never changes. The capture is a probe-sized one:
// a shared pointer plus two plain pointers.
struct HoldEvent {
  simnet::EventQueue* queue;
  util::Rng* rng;
  std::shared_ptr<int> state;
  void operator()() {
    auto delay = static_cast<simnet::SimDuration>(rng->below(8'000'000));
    queue->schedule_in(delay, HoldEvent{queue, rng, std::move(state)});
  }
};

static void BM_EventQueueHold(benchmark::State& state) {
  constexpr std::uint64_t kSeed = 0x401d;
  simnet::EventQueue queue;
  util::Rng rng(kSeed);
  auto shared = std::make_shared<int>(0);
  for (std::int64_t i = 0; i < state.range(0); ++i)
    queue.schedule_at(static_cast<simnet::SimTime>(rng.below(8'000'000)),
                      HoldEvent{&queue, &rng, shared});
  for (auto _ : state) queue.step();
  benchmark::DoNotOptimize(queue.pending());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(1'000)->Arg(25'000);

// The network's host table at a kSmall study's size (~16 k online hosts):
// online() is one locked lookup, as every delivery and connect makes. A
// hit finds an attached address, a miss one that never was.
static void BM_HostTableLookup(benchmark::State& state) {
  const bool hit = state.range(0) != 0;
  simnet::EventQueue events;
  simnet::Network network(events);
  constexpr std::uint64_t kSeed = 0x4057;
  util::Rng rng(kSeed);
  constexpr std::size_t kHosts = 16'000;
  std::vector<net::Ipv6Address> attached;
  std::vector<net::Ipv6Address> absent;
  for (std::size_t i = 0; i < kHosts; ++i) {
    attached.push_back(
        net::Ipv6Address::from_halves(0x2001'0db8'0000'0000ULL | (i >> 4),
                                      rng.next()));
    absent.push_back(net::Ipv6Address::from_halves(0x2a00ULL << 48, i));
    network.attach(attached.back());
  }
  const std::vector<net::Ipv6Address>& probe = hit ? attached : absent;
  std::size_t i = 0;
  std::size_t found = 0;
  for (auto _ : state) {
    found += network.online(probe[i]) ? 1 : 0;
    i = i + 1 == probe.size() ? 0 : i + 1;
  }
  benchmark::DoNotOptimize(found);
  state.SetLabel(hit ? "hit" : "miss");
}
BENCHMARK(BM_HostTableLookup)->Arg(1)->Arg(0);

// Filling an address store with N distinct addresses, one insert at a
// time as the hitlist build and the collector do. one_block puts all of
// them in one /32 (a rotating provider prefix: one fat bucket); spread
// scatters them over 1,024 /32s. Each iteration builds a fresh store.
static void BM_AddressStoreInsert(benchmark::State& state, bool one_block) {
  constexpr std::uint64_t kSeed = 0xadd5;
  util::Rng rng(kSeed);
  std::vector<net::Ipv6Address> stream;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    std::uint64_t block = 0x2001'0000ULL + (one_block ? 0 : rng.below(1024));
    stream.push_back(net::Ipv6Address::from_halves(
        block << 32 | rng.below(1 << 16), rng.next()));
  }
  for (auto _ : state) {
    net::AddressStore store;
    for (const auto& a : stream) store.insert(a);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_AddressStoreInsert, one_block, true)->Arg(100'000);
BENCHMARK_CAPTURE(BM_AddressStoreInsert, spread, false)->Arg(100'000);

// ---- obs hot-path overhead -------------------------------------------
// Every pipeline counter is one of these increments; the acceptance bar is
// that they stay in the few-nanosecond range so the always-on instruments
// cost nothing measurable at study scale.

static void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc);

static void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram hist;
  std::int64_t v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = (v * 5 + 3) % 100000000;  // walk across the buckets
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_ObsHistogramRecord);

static void BM_TracerSpan(benchmark::State& state) {
  simnet::EventQueue events;
  obs::Tracer tracer(1024);
  tracer.set_sim_clock(&events);
  for (auto _ : state) {
    auto span = tracer.span("bench");
    benchmark::DoNotOptimize(span);
  }
  benchmark::DoNotOptimize(tracer.completed());
}
BENCHMARK(BM_TracerSpan);

static void BM_TracerSpanDisabled(benchmark::State& state) {
  obs::Tracer tracer(1024);
  tracer.set_enabled(false);
  for (auto _ : state) {
    auto span = tracer.span("bench");
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_TracerSpanDisabled);

// Full-pipeline regression check: a kTiny study with the obs block off vs
// on (dispatch timing, probe spans, daily heartbeat). The acceptance bar
// is < 5% wall-clock between the two.
static void BM_TinyStudy(benchmark::State& state) {
  for (auto _ : state) {
    auto config = core::make_study_config(core::StudyScale::kTiny);
    config.obs.enabled = state.range(0) != 0;
    core::Study study(std::move(config));
    study.run();
    benchmark::DoNotOptimize(study.events_executed());
  }
}
BENCHMARK(BM_TinyStudy)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

BENCHMARK_MAIN();
