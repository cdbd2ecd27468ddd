// Parameterised property sweeps (TEST_P) over the invariants the analyses
// rely on: IID classification boundaries, Levenshtein threshold geometry,
// NTP timestamp conversion across the whole study window, CoAP option
// encoding around its length boundaries, device-catalogue sanity, the
// sharded event queue's conservative-barrier safety property and window
// bookkeeping, the event heap's pop order against a reference queue, and
// the flat host table against an ordered-map model.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "analysis/iid_classes.hpp"
#include "inet/device.hpp"
#include "net/ipv6.hpp"
#include "ntp/ntp_packet.hpp"
#include "obs/metrics.hpp"
#include "proto/coap.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "util/flat_map.hpp"
#include "util/levenshtein.hpp"
#include "util/rng.hpp"

namespace tts {
namespace {

// ------------------------------------------------- IID class boundaries

struct IidCase {
  std::uint64_t iid;
  analysis::IidClass expected;
};

class IidBoundary : public ::testing::TestWithParam<IidCase> {};

TEST_P(IidBoundary, ClassifiesExactly) {
  auto addr =
      net::Ipv6Address::from_halves(0x2400000100000000ULL, GetParam().iid);
  EXPECT_EQ(analysis::classify_iid(addr), GetParam().expected)
      << std::hex << GetParam().iid;
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, IidBoundary,
    ::testing::Values(
        IidCase{0x0, analysis::IidClass::kZero},
        IidCase{0x1, analysis::IidClass::kLastByte},
        IidCase{0xff, analysis::IidClass::kLastByte},
        IidCase{0x100, analysis::IidClass::kLastTwoBytes},
        IidCase{0xffff, analysis::IidClass::kLastTwoBytes},
        // 0x10000 is past the structured range: entropy path. Seven zero
        // bytes + one set byte -> low entropy.
        IidCase{0x10000, analysis::IidClass::kEntropyLow},
        // EUI-64 marker beats entropy regardless of surrounding bytes.
        IidCase{0x021a4ffffe000001ULL, analysis::IidClass::kEui64},
        IidCase{0xfffffffffe123456ULL, analysis::IidClass::kEui64},
        // Fully random-looking: all-distinct bytes -> high entropy.
        IidCase{0x0123456789abcdefULL, analysis::IidClass::kEntropyHigh}));

// -------------------------------------- Levenshtein threshold geometry

struct ThresholdCase {
  const char* a;
  const char* b;
  double threshold;
  bool within;
};

class LevenshteinThreshold
    : public ::testing::TestWithParam<ThresholdCase> {};

TEST_P(LevenshteinThreshold, MatchesExactComputation) {
  const auto& p = GetParam();
  EXPECT_EQ(util::within_normalized_distance(p.a, p.b, p.threshold),
            p.within)
      << p.a << " vs " << p.b;
  // The predicate must agree with the exact normalised distance.
  double exact = util::normalized_levenshtein(p.a, p.b);
  EXPECT_EQ(exact <= p.threshold + 1e-12 ||
                util::within_normalized_distance(p.a, p.b, p.threshold) ==
                    (exact <= p.threshold),
            true);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LevenshteinThreshold,
    ::testing::Values(
        // The paper's 0.25 threshold on typical title pairs.
        ThresholdCase{"FRITZ!Box 7590", "FRITZ!Box 7530", 0.25, true},
        ThresholdCase{"FRITZ!Box", "FRITZ!Repeater 6000", 0.25, false},
        ThresholdCase{"3CX Webclient", "3CX Phone System Mgmt.", 0.25,
                      false},
        ThresholdCase{"abcd", "abce", 0.25, true},   // 1/4 edit
        ThresholdCase{"abcd", "abef", 0.25, false},  // 2/4 edits
        ThresholdCase{"", "", 0.25, true},
        ThresholdCase{"x", "", 1.0, true},
        ThresholdCase{"x", "y", 0.99, false}));

// --------------------------------------- NTP timestamps across the window

class NtpTimestampSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(NtpTimestampSweep, RoundTripsWithinQuantum) {
  simnet::SimTime t = GetParam();
  auto ts = ntp::to_ntp_time(t);
  simnet::SimTime back = ntp::from_ntp_time(ts);
  EXPECT_NEAR(static_cast<double>(back), static_cast<double>(t), 1.0);
  // Monotonicity: one microsecond later never maps earlier.
  auto ts2 = ntp::to_ntp_time(t + 1);
  EXPECT_GE(ts2.to_u64(), ts.to_u64());
}

INSTANTIATE_TEST_SUITE_P(
    StudyWindow, NtpTimestampSweep,
    ::testing::Values(simnet::SimTime{0}, simnet::usec(1), simnet::sec(1),
                      simnet::minutes(90), simnet::hours(13),
                      simnet::days(1), simnet::days(7), simnet::days(28),
                      simnet::days(28) + simnet::usec(999999)));

// ----------------------------------- CoAP option length boundary encoding

class CoapSegmentLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CoapSegmentLength, RoundTripsAtBoundary) {
  // Option lengths 12/13/14 cross the extended-length encoding boundary.
  std::string segment(GetParam(), 's');
  proto::CoapMessage msg;
  msg.code = proto::kCoapGet;
  msg.message_id = 9;
  msg.uri_path = {segment, "x"};
  auto parsed = proto::CoapMessage::parse(msg.serialize());
  ASSERT_TRUE(parsed) << GetParam();
  ASSERT_EQ(parsed->uri_path.size(), 2u);
  EXPECT_EQ(parsed->uri_path[0], segment);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, CoapSegmentLength,
                         ::testing::Values(1, 11, 12, 13, 14, 20, 60));

// ----------------------------------------------- catalogue sanity sweeps

class CatalogueEntry : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CatalogueEntry, ProbabilitiesAndWeightsAreSane) {
  const auto& p = inet::device_catalogue().at(GetParam());
  SCOPED_TRACE(p.model);

  auto prob = [&](double v) { EXPECT_GE(v, 0.0); EXPECT_LE(v, 1.0); };
  EXPECT_GT(p.weight, 0.0);
  prob(p.http.enabled);
  prob(p.http.tls);
  prob(p.ssh.enabled);
  prob(p.ssh.outdated);
  prob(p.mqtt.enabled);
  prob(p.mqtt.tls);
  prob(p.mqtt.auth);
  prob(p.amqp.enabled);
  prob(p.amqp.tls);
  prob(p.amqp.auth);
  prob(p.coap.enabled);
  prob(p.ntp.uses_pool);
  prob(p.addr.vendor_mac);
  prob(p.addr.unlisted_oui);
  prob(p.addr.daily_prefix_change);
  prob(p.addr.daily_iid_change);
  prob(p.disc.dns);
  prob(p.disc.traceroute);
  EXPECT_GT(p.ntp.mean_interval_hours, 0.0);
  EXPECT_FALSE(p.model.empty());

  // EUI-64 devices that claim vendor MACs must offer candidate OUIs.
  if (p.addr.iid == inet::IidMode::kEui64 && p.addr.vendor_mac > 0 &&
      p.addr.unlisted_oui < 1.0) {
    EXPECT_FALSE(p.addr.ouis.empty());
  }
  // SSH-bearing profiles must reference a real lineage.
  if (p.ssh.enabled > 0) {
    EXPECT_FALSE(inet::ssh_version_lineage(p.ssh.os).empty());
  }
  // Country multipliers are non-negative.
  for (const auto& [code, mult] : p.country_mult) EXPECT_GE(mult, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, CatalogueEntry,
    ::testing::Range<std::size_t>(0, tts::inet::device_catalogue().size()));

// --------------------------------------- conservative barrier safety

// A randomized cross-domain message mesh on a raw sharded EventQueue.
// Chains of events hop between domains with latencies drawn from
// per-domain streams; every hop folds (domain clock, token, depth) into a
// per-domain accumulator. acc[d] and rngs[d] are touched only from events
// executing on domain d — domain-owned state, so the fold order is the
// domain's deterministic intra-domain execution order and the combined
// digest is a pure function of simulation content, never of thread
// interleaving or shard count.
constexpr simnet::SimDuration kMeshLookahead = simnet::msec(5);
constexpr simnet::DomainId kMeshDomains = 5;
constexpr int kMeshChains = 3;
constexpr int kMeshHops = 60;

struct MeshRun {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t windows = 0;
  std::uint64_t violations = 0;
};

MeshRun run_mesh(std::uint32_t shards, std::uint32_t workers,
                 simnet::SimDuration delay_floor, std::uint64_t seed) {
  simnet::EventQueue queue;
  simnet::ShardPlan plan;
  plan.shards = shards;
  plan.workers = workers;
  plan.lookahead = kMeshLookahead;
  queue.configure_shards(plan, kMeshDomains);

  std::vector<std::uint64_t> acc(kMeshDomains, 0);
  std::vector<util::Rng> rngs;
  for (simnet::DomainId d = 0; d < kMeshDomains; ++d)
    rngs.push_back(util::Rng(seed).stream("barrier-mesh").stream(d));

  std::function<void(simnet::DomainId, std::uint64_t, int)> hop =
      [&](simnet::DomainId d, std::uint64_t token, int depth) {
        simnet::SimTime now = queue.now();
        std::uint64_t& a = acc[d];
        a ^= token + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2);
        a = (a ^ (static_cast<std::uint64_t>(now) + depth)) *
            0x100000001b3ULL;
        if (depth >= kMeshHops) return;
        util::Rng& rng = rngs[d];
        auto next = static_cast<simnet::DomainId>(rng.below(kMeshDomains));
        auto jitter = static_cast<simnet::SimDuration>(
            rng.below(static_cast<std::uint64_t>(4 * kMeshLookahead)));
        std::uint64_t tok = token * 0xbf58476d1ce4e5b9ULL ^ next;
        queue.schedule_on(next, now + delay_floor + jitter, 0,
                          [&hop, next, tok, depth] {
                            hop(next, tok, depth + 1);
                          });
      };

  // Pre-run seeding (before the first window opens) is exempt from the
  // lookahead contract, so chains may start anywhere, on any domain.
  for (simnet::DomainId d = 0; d < kMeshDomains; ++d)
    for (int c = 0; c < kMeshChains; ++c)
      queue.schedule_on(d, /*at=*/c + 1, 0, [&hop, d, c, seed] {
        hop(d, seed ^ (d * 1000003ULL + c), 0);
      });
  queue.run();

  MeshRun out;
  for (simnet::DomainId d = 0; d < kMeshDomains; ++d)
    out.digest = (out.digest ^ acc[d]) * 0x100000001b3ULL;
  out.executed = queue.executed();
  out.windows = queue.shard_windows();
  out.violations = queue.shard_violations();
  return out;
}

// Every chain runs exactly kMeshHops + 1 events regardless of latencies.
constexpr std::uint64_t kMeshEvents =
    std::uint64_t{kMeshDomains} * kMeshChains * (kMeshHops + 1);

struct MeshConfig {
  std::uint32_t shards;
  std::uint32_t workers;
};

class BarrierMesh : public ::testing::TestWithParam<MeshConfig> {};

TEST_P(BarrierMesh, HonouredLookaheadMeansNoViolationsAndOneDigest) {
  const auto& p = GetParam();
  // Reference: the same mesh on a single windowed shard.
  MeshRun ref = run_mesh(1, 0, kMeshLookahead, 0xfeedULL);
  MeshRun run = run_mesh(p.shards, p.workers, kMeshLookahead, 0xfeedULL);

  EXPECT_EQ(run.executed, kMeshEvents);
  EXPECT_EQ(run.digest, ref.digest);
  EXPECT_EQ(run.windows, ref.windows);
  // Conservative safety: with every cross-domain delay >= the lookahead,
  // no event may ever land inside an already-committed window.
  EXPECT_EQ(run.violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(ShardSweep, BarrierMesh,
                         ::testing::Values(MeshConfig{1, 0},
                                           MeshConfig{2, 2},
                                           MeshConfig{3, 2},
                                           MeshConfig{4, 2},
                                           MeshConfig{5, 2}));

// The mesh over many sparse domains, aimed at the window bookkeeping: of
// ~200 domains only the few on a live chain have work at any time. Hops
// queue barrier commits, which append to a driver-side log and sometimes
// carry the chain on from domain 0; the run advances in bounded run_until
// segments, and the driver seeds a fresh chain between them. Dispatch
// timing is on, so handed-off windows record barrier stalls.
constexpr simnet::DomainId kSparseDomains = 203;
constexpr int kSparseHops = 40;
constexpr int kSparseSegments = 12;
constexpr simnet::SimDuration kSparseSegment = simnet::msec(60);
constexpr int kSparseFirstChains = 3;

struct SparseRun {
  MeshRun mesh;
  std::vector<std::uint64_t> commits;
  simnet::SimTime end = 0;
  std::size_t pending = 0;
  std::uint64_t stalls = 0;  // barrier-stall samples
};

SparseRun run_sparse_mesh(std::uint32_t shards, std::uint32_t workers,
                          std::uint64_t seed) {
  obs::Registry registry;  // outlives the queue enrolled in it
  simnet::EventQueue queue;
  queue.attach_metrics(registry);
  simnet::ShardPlan plan;
  plan.shards = shards;
  plan.workers = workers;
  plan.lookahead = kMeshLookahead;
  queue.configure_shards(plan, kSparseDomains);

  SparseRun out;
  std::vector<std::uint64_t> acc(kSparseDomains, 0);
  std::vector<util::Rng> rngs;
  for (simnet::DomainId d = 0; d < kSparseDomains; ++d)
    rngs.push_back(util::Rng(seed).stream("sparse-mesh").stream(d));
  util::Rng driver = util::Rng(seed).stream("sparse-driver");

  std::function<void(simnet::DomainId, std::uint64_t, int)> hop =
      [&](simnet::DomainId d, std::uint64_t token, int depth) {
        simnet::SimTime now = queue.now();
        std::uint64_t& a = acc[d];
        a ^= token + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2);
        a = (a ^ (static_cast<std::uint64_t>(now) + depth)) *
            0x100000001b3ULL;
        if (depth >= kSparseHops) return;
        util::Rng& rng = rngs[d];
        std::uint64_t tok = token * 0xbf58476d1ce4e5b9ULL ^ d;
        if (rng.chance(0.2)) {
          // Two commits from this domain. The second carries the chain on
          // from domain 0 and sends one last cross-domain hop 10 s on, well
          // past the chains' work, through the driver's inbox list.
          queue.run_at_barrier([&out, d, tok] { out.commits.push_back(tok ^ d); });
          queue.run_at_barrier([&, tok, depth] {
            simnet::SimTime at = queue.now();
            out.commits.push_back((tok << 1) ^ static_cast<std::uint64_t>(at));
            queue.schedule_on(0, at + kMeshLookahead, 0,
                              [&hop, tok, depth] { hop(0, tok, depth + 1); });
            auto far = static_cast<simnet::DomainId>(tok % kSparseDomains);
            queue.schedule_on(far, at + simnet::sec(10), 0, [&hop, far, tok] {
              hop(far, ~tok, kSparseHops);
            });
          });
          return;
        }
        auto next = static_cast<simnet::DomainId>(rng.below(kSparseDomains));
        auto jitter = static_cast<simnet::SimDuration>(
            rng.below(static_cast<std::uint64_t>(4 * kMeshLookahead)));
        queue.schedule_on(next, now + kMeshLookahead + jitter, 0,
                          [&hop, next, tok, depth] {
                            hop(next, tok, depth + 1);
                          });
      };
  auto seed_chain = [&](simnet::SimTime at) {
    auto d = static_cast<simnet::DomainId>(driver.below(kSparseDomains));
    std::uint64_t tok = driver.next();
    queue.schedule_on(d, at, 0, [&hop, d, tok] { hop(d, tok, 0); });
  };

  for (int c = 0; c < kSparseFirstChains; ++c) seed_chain(/*at=*/c + 1);
  for (int s = 1; s <= kSparseSegments; ++s) {
    queue.run_until(s * kSparseSegment);
    seed_chain(queue.now() + 1 +
               static_cast<simnet::SimDuration>(driver.below(
                   static_cast<std::uint64_t>(kSparseSegment))));
  }
  queue.run();

  for (simnet::DomainId d = 0; d < kSparseDomains; ++d)
    out.mesh.digest = (out.mesh.digest ^ acc[d]) * 0x100000001b3ULL;
  out.mesh.executed = queue.executed();
  out.mesh.windows = queue.shard_windows();
  out.mesh.violations = queue.shard_violations();
  out.end = queue.now();
  out.pending = queue.pending();
  out.stalls = queue.barrier_stall_ns().count();
  return out;
}

class SparseMesh : public ::testing::TestWithParam<MeshConfig> {};

TEST_P(SparseMesh, WindowBookkeepingMatchesOneShard) {
  const auto& p = GetParam();
  SparseRun ref = run_sparse_mesh(1, 0, 0x5a17ULL);
  SparseRun run = run_sparse_mesh(p.shards, p.workers, 0x5a17ULL);

  // Every chain runs kSparseHops + 1 hops, and every commit pair adds one
  // far hop: nothing is lost in an unlisted inbox or a stale entry.
  constexpr std::uint64_t kChains = kSparseFirstChains + kSparseSegments;
  EXPECT_GT(ref.commits.size(), 10u);
  EXPECT_EQ(ref.mesh.executed,
            kChains * (kSparseHops + 1) + ref.commits.size() / 2);
  EXPECT_EQ(ref.pending, 0u);

  EXPECT_EQ(run.mesh.digest, ref.mesh.digest);
  EXPECT_EQ(run.mesh.executed, ref.mesh.executed);
  EXPECT_EQ(run.mesh.windows, ref.mesh.windows);
  EXPECT_EQ(run.commits, ref.commits);
  EXPECT_EQ(run.end, ref.end);
  EXPECT_EQ(run.mesh.violations, 0u);
  // Only windows handed to two or more executors wait at the barrier.
  const bool hands_off = p.shards > 1 && p.workers != 1;
  EXPECT_EQ(run.stalls > 0, hands_off);
}

INSTANTIATE_TEST_SUITE_P(ShardSweep, SparseMesh,
                         ::testing::Values(MeshConfig{1, 0},
                                           MeshConfig{2, 2},
                                           MeshConfig{4, 1},
                                           MeshConfig{4, 4},
                                           MeshConfig{7, 3}));

TEST(BarrierSafety, UndercutLookaheadIsCountedAndClamped) {
  // Latencies drawn below the configured lookahead: cross-domain events
  // land in committed windows. The queue must count every undercut and
  // clamp it forward — never drop it (all chains still run to depth).
  MeshRun run = run_mesh(4, 2, /*delay_floor=*/0, 0xfeedULL);
  EXPECT_GT(run.violations, 0u);
  EXPECT_EQ(run.executed, kMeshEvents);
}

// WILL_FAIL fixture (registered with --gtest_also_run_disabled_tests and
// WILL_FAIL TRUE in tests/CMakeLists.txt): asserts the *unsound* claim
// that an undercut lookahead is still violation-free. It must keep
// failing — if it ever passes, the violation detector has gone blind.
TEST(BarrierSafetyWillFail, DISABLED_ShortLookaheadHasNoViolations) {
  MeshRun run = run_mesh(4, 2, /*delay_floor=*/0, 0xfeedULL);
  EXPECT_EQ(run.violations, 0u);
}

// ------------------------------------------- event heap vs reference order

/// A seeded event tree: each event's children (time offset, count) are a
/// pure function of its id, so the queue under test and the reference
/// queue run the same script. Offsets are mostly 0-2 us, some negative
/// (clamped to now): long runs of equal timestamps, nested schedules from
/// inside callbacks, and a slab whose slots are reused all the time.
///
/// A far script also draws minutes-to-hours delays and short hops, both
/// rounded up to a 10 s grid: the long ones park beyond the queue's near
/// horizon, the short ones land on the same grid points from near, so
/// events parked far share their time with events pushed near later.
struct EventScript {
  std::uint64_t seed;
  std::size_t budget;  // events scheduled in total, roots included
  bool far = false;

  static constexpr simnet::SimDuration kGrid = simnet::sec(10);

  struct Child {
    simnet::SimDuration offset;
    std::uint64_t id;
    bool on_grid = false;
    /// The child's time when scheduled at `now` (the queue clamps it).
    simnet::SimTime at(simnet::SimTime now) const {
      simnet::SimTime t = now + offset;
      return on_grid ? (t + kGrid - 1) / kGrid * kGrid : t;
    }
  };
  std::vector<Child> children(std::uint64_t id) const {
    util::Rng rng(seed ^ (id * 0x9e3779b97f4a7c15ULL));
    std::vector<Child> out;
    for (std::uint64_t k = 0, n = rng.below(3); k < n; ++k) {
      auto offset = static_cast<simnet::SimDuration>(rng.below(4)) - 1;
      if (rng.below(3) == 0) offset = 0;
      Child child{offset, id * 4 + k + 1};
      if (far) {
        switch (rng.below(4)) {
          case 0:  // parked: 1 min to 3 h out
            child.offset = simnet::minutes(1) +
                           static_cast<simnet::SimDuration>(
                               rng.below(simnet::hours(3)));
            child.on_grid = true;
            break;
          case 1:  // a near hop onto the next grid point
            child.offset = static_cast<simnet::SimDuration>(
                rng.below(simnet::sec(30)));
            child.on_grid = true;
            break;
          default:
            break;
        }
      }
      out.push_back(child);
    }
    return out;
  }
  simnet::SimTime root_at(std::uint64_t root) const {
    return static_cast<simnet::SimTime>(
        util::Rng(seed + root).below(20));
  }
};

/// What one script run popped, and what the reference says it should.
struct ScriptRun {
  std::vector<std::uint64_t> ran;
  std::vector<std::uint64_t> expected;
  std::size_t scheduled = 0;
  std::uint64_t executed = 0;
  /// Events scheduled within a minute of the last pop at a time some
  /// event scheduled beyond that minute already holds.
  std::size_t near_meets_far = 0;
};

ScriptRun run_script(const EventScript& script) {
  constexpr std::uint64_t kRoots = 400;
  ScriptRun out;

  // The queue under test.
  simnet::EventQueue queue;
  std::function<void(std::uint64_t)> run_event = [&](std::uint64_t id) {
    out.ran.push_back(id);
    for (const EventScript::Child& child : script.children(id)) {
      if (out.scheduled == script.budget) return;
      ++out.scheduled;
      queue.schedule_at(child.at(queue.now()),
                        [&run_event, c = child.id] { run_event(c); });
    }
  };
  for (std::uint64_t r = 0; r < kRoots; ++r) {
    ++out.scheduled;
    queue.schedule_at(script.root_at(r),
                      [&run_event, r] { run_event(r << 40); });
  }
  queue.run();
  out.executed = queue.executed();

  // The reference: an ordered set on (at, schedule order).
  std::set<std::tuple<simnet::SimTime, std::uint64_t, std::uint64_t>> ref;
  std::set<simnet::SimTime> far_times;
  std::uint64_t seq = 0;
  simnet::SimTime now = 0;
  std::size_t ref_scheduled = 0;
  auto schedule = [&](simnet::SimTime at, std::uint64_t id) {
    ++ref_scheduled;
    at = std::max(at, now);
    if (at > now + simnet::minutes(1))
      far_times.insert(at);
    else
      out.near_meets_far += far_times.count(at);
    ref.emplace(at, seq++, id);
  };
  for (std::uint64_t r = 0; r < kRoots; ++r)
    schedule(script.root_at(r), r << 40);
  while (!ref.empty()) {
    auto [at, s, id] = *ref.begin();
    ref.erase(ref.begin());
    now = at;
    out.expected.push_back(id);
    for (const EventScript::Child& child : script.children(id)) {
      if (ref_scheduled == script.budget) break;
      schedule(child.at(now), child.id);
    }
  }
  return out;
}

class EventOrderSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventOrderSweep, PopsInReferenceOrderAcrossSlotReuse) {
  const EventScript script{GetParam(), 30000};
  ScriptRun run = run_script(script);
  EXPECT_EQ(run.scheduled, script.budget);  // the script really ran long
  ASSERT_EQ(run.ran.size(), run.expected.size());
  EXPECT_EQ(run.ran, run.expected);
  EXPECT_EQ(run.executed, run.expected.size());
}

TEST_P(EventOrderSweep, PopsInReferenceOrderAcrossTheNearHorizon) {
  const EventScript script{GetParam(), 30000, /*far=*/true};
  ScriptRun run = run_script(script);
  EXPECT_EQ(run.scheduled, script.budget);
  EXPECT_GT(run.near_meets_far, 100u);  // the tiers really share times
  ASSERT_EQ(run.ran.size(), run.expected.size());
  EXPECT_EQ(run.ran, run.expected);
  EXPECT_EQ(run.executed, run.expected.size());
}

// The heap key packs the sending domain into 16 bits: a queue that could
// not order its domains refuses to split instead.
TEST(EventOrderLimits, DomainsBeyondTheKeyWidthAreRejected) {
  simnet::EventQueue queue;
  simnet::ShardPlan plan;
  plan.shards = 1;
  plan.lookahead = 1;
  const simnet::DomainId too_many = simnet::EventQueue::kMaxDomains + 1;
  EXPECT_THROW(queue.configure_shards(plan, too_many), std::invalid_argument);
  EXPECT_FALSE(queue.sharded());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderSweep,
                         ::testing::Values(1ULL, 0xe4e47ULL,
                                           0x5eed5eedULL));

// ------------------------------------------- flat host table vs map model

/// A hash with a handful of values, one of them the table's last slot at
/// every size: heavy collisions, and clusters that wrap around the end of
/// the slot array, so backward-shift erase crosses the wrap.
struct CrowdedHash {
  std::size_t operator()(const net::Ipv6Address& a) const {
    std::uint64_t v = a.lo64() % 5;
    return v == 0 ? ~std::size_t{0} : static_cast<std::size_t>(v * 7);
  }
};

/// The value side of a host entry: an attach count and bound ports.
struct ModelHost {
  std::uint32_t refs = 0;
  std::set<std::uint16_t> ports;
  bool idle() const { return refs == 0 && ports.empty(); }
  friend bool operator==(const ModelHost&, const ModelHost&) = default;
};

TEST(FlatHostTable, MatchesMapModelUnderCollisionsAndWrapAround) {
  util::FlatMap<net::Ipv6Address, ModelHost, CrowdedHash> table;
  std::map<net::Ipv6Address, ModelHost> model;
  util::Rng rng(0x7ab1e);
  std::vector<net::Ipv6Address> keys;
  for (std::uint64_t i = 0; i < 96; ++i)
    keys.push_back(net::Ipv6Address::from_halves(0x20010db8ULL << 32, i));
  std::size_t peak = 0;
  for (int step = 0; step < 40000; ++step) {
    const net::Ipv6Address& key = keys[rng.below(keys.size())];
    auto port = static_cast<std::uint16_t>(rng.below(3));
    switch (rng.below(4)) {
      case 0:  // attach
        ++table[key].refs;
        ++model[key].refs;
        break;
      case 1: {  // detach: the last claim drops the entry, bindings too
        ModelHost* host = table.find(key);
        auto it = model.find(key);
        ASSERT_EQ(host != nullptr, it != model.end());
        if (!host || host->refs == 0) break;
        --it->second.refs;
        if (--host->refs == 0) {
          EXPECT_TRUE(table.erase(key));
          model.erase(it);
        }
        break;
      }
      case 2:  // bind
        table[key].ports.insert(port);
        model[key].ports.insert(port);
        break;
      case 3: {  // unbind: an idle entry vanishes
        ModelHost* host = table.find(key);
        auto it = model.find(key);
        ASSERT_EQ(host != nullptr, it != model.end());
        if (!host) break;
        host->ports.erase(port);
        it->second.ports.erase(port);
        if (host->idle()) {
          EXPECT_TRUE(table.erase(key));
          model.erase(it);
        }
        break;
      }
    }
    peak = std::max(peak, table.size());
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
    ASSERT_LE(2 * table.size(), table.slot_count());
    if (step % 97 == 0) {
      for (const net::Ipv6Address& k : keys) {
        const ModelHost* got = table.find(k);
        auto it = model.find(k);
        ASSERT_EQ(got != nullptr, it != model.end()) << k.to_string();
        if (got) {
          EXPECT_EQ(*got, it->second) << k.to_string();
        }
      }
    }
  }
  EXPECT_GT(peak, 32u);  // the table grew through several sizes
  EXPECT_FALSE(table.erase(net::Ipv6Address::from_halves(1, 1)));
}

TEST(FlatHostTable, NetworkLifecycleMatchesModel) {
  simnet::EventQueue events;
  simnet::Network network(events);
  std::map<net::Ipv6Address, ModelHost> model;
  util::Rng rng(0x5e7);
  auto online_in_model = [&model] {
    std::size_t n = 0;
    for (const auto& [addr, host] : model) n += host.refs > 0;
    return n;
  };
  for (int step = 0; step < 20000; ++step) {
    auto addr = net::Ipv6Address::from_halves(0x2a00ULL << 48,
                                              rng.below(300));
    auto port = static_cast<std::uint16_t>(1 + rng.below(2));
    switch (rng.below(4)) {
      case 0:
        network.attach(addr);
        ++model[addr].refs;
        break;
      case 1: {
        network.detach(addr);
        auto it = model.find(addr);
        if (it != model.end() && it->second.refs > 0 &&
            --it->second.refs == 0)
          model.erase(it);
        break;
      }
      case 2:
        network.bind_udp({addr, port}, [](const simnet::Datagram&) {});
        model[addr].ports.insert(port);
        break;
      case 3: {
        network.unbind_udp({addr, port});
        auto it = model.find(addr);
        if (it == model.end()) break;
        it->second.ports.erase(port);
        if (it->second.idle()) model.erase(it);
        break;
      }
    }
    auto it = model.find(addr);
    ASSERT_EQ(network.online(addr), it != model.end() && it->second.refs > 0)
        << "step " << step;
    if (step % 101 == 0) {
      ASSERT_EQ(network.online_count(), online_in_model());
    }
  }
}

}  // namespace
}  // namespace tts
