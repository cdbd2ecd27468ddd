#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <array>
#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "util/format.hpp"
#include "util/levenshtein.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/task.hpp"

namespace tts::util {
namespace {

// ---------------------------------------------------------------- format

TEST(Format, GroupedMatchesPaperStyle) {
  EXPECT_EQ(grouped(std::uint64_t{0}), "0");
  EXPECT_EQ(grouped(std::uint64_t{7}), "7");
  EXPECT_EQ(grouped(std::uint64_t{999}), "999");
  EXPECT_EQ(grouped(std::uint64_t{1000}), "1 000");
  EXPECT_EQ(grouped(std::uint64_t{3040325302}), "3 040 325 302");
  EXPECT_EQ(grouped(std::int64_t{-1234567}), "-1 234 567");
}

TEST(Format, PercentAndPermille) {
  EXPECT_EQ(percent(0.284), "28.4 %");
  EXPECT_EQ(percent(1.0, 0), "100 %");
  EXPECT_EQ(permille(0.00042), "0.42‰");
}

TEST(Format, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Format, CaseHelpers) {
  EXPECT_TRUE(istarts_with("FRITZ!Box 7590", "fritz"));
  EXPECT_FALSE(istarts_with("abc", "abcd"));
  EXPECT_TRUE(icontains("Welcome to nginx!", "NGINX"));
  EXPECT_FALSE(icontains("abc", "xyz"));
  EXPECT_TRUE(icontains("anything", ""));
}

TEST(Format, Hex) {
  const std::uint8_t data[] = {0x00, 0xff, 0x1a};
  EXPECT_EQ(hex(data, 3), "00ff1a");
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NamedStreamsAreIndependent) {
  Rng root(42);
  Rng s1 = root.stream("population");
  Rng s2 = root.stream("pool");
  // Streams differ from each other and the root.
  EXPECT_NE(s1.next(), s2.next());
  // Re-derivation yields the identical stream.
  Rng s1b = root.stream("population");
  Rng s1c = root.stream("population");
  EXPECT_EQ(s1b.next(), s1c.next());
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit in 1000 draws
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, PickWeightedRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0};
  int hi = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.pick_weighted(weights) == 1) ++hi;
  EXPECT_NEAR(hi / 10000.0, 0.75, 0.03);
}

TEST(Rng, PickCumulativeBinarySearch) {
  Rng rng(19);
  std::vector<double> cumulative = {0.1, 0.1, 0.6, 1.0};  // repeated mass
  std::array<int, 4> counts{};
  for (int i = 0; i < 10000; ++i) ++counts[rng.pick_cumulative(cumulative)];
  EXPECT_NEAR(counts[0] / 10000.0, 0.1, 0.02);
  EXPECT_EQ(counts[1], 0);  // zero-mass bucket never selected
  EXPECT_NEAR(counts[2] / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(counts[3] / 10000.0, 0.4, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Zipf, RankOneDominates) {
  Rng rng(29);
  ZipfSampler zipf(100, 1.2);
  std::uint64_t rank1 = 0, rank10 = 0;
  for (int i = 0; i < 20000; ++i) {
    auto r = zipf.sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 100u);
    if (r == 1) ++rank1;
    if (r == 10) ++rank10;
  }
  // P(1)/P(10) should be about 10^1.2 ~ 15.8.
  EXPECT_GT(rank1, rank10 * 8);
}

TEST(Zipf, RejectsDegenerateParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.2), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

// ------------------------------------------------------------ levenshtein

TEST(Levenshtein, KnownDistances) {
  EXPECT_EQ(levenshtein("", ""), 0u);
  EXPECT_EQ(levenshtein("abc", ""), 3u);
  EXPECT_EQ(levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(levenshtein("FRITZ!Box 7590", "FRITZ!Box 7530"), 1u);
}

TEST(Levenshtein, MetricAxiomsHoldOnSamples) {
  const std::vector<std::string> words = {"", "a", "ab", "abc", "acb",
                                          "xbc", "FRITZ!Box", "D-LINK"};
  for (const auto& a : words) {
    for (const auto& b : words) {
      std::size_t dab = levenshtein(a, b);
      EXPECT_EQ(dab, levenshtein(b, a)) << a << " / " << b;  // symmetry
      EXPECT_EQ(dab == 0, a == b);  // identity of indiscernibles
      for (const auto& c : words) {  // triangle inequality
        EXPECT_LE(levenshtein(a, c), dab + levenshtein(b, c));
      }
    }
  }
}

TEST(Levenshtein, BoundedAgreesWithExactWithinBound) {
  const std::vector<std::string> words = {"abcdef", "abcxef", "xxxxxx",
                                          "abc", "abcdefgh"};
  for (const auto& a : words) {
    for (const auto& b : words) {
      std::size_t exact = levenshtein(a, b);
      for (std::size_t bound = 0; bound <= 8; ++bound) {
        std::size_t bounded = levenshtein_bounded(a, b, bound);
        if (exact <= bound)
          EXPECT_EQ(bounded, exact) << a << "/" << b << " bound " << bound;
        else
          EXPECT_GT(bounded, bound) << a << "/" << b << " bound " << bound;
      }
    }
  }
}

TEST(Levenshtein, NormalizedThreshold) {
  EXPECT_TRUE(within_normalized_distance("FRITZ!Box 7590", "FRITZ!Box 7530",
                                         0.25));
  EXPECT_FALSE(within_normalized_distance("FRITZ!Box", "D-LINK", 0.25));
  EXPECT_TRUE(within_normalized_distance("", "", 0.25));
}

// ------------------------------------------------------------------ stats

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 4.0, 2.0, 3.0}), 3.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(Stats, ShannonEntropyBounds) {
  std::vector<std::uint8_t> constant(64, 0xaa);
  EXPECT_DOUBLE_EQ(shannon_entropy(constant), 0.0);
  std::vector<std::uint8_t> all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<std::uint8_t>(i));
  EXPECT_NEAR(shannon_entropy(all), 8.0, 1e-9);
  EXPECT_NEAR(normalized_entropy(all), 1.0, 1e-9);
}

TEST(Stats, CounterTopK) {
  Counter<std::string> counter;
  counter.add("a", 5);
  counter.add("b", 7);
  counter.add("c");
  EXPECT_EQ(counter.total(), 13u);
  EXPECT_EQ(counter.distinct(), 3u);
  auto top = counter.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "b");
  EXPECT_EQ(top[1].first, "a");
  EXPECT_EQ(counter.count("missing"), 0u);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t("Demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  t.add_rule();
  t.add_note("note line");
  std::string out = t.to_string();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("note line"), std::string::npos);
  // Right-aligned numeric column: "22" under " 1".
  EXPECT_NE(out.find(" 1"), std::string::npos);
}

TEST(Table, HandlesRaggedRows) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.to_string());
}

// ------------------------------------------------------------------ Task

/// Counts live copies of itself: every construction, move included, adds
/// one; every destruction removes one.
struct LiveCount {
  explicit LiveCount(int* counter) : live(counter) { ++*live; }
  LiveCount(const LiveCount& other) : live(other.live) { ++*live; }
  LiveCount(LiveCount&& other) noexcept : live(other.live) { ++*live; }
  LiveCount& operator=(const LiveCount&) = delete;
  LiveCount& operator=(LiveCount&&) = delete;
  ~LiveCount() { --*live; }
  int* live;
};

TEST(Task, EmptyTestsFalse) {
  Task<void()> empty;
  EXPECT_FALSE(empty);
  Task<void()> null = nullptr;
  EXPECT_FALSE(null);
  void (*no_function)() = nullptr;
  Task<void()> from_null_pointer = no_function;
  EXPECT_FALSE(from_null_pointer);
  Task<int(int)> set = [](int x) { return x + 1; };
  EXPECT_TRUE(set);
  set = nullptr;
  EXPECT_FALSE(set);
}

TEST(Task, InlineCaptureRunsAndForwardsArguments) {
  int base = 40;
  auto fn = [base](int x) { return base + x; };
  static_assert(Task<int(int)>::fits_inline<decltype(fn)>());
  Task<int(int)> add = fn;
  EXPECT_EQ(add(2), 42);
  // Arguments are forwarded, not copied: a move-only one goes through.
  Task<int(std::unique_ptr<int>)> take = [](std::unique_ptr<int> p) {
    return *p;
  };
  EXPECT_EQ(take(std::make_unique<int>(7)), 7);
}

TEST(Task, HeapFallbackCaptureRuns) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes: past the inline buffer
  big[15] = 99;
  auto fn = [big] { return big[15]; };
  static_assert(!Task<std::uint64_t()>::fits_inline<decltype(fn)>());
  Task<std::uint64_t()> task = fn;
  Task<std::uint64_t()> moved = std::move(task);
  EXPECT_FALSE(task);  // a moved-from Task is empty
  EXPECT_EQ(moved(), 99u);
}

TEST(Task, HoldsMoveOnlyCaptures) {
  auto owned = std::make_unique<std::string>("payload");
  Task<std::string()> task = [p = std::move(owned)] { return *p; };
  Task<std::string()> other;
  other = std::move(task);
  EXPECT_EQ(other(), "payload");
  // A Task can carry another Task.
  Task<std::string()> outer = [inner = std::move(other)]() mutable {
    return inner() + "!";
  };
  EXPECT_EQ(outer(), "payload!");
}

TEST(Task, EachCaptureIsDestroyedExactlyOnce) {
  int live = 0;
  {
    std::array<std::uint64_t, 16> pad{};
    Task<int()> small = [c = LiveCount(&live)] { return *c.live; };
    Task<int()> large = [c = LiveCount(&live), pad] {
      return *c.live + static_cast<int>(pad[0]);
    };
    EXPECT_EQ(live, 2);
    Task<int()> a = std::move(small);
    Task<int()> b = std::move(large);
    EXPECT_EQ(live, 2);  // moves relocate, they never duplicate
    a = std::move(b);    // a's old capture dies, b's moves in
    EXPECT_EQ(live, 1);
    Task<int()>& alias = a;
    a = std::move(alias);  // self-move leaves the capture alone
    EXPECT_EQ(live, 1);
    EXPECT_EQ(a(), 1);
    a.reset();
    EXPECT_EQ(live, 0);
    a.reset();  // idempotent
    Task<int()> c = [l = LiveCount(&live)] { return 0; };
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);  // destruction releases what was still held
}

TEST(Task, CallbackMayDestroyItsOwner) {
  struct Owner {
    Task<void()> task;
    int* destroyed;
    ~Owner() { ++*destroyed; }
  };
  int destroyed = 0;
  // The callback deletes the object holding it, inline capture and all,
  // and touches nothing of its own afterwards.
  auto* owner = new Owner{nullptr, &destroyed};
  owner->task = [owner] { delete owner; };
  owner->task();
  EXPECT_EQ(destroyed, 1);

  // The usual pattern: move the Task out, then call the local copy, which
  // may use its captures after the owner is gone.
  int live = 0;
  auto* second = new Owner{nullptr, &destroyed};
  second->task = [second, c = LiveCount(&live)] {
    delete second;
    EXPECT_EQ(*c.live, 1);
  };
  Task<void()> local = std::move(second->task);
  local();
  EXPECT_EQ(destroyed, 2);
  local.reset();
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace tts::util
