// Observability instruments: named counters, gauges and log-linear
// histograms, plus the Registry that exports them.
//
// Design: instruments are plain value types *owned by the component they
// measure* (a ScanEngine owns its probe counters), so the accessor methods
// the benches already use read the very same cell the exporters see — one
// source of truth, no drift. A Registry holds non-owning references
// enrolled under a name and a label set ("probes_launched{proto=ssh}") and
// turns them into snapshots for the heartbeat timeline and the exporters.
//
// Hot-path cost: one relaxed atomic add per counter increment; a histogram
// record adds a bit_width and a shift for the bucket index and the min/max
// updates (measured in bench/micro_benchmarks.cpp). Relaxed atomics keep the instruments
// data-race free under TSan/ASan without fences the simulator (single
// threaded) would pay for.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tts::obs {

/// Instrument labels, e.g. {{"proto","ssh"},{"dataset","ntp"}}. Enrolment
/// sorts them by key so equal label sets compare equal.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-linear histogram in the HdrHistogram style, one fixed layout for
/// every distribution. Values 0..7 get a bucket each (negative values clamp
/// into bucket 0); above that every power of two splits into 8 sub-buckets,
/// so a bucket past 8 is at most 12.5% of its lower edge wide. 488 buckets
/// cover the whole int64 range, so there is no overflow bucket.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 488;

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// The bucket that counts `v`.
  static constexpr std::size_t bucket_index(std::int64_t v) {
    if (v < 0) return 0;
    // A value of bit width w > 3 lands in sub-bucket (v >> (w - 4)) - 8 of
    // its power of two; below 8 the shift is 0 and the index is v itself.
    const auto u = static_cast<std::uint64_t>(v);
    const unsigned w = static_cast<unsigned>(std::bit_width(u));
    const unsigned shift = w > 3 ? w - 4 : 0;
    return (std::size_t{shift} << 3) + static_cast<std::size_t>(u >> shift);
  }
  /// Inclusive upper edge of bucket `i` (i < kBuckets).
  static constexpr std::int64_t bucket_upper(std::size_t i) {
    if (i < 8) return static_cast<std::int64_t>(i);
    const std::size_t shift = i / 8 - 1;
    const std::uint64_t top = i % 8 + 9;  // mantissa of the next bucket
    return static_cast<std::int64_t>((top << shift) - 1);
  }

  void record(std::int64_t v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t min() const { return min_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  /// Bucket counts up to the last non-empty bucket (empty when nothing was
  /// recorded): what snapshots and exporters carry.
  std::vector<std::uint64_t> counts() const;

  /// Approximate percentile (p in [0,1]): see bucket_percentile.
  std::int64_t percentile(double p) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};
  std::atomic<std::int64_t> max_{0};
};

/// The one percentile rule, shared by Histogram::percentile and the
/// exporters: the upper edge of the bucket that holds the sample of rank
/// p * total (at least 1), capped at the observed max. Reports 0 when
/// total is 0, and the max when the counts hold fewer than the rank.
std::int64_t bucket_percentile(std::span<const std::uint64_t> counts,
                               std::uint64_t total, std::int64_t max,
                               double p);

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
std::string_view to_string(Kind kind);

/// One exported value, decoupled from the live instrument: what a heartbeat
/// tick or exporter sees.
struct SnapshotValue {
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  // counter value / histogram sample count
  std::int64_t value = 0;   // gauge value / histogram sum
  std::int64_t min = 0, max = 0;  // histogram only
  /// Histogram only: Histogram::counts(), bucket i ending at
  /// Histogram::bucket_upper(i).
  std::vector<std::uint64_t> bucket_counts;

  /// "name{k=v,...}" (just "name" without labels).
  std::string full_name() const;
};

struct RegistrySnapshot {
  std::int64_t at = 0;  // virtual time (simnet microseconds) of the snapshot
  std::vector<SnapshotValue> values;

  /// First value whose full_name() matches, else nullptr.
  const SnapshotValue* find(std::string_view full_name) const;
};

/// Non-owning directory of instruments. Enrolment is the cold path (guarded
/// by a mutex); reads happen only in snapshot(). Components that may die
/// before the registry drop their entries by owner tag.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void enroll(const Counter& c, std::string name, Labels labels = {},
              const void* owner = nullptr);
  void enroll(const Gauge& g, std::string name, Labels labels = {},
              const void* owner = nullptr);
  void enroll(const Histogram& h, std::string name, Labels labels = {},
              const void* owner = nullptr);

  /// Remove every instrument enrolled under `owner`.
  void drop_owner(const void* owner);

  const Counter* find_counter(std::string_view name,
                              const Labels& labels = {}) const;
  const Gauge* find_gauge(std::string_view name,
                          const Labels& labels = {}) const;
  const Histogram* find_histogram(std::string_view name,
                                  const Labels& labels = {}) const;

  std::size_t size() const;

  /// Copy every instrument's current value, sorted by (name, labels) so the
  /// output is stable regardless of enrolment order. `at` stamps the
  /// snapshot with the virtual time it was taken.
  RegistrySnapshot snapshot(std::int64_t at = 0) const;

  /// Process-wide default registry for ad-hoc instrumentation; Study and
  /// tests use their own instances to stay hermetic.
  static Registry& global();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    const void* ptr;
    const void* owner;
  };

  const Entry* find_entry(std::string_view name, const Labels& labels,
                          Kind kind) const;
  void add(Kind kind, const void* ptr, std::string name, Labels labels,
           const void* owner);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace tts::obs
