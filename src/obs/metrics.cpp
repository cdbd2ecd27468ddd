#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>

namespace tts::obs {

namespace {

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

bool labels_equal(const Labels& a, const Labels& b) { return a == b; }

}  // namespace

// ------------------------------------------------------------- Histogram

Histogram::Histogram() {
  min_.store(std::numeric_limits<std::int64_t>::max(),
             std::memory_order_relaxed);
  max_.store(std::numeric_limits<std::int64_t>::min(),
             std::memory_order_relaxed);
}

void Histogram::record(std::int64_t v) {
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::int64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    std::uint64_t n = bucket_count(i);
    if (n == 0) continue;
    out.resize(i + 1);
    out[i] = n;
  }
  return out;
}

std::int64_t Histogram::percentile(double p) const {
  return bucket_percentile(counts(), count(), max(), p);
}

std::int64_t bucket_percentile(std::span<const std::uint64_t> counts,
                               std::uint64_t total, std::int64_t max,
                               double p) {
  if (total == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  auto rank = static_cast<std::uint64_t>(p * static_cast<double>(total));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (cum >= rank) return std::min(Histogram::bucket_upper(i), max);
  }
  return max;
}

// ------------------------------------------------------------------ misc

std::string_view to_string(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

std::string SnapshotValue::full_name() const {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

const SnapshotValue* RegistrySnapshot::find(std::string_view full_name) const {
  for (const auto& v : values)
    if (v.full_name() == full_name) return &v;
  return nullptr;
}

// -------------------------------------------------------------- Registry

void Registry::add(Kind kind, const void* ptr, std::string name,
                   Labels labels, const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(
      Entry{std::move(name), sorted(std::move(labels)), kind, ptr, owner});
}

void Registry::enroll(const Counter& c, std::string name, Labels labels,
                      const void* owner) {
  add(Kind::kCounter, &c, std::move(name), std::move(labels), owner);
}

void Registry::enroll(const Gauge& g, std::string name, Labels labels,
                      const void* owner) {
  add(Kind::kGauge, &g, std::move(name), std::move(labels), owner);
}

void Registry::enroll(const Histogram& h, std::string name, Labels labels,
                      const void* owner) {
  add(Kind::kHistogram, &h, std::move(name), std::move(labels), owner);
}

void Registry::drop_owner(const void* owner) {
  if (!owner) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(entries_,
                [owner](const Entry& e) { return e.owner == owner; });
}

const Registry::Entry* Registry::find_entry(std::string_view name,
                                            const Labels& labels,
                                            Kind kind) const {
  Labels want = sorted(labels);
  for (const auto& e : entries_)
    if (e.kind == kind && e.name == name && labels_equal(e.labels, want))
      return &e;
  return nullptr;
}

const Counter* Registry::find_counter(std::string_view name,
                                      const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find_entry(name, labels, Kind::kCounter);
  return e ? static_cast<const Counter*>(e->ptr) : nullptr;
}

const Gauge* Registry::find_gauge(std::string_view name,
                                  const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find_entry(name, labels, Kind::kGauge);
  return e ? static_cast<const Gauge*>(e->ptr) : nullptr;
}

const Histogram* Registry::find_histogram(std::string_view name,
                                          const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find_entry(name, labels, Kind::kHistogram);
  return e ? static_cast<const Histogram*>(e->ptr) : nullptr;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

RegistrySnapshot Registry::snapshot(std::int64_t at) const {
  RegistrySnapshot snap;
  snap.at = at;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.values.reserve(entries_.size());
    for (const auto& e : entries_) {
      SnapshotValue v;
      v.name = e.name;
      v.labels = e.labels;
      v.kind = e.kind;
      switch (e.kind) {
        case Kind::kCounter:
          v.count = static_cast<const Counter*>(e.ptr)->value();
          break;
        case Kind::kGauge:
          v.value = static_cast<const Gauge*>(e.ptr)->value();
          break;
        case Kind::kHistogram: {
          const auto* h = static_cast<const Histogram*>(e.ptr);
          v.count = h->count();
          v.value = h->sum();
          v.min = h->count() ? h->min() : 0;
          v.max = h->count() ? h->max() : 0;
          v.bucket_counts = h->counts();
          break;
        }
      }
      snap.values.push_back(std::move(v));
    }
  }
  std::sort(snap.values.begin(), snap.values.end(),
            [](const SnapshotValue& a, const SnapshotValue& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

}  // namespace tts::obs
