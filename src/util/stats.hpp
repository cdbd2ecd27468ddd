// Small statistics helpers used by the analyses: medians, percentiles,
// Shannon entropy, and counters keyed by arbitrary values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace tts::util {

/// Median of an unsorted copy of `values`. Even-sized inputs average the two
/// middle elements. Empty input returns 0.
double median(std::vector<double> values);

/// p-th percentile (0..100) by linear interpolation. Empty input returns 0.
double percentile(std::vector<double> values, double p);

double mean(std::span<const double> values);

/// Shannon entropy in bits of the byte distribution of `data`.
double shannon_entropy(std::span<const std::uint8_t> data);

/// Shannon entropy in bits per byte, normalised to [0, 1] (divided by 8).
double normalized_entropy(std::span<const std::uint8_t> data);

/// Counter over keys; convenience around unordered_map<K, uint64_t> with
/// sorted "top-k" extraction, used everywhere in the analyses.
template <typename Key, typename Hash = std::hash<Key>>
class Counter {
 public:
  void add(const Key& k, std::uint64_t n = 1) { counts_[k] += n; }

  std::uint64_t count(const Key& k) const {
    auto it = counts_.find(k);
    return it == counts_.end() ? 0 : it->second;
  }

  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto& [k, v] : counts_) t += v;
    return t;
  }

  std::size_t distinct() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  /// Entries sorted by descending count, ties broken by ascending key — a
  /// total order, so the result is independent of hash layout.
  std::vector<std::pair<Key, std::uint64_t>> sorted_desc() const {
    // ttslint: allow(unordered-iter) reason=snapshot is fully sorted below under a total (count, key) order
    std::vector<std::pair<Key, std::uint64_t>> v(counts_.begin(),
                                                 counts_.end());
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    return v;
  }

  std::vector<std::pair<Key, std::uint64_t>> top(std::size_t k) const {
    auto v = sorted_desc();
    if (v.size() > k) v.resize(k);
    return v;
  }

  const std::unordered_map<Key, std::uint64_t, Hash>& raw() const {
    return counts_;
  }

 private:
  std::unordered_map<Key, std::uint64_t, Hash> counts_;
};

}  // namespace tts::util
