#include "util/stats.hpp"

#include <array>

namespace tts::util {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p <= 0.0) return values.front();
  if (p >= 100.0) return values.back();
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double shannon_entropy(std::span<const std::uint8_t> data) {
  if (data.empty()) return 0.0;
  std::array<std::uint64_t, 256> freq{};
  for (std::uint8_t b : data) ++freq[b];
  double h = 0.0;
  auto n = static_cast<double>(data.size());
  for (std::uint64_t f : freq) {
    if (f == 0) continue;
    double p = static_cast<double>(f) / n;
    h -= p * std::log2(p);
  }
  return h;
}

double normalized_entropy(std::span<const std::uint8_t> data) {
  return shannon_entropy(data) / 8.0;
}

}  // namespace tts::util
