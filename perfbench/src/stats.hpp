// Order statistics for the benchmark's timings.
//
// Percentiles are nearest-rank: the p-th percentile of n samples is the
// ceil(p/100 * n)-th smallest. A percentile is reported only when at least
// kMinBeyond samples lie strictly above its rank, so a "p99" never rests on
// fewer than ten slower samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples strictly above the selected rank
  bool supported = false;  ///< beyond >= kMinBeyond
};

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples` (any order).
inline Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double scaled = p / 100.0 * static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(scaled - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

/// The highest of `candidates` (percent, any order) that `n` samples
/// support under the ten-beyond rule; 0 when none does.
inline double highest_supported_percentile(std::size_t n,
                                           std::vector<double> candidates) {
  std::sort(candidates.begin(), candidates.end(), std::greater<>());
  for (const double p : candidates) {
    const double scaled = p / 100.0 * static_cast<double>(n);
    auto rank = static_cast<std::size_t>(std::ceil(scaled - 1e-9));
    if (rank >= 1 && rank <= n && n - rank >= kMinBeyond) return p;
  }
  return 0.0;
}

/// Median (mean of the two middle samples for an even count).
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
