// Order statistics for the benchmark's timings.
//
// Percentiles use the nearest-rank rule. A tail percentile is only trusted
// when at least kMinBeyond samples lie beyond it, so every summary carries
// the highest percentile of a fixed ladder that the sample count supports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Ladder of reportable percentiles, in basis points (9900 = p99), highest
/// first.
inline constexpr unsigned kPercentileLadder[] = {9999, 9990, 9900, 9000, 5000};

/// 1-based nearest rank of percentile `bp` among `n` samples (n > 0).
inline std::size_t nearest_rank(std::size_t n, unsigned bp) {
  std::size_t r = (n * bp + 9999) / 10000;
  return r == 0 ? 1 : r;
}

/// Samples strictly beyond the nearest-rank percentile `bp`.
inline std::size_t samples_beyond(std::size_t n, unsigned bp) {
  return n == 0 ? 0 : n - nearest_rank(n, bp);
}

/// Highest ladder percentile with at least kMinBeyond samples beyond it, or
/// 0 when even the median is unsupported.
inline unsigned supported_tail_bp(std::size_t n) {
  for (unsigned bp : kPercentileLadder) {
    if (samples_beyond(n, bp) >= kMinBeyond) return bp;
  }
  return 0;
}

/// Percentile of an ascending-sorted, non-empty sample.
inline double percentile_sorted(const std::vector<double>& sorted, unsigned bp) {
  return sorted[nearest_rank(sorted.size(), bp) - 1];
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  /// p99 when the sample supports it, else the highest supported percentile.
  double p99 = 0;
  /// Highest supported ladder percentile (basis points) and its value.
  unsigned tail_bp = 0;
  double tail = 0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 5000);
  s.tail_bp = supported_tail_bp(v.size());
  s.tail = s.tail_bp ? percentile_sorted(v, s.tail_bp) : v.back();
  s.p99 = s.tail_bp >= 9900 ? percentile_sorted(v, 9900) : s.tail;
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

}  // namespace perfbench
