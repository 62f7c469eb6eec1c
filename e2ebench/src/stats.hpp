// e2ebench: order statistics over host-time samples.
#pragma once

#include <cstddef>
#include <vector>

namespace e2ebench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> samples);

/// The tail statistic every timing reports beside its median: the highest
/// of p99.9 / p99 / p95 / p90 / p75 / p50 that still has at least ten
/// samples strictly beyond its rank. Percentiles are nearest-rank: the
/// value at 1-based rank ceil(N * p / 100) of the sorted samples,
/// computed in integers from the percentile times ten (999 = p99.9).
/// With fewer than 20 samples no candidate qualifies; the result is then
/// p50 with qualified = false.
struct Tail {
  int per_mille = 500;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked above the percentile's rank
  bool qualified = false;
};

Tail tailPercentile(std::vector<double> samples);

/// "p90", "p99.9": the label printed next to a tail value.
const char* percentileLabel(int per_mille);

}  // namespace e2ebench
