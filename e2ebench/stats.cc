#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

bool SupportsPercentile(size_t n, double p) {
  // Integer form of n * (1 - p/100) >= 10, exact for p with at most one
  // decimal digit (the percentiles this benchmark reports).
  const long long beyond_x1000 =
      static_cast<long long>(n) * (1000 - std::llround(p * 10.0));
  return beyond_x1000 >= static_cast<long long>(kSamplesBeyondTail) * 1000;
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (SupportsPercentile(n, p)) best = p;
  }
  return best;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest value with at least p% of samples <= it.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

}  // namespace e2ebench
