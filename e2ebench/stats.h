// Latency summaries for the end-to-end benchmark.
//
// A tail percentile is only reported when the sample supports it: the
// highest percentile with at least ten samples beyond it (for n samples,
// p is supported when n * (1 - p / 100) >= 10, so p99 needs n >= 1000).

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace e2ebench {

// Samples strictly beyond percentile `p` that the rule requires.
inline constexpr size_t kSamplesBeyondTail = 10;

// Whether `n` samples leave at least ten beyond percentile `p` (0 < p < 100).
bool SupportsPercentile(size_t n, double p);

// The highest of {50, 90, 99, 99.9} that `n` samples support; 0 when none.
double HighestSupportedPercentile(size_t n);

// Nearest-rank percentile of `values` (unsorted; copied). 0 when empty.
double Percentile(std::vector<double> values, double p);

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
