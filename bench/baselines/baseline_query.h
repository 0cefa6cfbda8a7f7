// Scan-based query execution over the baseline data-point stores.
//
// The paper runs its query workloads on InfluxDB/Cassandra/Parquet/ORC via
// their native engines (Spark SQL data frames, the InfluxDB CLI). This is
// the equivalent executor for our baseline stores: full-precision scans
// with predicate push-down, aggregating data points directly. It exists so
// every benchmark can run the *same logical query* against both ModelarDB++
// (on models) and the baselines (on points).

#ifndef MODELARDB_BENCH_BASELINES_BASELINE_QUERY_H_
#define MODELARDB_BENCH_BASELINES_BASELINE_QUERY_H_

#include <map>
#include <string>
#include <vector>

#include "bench/baselines/data_point_store.h"
#include "dims/dimensions.h"
#include "util/time_util.h"

namespace modelardb {
namespace workload {

struct ScanAggregate {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double value) {
    ++count;
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
  }
};

// Aggregates every matching point into one summary.
Result<ScanAggregate> AggregateScan(const DataPointStore& store,
                                    const DataPointFilter& filter);

// GROUP BY Tid.
Result<std::map<Tid, ScanAggregate>> AggregateScanByTid(
    const DataPointStore& store, const DataPointFilter& filter);

// M-AGG equivalent: GROUP BY (member at dim/level, month bucket) over the
// series in `filter.tids` (already restricted to the WHERE member).
Result<std::map<std::pair<std::string, int64_t>, ScanAggregate>>
AggregateScanByMemberAndMonth(const DataPointStore& store,
                              const TimeSeriesCatalog& catalog, int dim_index,
                              int level, const DataPointFilter& filter);

// P/R equivalent: materializes matching points.
Result<std::vector<DataPoint>> CollectPoints(const DataPointStore& store,
                                             const DataPointFilter& filter);

}  // namespace workload
}  // namespace modelardb

#endif  // MODELARDB_BENCH_BASELINES_BASELINE_QUERY_H_
