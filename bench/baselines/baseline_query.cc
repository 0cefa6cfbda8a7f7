#include "bench/baselines/baseline_query.h"

namespace modelardb {
namespace workload {

Result<ScanAggregate> AggregateScan(const DataPointStore& store,
                                    const DataPointFilter& filter) {
  ScanAggregate agg;
  MODELARDB_RETURN_NOT_OK(store.Scan(filter, [&](const DataPoint& point) {
    agg.Add(point.value);
    return Status::OK();
  }));
  return agg;
}

Result<std::map<Tid, ScanAggregate>> AggregateScanByTid(
    const DataPointStore& store, const DataPointFilter& filter) {
  std::map<Tid, ScanAggregate> out;
  MODELARDB_RETURN_NOT_OK(store.Scan(filter, [&](const DataPoint& point) {
    out[point.tid].Add(point.value);
    return Status::OK();
  }));
  return out;
}

Result<std::map<std::pair<std::string, int64_t>, ScanAggregate>>
AggregateScanByMemberAndMonth(const DataPointStore& store,
                              const TimeSeriesCatalog& catalog, int dim_index,
                              int level, const DataPointFilter& filter) {
  std::map<std::pair<std::string, int64_t>, ScanAggregate> out;
  MODELARDB_RETURN_NOT_OK(store.Scan(filter, [&](const DataPoint& point) {
    const std::string& member = catalog.Member(point.tid, dim_index, level);
    int64_t bucket = TimeBucket(point.timestamp, TimeLevel::kMonth);
    out[{member, bucket}].Add(point.value);
    return Status::OK();
  }));
  return out;
}

Result<std::vector<DataPoint>> CollectPoints(const DataPointStore& store,
                                             const DataPointFilter& filter) {
  std::vector<DataPoint> out;
  MODELARDB_RETURN_NOT_OK(store.Scan(filter, [&](const DataPoint& point) {
    out.push_back(point);
    return Status::OK();
  }));
  return out;
}

}  // namespace workload
}  // namespace modelardb
