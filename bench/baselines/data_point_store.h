// Baseline data-point stores used by the evaluation (paper §7.1).
//
// The paper compares ModelarDB against InfluxDB, Cassandra, Apache Parquet
// and Apache ORC, all storing raw data points with the Data Point View's
// schema (Tid, TS, Value). This header defines the common store interface;
// row_store.h (Cassandra-like), tsm_store.h (InfluxDB-like) and
// columnar_store.h (Parquet/ORC-like) provide behaviour-class substitutes
// that exercise the same trade-offs: per-row overhead vs columnar scans vs
// time-structured compression, and online analytics vs write-once files.

#ifndef MODELARDB_BENCH_BASELINES_DATA_POINT_STORE_H_
#define MODELARDB_BENCH_BASELINES_DATA_POINT_STORE_H_

#include <functional>
#include <limits>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace modelardb {

// Push-down predicate for data-point scans.
struct DataPointFilter {
  std::vector<Tid> tids;  // Empty: all series.
  Timestamp min_time = std::numeric_limits<Timestamp>::min();
  Timestamp max_time = std::numeric_limits<Timestamp>::max();

  bool MatchesTime(Timestamp ts) const {
    return ts >= min_time && ts <= max_time;
  }
};

class DataPointStore {
 public:
  virtual ~DataPointStore() = default;

  virtual const char* name() const = 0;

  // Appends one data point. Points of one series must arrive in time order.
  virtual Status Append(const DataPoint& point) = 0;

  // Finishes ingestion: flushes buffers and (for write-once formats)
  // finalizes the files.
  virtual Status FinishIngest() = 0;

  // Scans points matching `filter`. Write-once formats fail before
  // FinishIngest() — the paper notes Parquet/ORC cannot be queried before a
  // file is completely written (§7.3).
  virtual Status Scan(const DataPointFilter& filter,
                      const std::function<Status(const DataPoint&)>& fn)
      const = 0;

  // Bytes of steady-state storage on disk (the `du` measurement; commit
  // logs that are deleted after a flush do not count).
  virtual int64_t DiskBytes() const = 0;

  // Total bytes the ingest path wrote, including any write-ahead/commit
  // log. This is what a bandwidth-limited disk must absorb during
  // ingestion (used by the Fig 13 disk model).
  virtual int64_t BytesWritten() const { return DiskBytes(); }

  // Whether data is queryable while ingestion is still running.
  virtual bool SupportsOnlineAnalytics() const = 0;
};

}  // namespace modelardb

#endif  // MODELARDB_BENCH_BASELINES_DATA_POINT_STORE_H_
