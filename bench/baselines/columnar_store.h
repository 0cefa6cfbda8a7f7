// ColumnarStore: Parquet/ORC-like write-once columnar files, the paper's
// big-data file-format baselines (§7.1).
//
// One logical file per series (the paper stores a file per Tid on HDFS so
// Spark can prune by Tid), split into row groups with min/max statistics.
// Two encoding profiles reproduce the behaviour classes:
//   kParquetLike — timestamps delta-encoded (constant-delta run collapses),
//                  values PLAIN (4 bytes each);
//   kOrcLike     — same timestamps, values run-length encoded.
// Write-once semantics: scans fail until FinishIngest() — the paper's
// reason Parquet/ORC do not support online analytics (§7.3).

#ifndef MODELARDB_BENCH_BASELINES_COLUMNAR_STORE_H_
#define MODELARDB_BENCH_BASELINES_COLUMNAR_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/baselines/data_point_store.h"
#include "storage/wal.h"

namespace modelardb {

class Env;

enum class ColumnarProfile { kParquetLike, kOrcLike };

struct ColumnarStoreOptions {
  std::string directory;  // Empty: in-memory only.
  ColumnarProfile profile = ColumnarProfile::kParquetLike;
  size_t rows_per_group = 8192;
  // All file I/O flows through `env` (nullptr: Env::Default()), so
  // FaultInjectionEnv and tools/crash_writer cover the commit log.
  Env* env = nullptr;
  WalSyncPolicy wal_sync_policy = WalSyncPolicy::kNone;
  size_t wal_sync_every_n_blocks = 8;
};

class ColumnarStore : public DataPointStore {
 public:
  static Result<std::unique_ptr<ColumnarStore>> Open(
      const ColumnarStoreOptions& options);

  const char* name() const override {
    return options_.profile == ColumnarProfile::kParquetLike
               ? "Parquet-like columnar store"
               : "ORC-like columnar store";
  }
  Status Append(const DataPoint& point) override;
  Status FinishIngest() override;
  Status Scan(const DataPointFilter& filter,
              const std::function<Status(const DataPoint&)>& fn) const override;
  int64_t DiskBytes() const override { return disk_bytes_; }
  bool SupportsOnlineAnalytics() const override { return false; }

 private:
  struct RowGroup {
    Timestamp min_time;
    Timestamp max_time;
    uint32_t count;
    std::vector<uint8_t> timestamps;
    std::vector<uint8_t> values;
  };

  explicit ColumnarStore(ColumnarStoreOptions options);

  Status SealRowGroup(Tid tid);
  Status WriteToDisk(const RowGroup& group, Tid tid);
  std::vector<uint8_t> EncodeValues(const std::vector<DataPoint>& points) const;
  Result<std::vector<Value>> DecodeValues(ByteSpan bytes,
                                          uint32_t count) const;

  ColumnarStoreOptions options_;
  Env* env_ = nullptr;  // options_.env or Env::Default(); never null.
  std::string log_path_;
  std::unique_ptr<WalWriter> wal_;  // Lazily opened on first row group.
  bool finalized_ = false;
  std::map<Tid, std::vector<DataPoint>> pending_;
  std::map<Tid, std::vector<RowGroup>> groups_;
  int64_t disk_bytes_ = 0;
};

}  // namespace modelardb

#endif  // MODELARDB_BENCH_BASELINES_COLUMNAR_STORE_H_
