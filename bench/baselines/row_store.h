// RowStore: a Cassandra-like wide-row store used as the paper's
// "data points in Cassandra" baseline (§7.1).
//
// Data points are partitioned by Tid and stored as rows clustered by
// timestamp, with a fixed per-cell metadata overhead modelling Cassandra's
// cell bookkeeping (write timestamp, flags). Rows are queryable during
// ingestion (Cassandra supports online analytics but pays for it in write
// throughput and storage, which is the behaviour the benchmarks reproduce).

#ifndef MODELARDB_BENCH_BASELINES_ROW_STORE_H_
#define MODELARDB_BENCH_BASELINES_ROW_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/baselines/data_point_store.h"
#include "storage/wal.h"
#include "util/env.h"

namespace modelardb {

struct RowStoreOptions {
  std::string directory;       // Empty: in-memory only.
  // File I/O boundary; null uses Env::Default().
  Env* env = nullptr;
  size_t rows_per_block = 4096;
  // Bytes of per-cell metadata (Cassandra stores a write timestamp and
  // flags per cell).
  size_t cell_overhead_bytes = 8;
  // Cassandra appends every mutation to a commit log before acknowledging
  // it; disable only for tests.
  bool write_commit_log = true;
  // Commit-log fsync cadence. kNone models Cassandra's default
  // `commitlog_sync: periodic` (acknowledge before fsync; the barrier
  // lands at FinishIngest/close); kEveryBlock models `batch`.
  WalSyncPolicy wal_sync_policy = WalSyncPolicy::kNone;
  size_t wal_sync_every_n_blocks = 8;
};

class RowStore : public DataPointStore {
 public:
  static Result<std::unique_ptr<RowStore>> Open(const RowStoreOptions& options);

  const char* name() const override { return "Cassandra-like row store"; }
  Status Append(const DataPoint& point) override;
  Status FinishIngest() override;
  Status Scan(const DataPointFilter& filter,
              const std::function<Status(const DataPoint&)>& fn) const override;
  int64_t DiskBytes() const override { return disk_bytes_; }
  int64_t BytesWritten() const override { return disk_bytes_ + wal_bytes_; }
  bool SupportsOnlineAnalytics() const override { return true; }

 private:
  struct EncodedBlock {
    Timestamp min_time;
    Timestamp max_time;
    std::vector<uint8_t> bytes;
  };

  explicit RowStore(RowStoreOptions options);

  Status SealBlock(Tid tid);
  Status WriteToDisk(const std::vector<uint8_t>& bytes);

  Status AppendToCommitLog(const DataPoint& point);

  RowStoreOptions options_;
  Env* env_ = nullptr;  // options_.env or Env::Default(); never null.
  std::string log_path_;
  std::string wal_path_;
  // Lazily opened; every append's Status is propagated to the caller
  // (an unchecked stream write is how a "durable" baseline lies).
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<WritableLog> log_;
  int64_t wal_bytes_ = 0;
  std::map<Tid, std::vector<DataPoint>> pending_;
  std::map<Tid, std::vector<EncodedBlock>> blocks_;
  int64_t disk_bytes_ = 0;
};

}  // namespace modelardb

#endif  // MODELARDB_BENCH_BASELINES_ROW_STORE_H_
