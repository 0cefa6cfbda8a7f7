// TsmStore: an InfluxDB-like time-structured store, the paper's InfluxDB
// baseline (§7.1).
//
// Points are organized per series into immutable blocks: timestamps are
// delta-of-delta encoded (regular series collapse to almost nothing) and
// values are Gorilla XOR compressed — the encoding family InfluxDB's TSM
// engine uses. Lossless only: there is no error-bound mode, which is why
// this baseline cannot follow ModelarDB at non-zero bounds. Supports online
// analytics (points are queryable while ingesting), and, like the paper's
// open-source InfluxDB, it is a single-node store.

#ifndef MODELARDB_BENCH_BASELINES_TSM_STORE_H_
#define MODELARDB_BENCH_BASELINES_TSM_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/baselines/data_point_store.h"
#include "storage/wal.h"
#include "util/env.h"

namespace modelardb {

struct TsmStoreOptions {
  std::string directory;  // Empty: in-memory only.
  // File I/O boundary; null uses Env::Default().
  Env* env = nullptr;
  size_t points_per_block = 1024;
  // InfluxDB's TSM engine appends writes to a WAL before caching them.
  bool write_wal = true;
  // WAL fsync cadence: kEveryBlock models InfluxDB's default
  // `wal-fsync-delay = 0` (fsync per write); kNone defers the barrier to
  // FinishIngest/close.
  WalSyncPolicy wal_sync_policy = WalSyncPolicy::kNone;
  size_t wal_sync_every_n_blocks = 8;
};

class TsmStore : public DataPointStore {
 public:
  static Result<std::unique_ptr<TsmStore>> Open(const TsmStoreOptions& options);

  const char* name() const override { return "InfluxDB-like TSM store"; }
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
    uint32_t count;
    std::vector<uint8_t> timestamps;  // Delta-of-delta varints.
    std::vector<uint8_t> values;      // Gorilla XOR stream.
  };

  explicit TsmStore(TsmStoreOptions options);

  Status SealBlock(Tid tid);
  Status WriteToDisk(const EncodedBlock& block, Tid tid);

  Status AppendToWal(const DataPoint& point);

  TsmStoreOptions options_;
  Env* env_ = nullptr;  // options_.env or Env::Default(); never null.
  std::string log_path_;
  std::string wal_path_;
  // Lazily opened; every append's Status is propagated to the caller.
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<WritableLog> log_;
  int64_t wal_bytes_ = 0;
  std::map<Tid, std::vector<DataPoint>> pending_;
  std::map<Tid, std::vector<EncodedBlock>> blocks_;
  int64_t disk_bytes_ = 0;
};

}  // namespace modelardb

#endif  // MODELARDB_BENCH_BASELINES_TSM_STORE_H_
