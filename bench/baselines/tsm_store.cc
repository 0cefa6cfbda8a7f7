#include "bench/baselines/tsm_store.h"

#include <filesystem>

#include "core/models/gorilla.h"
#include "util/buffer.h"
#include "util/simd/kernels.h"

namespace modelardb {

TsmStore::TsmStore(TsmStoreOptions options) : options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  if (!options_.directory.empty()) {
    log_path_ = options_.directory + "/tsm.log";
    wal_path_ = options_.directory + "/wal.log";
  }
}

Status TsmStore::AppendToWal(const DataPoint& point) {
  if (wal_path_.empty() || !options_.write_wal) return Status::OK();
  if (wal_ == nullptr) {
    WalWriterOptions wal_options;
    wal_options.sync_policy = options_.wal_sync_policy;
    wal_options.sync_every_n_blocks = options_.wal_sync_every_n_blocks;
    MODELARDB_ASSIGN_OR_RETURN(
        wal_, WalWriter::Open(env_, wal_path_, wal_options));
  }
  BufferWriter writer;
  writer.WriteVarint(static_cast<uint64_t>(point.tid));
  writer.WriteI64(point.timestamp);
  writer.WriteFloat(point.value);
  const int64_t before = wal_->bytes_appended();
  MODELARDB_RETURN_NOT_OK(
      wal_->AppendBlock(writer.bytes().data(), writer.size()));
  wal_bytes_ += wal_->bytes_appended() - before;
  return Status::OK();
}

Result<std::unique_ptr<TsmStore>> TsmStore::Open(
    const TsmStoreOptions& options) {
  if (!options.directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.directory, ec);
    if (ec) {
      return Status::IOError("cannot create directory " + options.directory);
    }
  }
  return std::unique_ptr<TsmStore>(new TsmStore(options));
}

Status TsmStore::Append(const DataPoint& point) {
  std::vector<DataPoint>& pending = pending_[point.tid];
  if (!pending.empty() && point.timestamp <= pending.back().timestamp) {
    return Status::InvalidArgument("out-of-order timestamp for tid " +
                                   std::to_string(point.tid));
  }
  MODELARDB_RETURN_NOT_OK(AppendToWal(point));
  pending.push_back(point);
  if (pending.size() >= options_.points_per_block) {
    return SealBlock(point.tid);
  }
  return Status::OK();
}

Status TsmStore::SealBlock(Tid tid) {
  std::vector<DataPoint>& pending = pending_[tid];
  if (pending.empty()) return Status::OK();

  EncodedBlock block;
  block.min_time = pending.front().timestamp;
  block.max_time = pending.back().timestamp;
  block.count = static_cast<uint32_t>(pending.size());

  // Timestamps: first absolute, then delta-of-delta (a regular series emits
  // a single-byte zero per point after the second).
  BufferWriter ts_writer;
  ts_writer.WriteI64(pending.front().timestamp);
  int64_t previous_delta = 0;
  for (size_t i = 1; i < pending.size(); ++i) {
    int64_t delta = pending[i].timestamp - pending[i - 1].timestamp;
    ts_writer.WriteSignedVarint(delta - previous_delta);
    previous_delta = delta;
  }
  block.timestamps = ts_writer.Finish();

  GorillaEncoder value_encoder;
  for (const DataPoint& point : pending) value_encoder.Append(point.value);
  block.values = value_encoder.Finish();

  MODELARDB_RETURN_NOT_OK(WriteToDisk(block, tid));
  blocks_[tid].push_back(std::move(block));
  pending.clear();
  return Status::OK();
}

Status TsmStore::WriteToDisk(const EncodedBlock& block, Tid tid) {
  if (log_path_.empty()) return Status::OK();
  if (log_ == nullptr) {
    MODELARDB_ASSIGN_OR_RETURN(log_, env_->NewWritableLog(log_path_));
  }
  BufferWriter writer;
  writer.WriteVarint(static_cast<uint64_t>(tid));
  writer.WriteVarint(block.count);
  writer.WriteI64(block.min_time);
  writer.WriteI64(block.max_time);
  writer.WriteBytes(block.timestamps);
  writer.WriteBytes(block.values);
  MODELARDB_RETURN_NOT_OK(log_->Append(writer.bytes().data(), writer.size()));
  disk_bytes_ += static_cast<int64_t>(writer.size());
  return Status::OK();
}

Status TsmStore::FinishIngest() {
  for (auto& [tid, pending] : pending_) {
    (void)pending;
    MODELARDB_RETURN_NOT_OK(SealBlock(tid));
  }
  // Deferred durability barrier (wal-fsync-delay batching collapsed to the
  // ingest boundary).
  if (wal_ != nullptr) MODELARDB_RETURN_NOT_OK(wal_->Sync());
  if (log_ != nullptr) MODELARDB_RETURN_NOT_OK(log_->Sync());
  return Status::OK();
}

Status TsmStore::Scan(const DataPointFilter& filter,
                      const std::function<Status(const DataPoint&)>& fn) const {
  auto scan_tid = [&](Tid tid) -> Status {
    auto it = blocks_.find(tid);
    if (it != blocks_.end()) {
      for (const EncodedBlock& block : it->second) {
        if (block.max_time < filter.min_time ||
            block.min_time > filter.max_time) {
          continue;
        }
        MODELARDB_ASSIGN_OR_RETURN(
            std::vector<Value> values,
            GorillaDecodeStream(block.values, block.count));
        BufferReader ts_reader(block.timestamps);
        MODELARDB_ASSIGN_OR_RETURN(Timestamp ts0, ts_reader.ReadI64());
        // Timestamp reconstruction as two prefix sums through the
        // dispatched kernels: delta-of-deltas -> deltas (seed 0), then
        // deltas -> timestamps (seed ts0). Integer-exact, so identical
        // to the sequential loop on every tier.
        std::vector<int64_t> ts(block.count);
        for (uint32_t i = 1; i < block.count; ++i) {
          MODELARDB_ASSIGN_OR_RETURN(ts[i], ts_reader.ReadSignedVarint());
        }
        if (block.count > 1) {
          const simd::Kernels& kernels = simd::Active();
          kernels.prefix_sum64(ts.data() + 1, block.count - 1, 0);
          kernels.prefix_sum64(ts.data() + 1, block.count - 1, ts0);
        }
        if (block.count > 0) ts[0] = ts0;
        for (uint32_t i = 0; i < block.count; ++i) {
          if (filter.MatchesTime(ts[i])) {
            MODELARDB_RETURN_NOT_OK(fn(DataPoint{tid, ts[i], values[i]}));
          }
        }
      }
    }
    auto pending_it = pending_.find(tid);
    if (pending_it != pending_.end()) {
      for (const DataPoint& point : pending_it->second) {
        if (filter.MatchesTime(point.timestamp)) {
          MODELARDB_RETURN_NOT_OK(fn(point));
        }
      }
    }
    return Status::OK();
  };

  if (filter.tids.empty()) {
    std::map<Tid, bool> tids;
    for (const auto& [tid, blocks] : blocks_) tids[tid] = true;
    for (const auto& [tid, pending] : pending_) tids[tid] = true;
    for (const auto& [tid, unused] : tids) {
      MODELARDB_RETURN_NOT_OK(scan_tid(tid));
    }
  } else {
    for (Tid tid : filter.tids) {
      MODELARDB_RETURN_NOT_OK(scan_tid(tid));
    }
  }
  return Status::OK();
}

}  // namespace modelardb
