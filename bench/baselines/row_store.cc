#include "bench/baselines/row_store.h"

#include <filesystem>

#include "util/buffer.h"

namespace modelardb {

RowStore::RowStore(RowStoreOptions options) : options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  if (!options_.directory.empty()) {
    log_path_ = options_.directory + "/rows.log";
    wal_path_ = options_.directory + "/commitlog.log";
  }
}

Status RowStore::AppendToCommitLog(const DataPoint& point) {
  if (wal_path_.empty() || !options_.write_commit_log) return Status::OK();
  if (wal_ == nullptr) {
    WalWriterOptions wal_options;
    wal_options.sync_policy = options_.wal_sync_policy;
    wal_options.sync_every_n_blocks = options_.wal_sync_every_n_blocks;
    MODELARDB_ASSIGN_OR_RETURN(
        wal_, WalWriter::Open(env_, wal_path_, wal_options));
  }
  // (Tid, TS, Value): the mutation a Cassandra commit log records, framed
  // as one checksummed v2 WAL block.
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

Result<std::unique_ptr<RowStore>> RowStore::Open(
    const RowStoreOptions& options) {
  if (!options.directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.directory, ec);
    if (ec) {
      return Status::IOError("cannot create directory " + options.directory);
    }
  }
  return std::unique_ptr<RowStore>(new RowStore(options));
}

Status RowStore::Append(const DataPoint& point) {
  std::vector<DataPoint>& pending = pending_[point.tid];
  if (!pending.empty() && point.timestamp <= pending.back().timestamp) {
    return Status::InvalidArgument("out-of-order timestamp for tid " +
                                   std::to_string(point.tid));
  }
  MODELARDB_RETURN_NOT_OK(AppendToCommitLog(point));
  pending.push_back(point);
  if (pending.size() >= options_.rows_per_block) {
    return SealBlock(point.tid);
  }
  return Status::OK();
}

Status RowStore::SealBlock(Tid tid) {
  std::vector<DataPoint>& pending = pending_[tid];
  if (pending.empty()) return Status::OK();
  BufferWriter writer;
  writer.WriteVarint(static_cast<uint64_t>(tid));
  writer.WriteVarint(pending.size());
  writer.WriteI64(pending.front().timestamp);
  Timestamp previous = pending.front().timestamp;
  for (size_t i = 0; i < pending.size(); ++i) {
    if (i > 0) {
      writer.WriteSignedVarint(pending[i].timestamp - previous);
      previous = pending[i].timestamp;
    }
    writer.WriteFloat(pending[i].value);
    // Cassandra's per-cell metadata (write timestamp, flags): real bytes so
    // ingestion pays for them too.
    for (size_t pad = 0; pad < options_.cell_overhead_bytes; ++pad) {
      writer.WriteU8(0);
    }
  }
  EncodedBlock block;
  block.min_time = pending.front().timestamp;
  block.max_time = pending.back().timestamp;
  block.bytes = writer.Finish();
  MODELARDB_RETURN_NOT_OK(WriteToDisk(block.bytes));
  blocks_[tid].push_back(std::move(block));
  pending.clear();
  return Status::OK();
}

Status RowStore::WriteToDisk(const std::vector<uint8_t>& bytes) {
  if (log_path_.empty()) return Status::OK();
  if (log_ == nullptr) {
    MODELARDB_ASSIGN_OR_RETURN(log_, env_->NewWritableLog(log_path_));
  }
  BufferWriter writer;
  writer.WriteU32(static_cast<uint32_t>(bytes.size()));
  writer.WriteRaw(bytes.data(), bytes.size());
  MODELARDB_RETURN_NOT_OK(log_->Append(writer.bytes().data(), writer.size()));
  disk_bytes_ += static_cast<int64_t>(writer.size());
  return Status::OK();
}

Status RowStore::FinishIngest() {
  for (auto& [tid, pending] : pending_) {
    (void)pending;
    MODELARDB_RETURN_NOT_OK(SealBlock(tid));
  }
  // The periodic-sync barrier: everything written so far becomes durable
  // (Cassandra's commitlog_sync_period, collapsed to the ingest boundary).
  if (wal_ != nullptr) MODELARDB_RETURN_NOT_OK(wal_->Sync());
  if (log_ != nullptr) MODELARDB_RETURN_NOT_OK(log_->Sync());
  return Status::OK();
}

Status RowStore::Scan(const DataPointFilter& filter,
                      const std::function<Status(const DataPoint&)>& fn) const {
  auto scan_tid = [&](Tid tid) -> Status {
    auto it = blocks_.find(tid);
    if (it != blocks_.end()) {
      for (const EncodedBlock& block : it->second) {
        if (block.max_time < filter.min_time ||
            block.min_time > filter.max_time) {
          continue;  // Pruned by block statistics.
        }
        BufferReader reader(block.bytes);
        MODELARDB_ASSIGN_OR_RETURN(uint64_t stored_tid, reader.ReadVarint());
        MODELARDB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
        MODELARDB_ASSIGN_OR_RETURN(Timestamp ts, reader.ReadI64());
        for (uint64_t i = 0; i < count; ++i) {
          if (i > 0) {
            MODELARDB_ASSIGN_OR_RETURN(int64_t delta,
                                       reader.ReadSignedVarint());
            ts += delta;
          }
          MODELARDB_ASSIGN_OR_RETURN(Value value, reader.ReadFloat());
          MODELARDB_RETURN_NOT_OK(
              reader.Skip(options_.cell_overhead_bytes));
          if (filter.MatchesTime(ts)) {
            MODELARDB_RETURN_NOT_OK(
                fn(DataPoint{static_cast<Tid>(stored_tid), ts, value}));
          }
        }
      }
    }
    // Online analytics: the not-yet-sealed rows are visible too.
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
    // Union of sealed and pending Tids.
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
