#include "bench/baselines/columnar_store.h"

#include <filesystem>

#include "util/buffer.h"
#include "util/env.h"

namespace modelardb {
namespace {

// Timestamp column: absolute first value, then either one (delta, count)
// pair when the deltas are constant (flag 1, the common regular case) or
// plain zig-zag deltas (flag 0).
std::vector<uint8_t> EncodeTimestamps(const std::vector<DataPoint>& points) {
  BufferWriter writer;
  writer.WriteI64(points.front().timestamp);
  bool constant = true;
  int64_t first_delta = points.size() > 1
                            ? points[1].timestamp - points[0].timestamp
                            : 0;
  for (size_t i = 2; i < points.size(); ++i) {
    if (points[i].timestamp - points[i - 1].timestamp != first_delta) {
      constant = false;
      break;
    }
  }
  writer.WriteU8(constant ? 1 : 0);
  if (constant) {
    writer.WriteSignedVarint(first_delta);
  } else {
    for (size_t i = 1; i < points.size(); ++i) {
      writer.WriteSignedVarint(points[i].timestamp - points[i - 1].timestamp);
    }
  }
  return writer.Finish();
}

Result<std::vector<Timestamp>> DecodeTimestamps(
    ByteSpan bytes, uint32_t count) {
  BufferReader reader(bytes);
  std::vector<Timestamp> out;
  out.reserve(count);
  MODELARDB_ASSIGN_OR_RETURN(Timestamp ts, reader.ReadI64());
  out.push_back(ts);
  MODELARDB_ASSIGN_OR_RETURN(uint8_t constant, reader.ReadU8());
  if (constant) {
    MODELARDB_ASSIGN_OR_RETURN(int64_t delta, reader.ReadSignedVarint());
    for (uint32_t i = 1; i < count; ++i) {
      ts += delta;
      out.push_back(ts);
    }
  } else {
    for (uint32_t i = 1; i < count; ++i) {
      MODELARDB_ASSIGN_OR_RETURN(int64_t delta, reader.ReadSignedVarint());
      ts += delta;
      out.push_back(ts);
    }
  }
  return out;
}

}  // namespace

ColumnarStore::ColumnarStore(ColumnarStoreOptions options)
    : options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  if (!options_.directory.empty()) {
    log_path_ = options_.directory + "/columnar.log";
  }
}

Result<std::unique_ptr<ColumnarStore>> ColumnarStore::Open(
    const ColumnarStoreOptions& options) {
  if (!options.directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.directory, ec);
    if (ec) {
      return Status::IOError("cannot create directory " + options.directory);
    }
  }
  return std::unique_ptr<ColumnarStore>(new ColumnarStore(options));
}

std::vector<uint8_t> ColumnarStore::EncodeValues(
    const std::vector<DataPoint>& points) const {
  BufferWriter writer;
  if (options_.profile == ColumnarProfile::kParquetLike) {
    // PLAIN encoding: 4 bytes per value.
    for (const DataPoint& point : points) writer.WriteFloat(point.value);
  } else {
    // ORC-style run-length encoding: (run length, value) pairs.
    size_t i = 0;
    while (i < points.size()) {
      size_t run = 1;
      while (i + run < points.size() &&
             points[i + run].value == points[i].value) {
        ++run;
      }
      writer.WriteVarint(run);
      writer.WriteFloat(points[i].value);
      i += run;
    }
  }
  return writer.Finish();
}

Result<std::vector<Value>> ColumnarStore::DecodeValues(
    ByteSpan bytes, uint32_t count) const {
  BufferReader reader(bytes);
  std::vector<Value> out;
  out.reserve(count);
  if (options_.profile == ColumnarProfile::kParquetLike) {
    for (uint32_t i = 0; i < count; ++i) {
      MODELARDB_ASSIGN_OR_RETURN(Value value, reader.ReadFloat());
      out.push_back(value);
    }
  } else {
    while (out.size() < count) {
      MODELARDB_ASSIGN_OR_RETURN(uint64_t run, reader.ReadVarint());
      MODELARDB_ASSIGN_OR_RETURN(Value value, reader.ReadFloat());
      for (uint64_t i = 0; i < run && out.size() < count; ++i) {
        out.push_back(value);
      }
    }
  }
  return out;
}

Status ColumnarStore::Append(const DataPoint& point) {
  if (finalized_) {
    return Status::InvalidArgument(
        "columnar files are write-once; cannot append after FinishIngest");
  }
  std::vector<DataPoint>& pending = pending_[point.tid];
  if (!pending.empty() && point.timestamp <= pending.back().timestamp) {
    return Status::InvalidArgument("out-of-order timestamp for tid " +
                                   std::to_string(point.tid));
  }
  pending.push_back(point);
  if (pending.size() >= options_.rows_per_group) {
    return SealRowGroup(point.tid);
  }
  return Status::OK();
}

Status ColumnarStore::SealRowGroup(Tid tid) {
  std::vector<DataPoint>& pending = pending_[tid];
  if (pending.empty()) return Status::OK();
  RowGroup group;
  group.min_time = pending.front().timestamp;
  group.max_time = pending.back().timestamp;
  group.count = static_cast<uint32_t>(pending.size());
  group.timestamps = EncodeTimestamps(pending);
  group.values = EncodeValues(pending);
  MODELARDB_RETURN_NOT_OK(WriteToDisk(group, tid));
  groups_[tid].push_back(std::move(group));
  pending.clear();
  return Status::OK();
}

Status ColumnarStore::WriteToDisk(const RowGroup& group, Tid tid) {
  if (log_path_.empty()) return Status::OK();
  BufferWriter writer;
  writer.WriteVarint(static_cast<uint64_t>(tid));
  writer.WriteVarint(group.count);
  writer.WriteI64(group.min_time);
  writer.WriteI64(group.max_time);
  writer.WriteBytes(group.timestamps);
  writer.WriteBytes(group.values);
  // Row groups ride in checksummed WAL v2 blocks through util/env, like
  // the other stores' commit logs, so FaultInjectionEnv can fail the
  // append and torn tails are classifiable on recovery.
  if (wal_ == nullptr) {
    WalWriterOptions wal_options;
    wal_options.sync_policy = options_.wal_sync_policy;
    wal_options.sync_every_n_blocks = options_.wal_sync_every_n_blocks;
    MODELARDB_ASSIGN_OR_RETURN(wal_,
                               WalWriter::Open(env_, log_path_, wal_options));
  }
  const int64_t before = wal_->bytes_appended();
  MODELARDB_RETURN_NOT_OK(
      wal_->AppendBlock(writer.bytes().data(), writer.size()));
  disk_bytes_ += wal_->bytes_appended() - before;
  return Status::OK();
}

Status ColumnarStore::FinishIngest() {
  for (auto& [tid, pending] : pending_) {
    (void)pending;
    MODELARDB_RETURN_NOT_OK(SealRowGroup(tid));
  }
  // The file is complete; make it durable before declaring it queryable.
  if (wal_ != nullptr) MODELARDB_RETURN_NOT_OK(wal_->Sync());
  finalized_ = true;
  return Status::OK();
}

Status ColumnarStore::Scan(
    const DataPointFilter& filter,
    const std::function<Status(const DataPoint&)>& fn) const {
  if (!finalized_) {
    return Status::InvalidArgument(
        "columnar files cannot be queried before they are completely "
        "written (call FinishIngest first)");
  }
  auto scan_tid = [&](Tid tid) -> Status {
    auto it = groups_.find(tid);
    if (it == groups_.end()) return Status::OK();
    for (const RowGroup& group : it->second) {
      if (group.max_time < filter.min_time ||
          group.min_time > filter.max_time) {
        continue;  // Pruned by row-group statistics.
      }
      MODELARDB_ASSIGN_OR_RETURN(std::vector<Timestamp> timestamps,
                                 DecodeTimestamps(group.timestamps,
                                                  group.count));
      MODELARDB_ASSIGN_OR_RETURN(std::vector<Value> values,
                                 DecodeValues(group.values, group.count));
      for (uint32_t i = 0; i < group.count; ++i) {
        if (filter.MatchesTime(timestamps[i])) {
          MODELARDB_RETURN_NOT_OK(fn(DataPoint{tid, timestamps[i], values[i]}));
        }
      }
    }
    return Status::OK();
  };

  if (filter.tids.empty()) {
    for (const auto& [tid, groups] : groups_) {
      (void)groups;
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
