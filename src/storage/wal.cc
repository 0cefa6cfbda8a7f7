#include "storage/wal.h"

#include <cstring>
#include <utility>

#include "obs/event_ring.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/crc32c.h"

namespace modelardb {
namespace {

obs::Counter& WalAppends() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kWalAppendsTotal);
  return counter;
}
obs::Counter& WalBytes() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kWalBytesTotal);
  return counter;
}
obs::Counter& WalFsyncs() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kWalFsyncsTotal);
  return counter;
}
obs::Counter& WalGroupCommitted() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kWalGroupCommittedBlocksTotal);
  return counter;
}
obs::Histogram& WalSyncSeconds() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(obs::kWalSyncSeconds);
  return histogram;
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU32(uint32_t v, std::vector<uint8_t>* out) {
  const uint8_t* b = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), b, b + sizeof(v));
}

// True when a structurally valid block (CRC verified) starts exactly at
// `pos`.
bool ValidBlockAt(const uint8_t* data, size_t size, size_t pos) {
  if (size - pos < kWalHeaderV2 || LoadU32(data + pos) != kWalMagicV2) {
    return false;
  }
  const uint32_t length = LoadU32(data + pos + 4);
  if (length > size - pos - kWalHeaderV2) return false;
  const uint32_t stored_crc = LoadU32(data + pos + 8);
  uint32_t crc = Crc32c(data + pos, 8);
  crc = Crc32cExtend(crc, data + pos + kWalHeaderV2, length);
  return crc == stored_crc;
}

// Scans for any structurally valid block strictly after `from`. Damage
// followed by a valid block is interior corruption; damage with nothing
// valid after it is a torn tail.
bool AnyValidBlockAfter(const uint8_t* data, size_t size, size_t from) {
  if (size < kWalHeaderV2) return false;
  for (size_t pos = from; pos + kWalHeaderV2 <= size; ++pos) {
    if (ValidBlockAt(data, size, pos)) return true;
  }
  return false;
}

}  // namespace

void EncodeWalBlockV2(const uint8_t* payload, size_t size,
                      std::vector<uint8_t>* out) {
  const size_t start = out->size();
  StoreU32(kWalMagicV2, out);
  StoreU32(static_cast<uint32_t>(size), out);
  uint32_t crc = Crc32c(out->data() + start, 8);
  crc = Crc32cExtend(crc, payload, size);
  StoreU32(crc, out);
  out->insert(out->end(), payload, payload + size);
}

Result<WalReadResult> ReadWalBlocks(const uint8_t* data, size_t size,
                                    const std::string& path_for_errors) {
  WalReadResult result;
  size_t pos = 0;
  // On damage at `pos`: interior (valid block later) -> Corruption; at the
  // tail -> salvage the prefix and report why.
  auto damaged = [&](const std::string& reason) -> Status {
    if (AnyValidBlockAfter(data, size, pos + 1)) {
      return Status::Corruption(reason + " at offset " + std::to_string(pos) +
                                " in " + path_for_errors +
                                " (valid blocks follow: interior corruption)");
    }
    result.torn_tail = true;
    result.torn_reason = reason + " at offset " + std::to_string(pos);
    return Status::OK();
  };

  while (pos < size) {
    const size_t remaining = size - pos;
    if (remaining >= 4 && LoadU32(data + pos) == kWalMagicV1) {
      return Status::NotImplemented(
          "WAL v1 (\"MDBS\") block at offset " + std::to_string(pos) +
          " in " + path_for_errors +
          ": the unchecksummed v1 log format is no longer readable");
    }
    if (remaining < kWalHeaderV2) {
      MODELARDB_RETURN_NOT_OK(damaged("truncated block header"));
      break;
    }
    if (LoadU32(data + pos) != kWalMagicV2) {
      MODELARDB_RETURN_NOT_OK(damaged("bad block magic"));
      break;
    }
    const uint32_t length = LoadU32(data + pos + 4);
    if (length > remaining - kWalHeaderV2) {
      MODELARDB_RETURN_NOT_OK(damaged("v2 block payload past end of file"));
      break;
    }
    const uint32_t stored_crc = LoadU32(data + pos + 8);
    uint32_t crc = Crc32c(data + pos, 8);
    crc = Crc32cExtend(crc, data + pos + kWalHeaderV2, length);
    if (crc != stored_crc) {
      MODELARDB_RETURN_NOT_OK(damaged("v2 block checksum mismatch"));
      break;
    }
    WalBlockRef block;
    block.offset = pos;
    block.payload_offset = pos + kWalHeaderV2;
    block.payload_size = length;
    pos += kWalHeaderV2 + length;
    result.blocks.push_back(block);
    result.valid_bytes = pos;
  }
  return result;
}

WalWriter::WalWriter(std::unique_ptr<WritableLog> log, std::string path,
                     WalWriterOptions options)
    : log_(std::move(log)), path_(std::move(path)), options_(options) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(Env* env, std::string path,
                                                   WalWriterOptions options) {
  MODELARDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableLog> log,
                             env->NewWritableLog(path));
  return std::unique_ptr<WalWriter>(
      new WalWriter(std::move(log), std::move(path), options));
}

Status WalWriter::AppendBlock(const uint8_t* payload, size_t size) {
  if (poisoned_) {
    return Status::IOError("wal writer poisoned by an earlier error: " +
                           path_);
  }
  scratch_.clear();
  EncodeWalBlockV2(payload, size, &scratch_);
  // One Append per block: the block either lands whole or becomes the torn
  // tail recovery salvages around (and one deterministic fault-env op).
  Status append = log_->Append(scratch_.data(), scratch_.size());
  if (!append.ok()) {
    poisoned_ = true;  // The file tail is undefined now.
    return append;
  }
  ++blocks_appended_;
  bytes_appended_ += static_cast<int64_t>(scratch_.size());
  ++unsynced_blocks_;
  WalAppends().Add();
  WalBytes().Add(static_cast<int64_t>(scratch_.size()));
  switch (options_.sync_policy) {
    case WalSyncPolicy::kEveryBlock:
      return SyncInternal();
    case WalSyncPolicy::kEveryNBlocks:
      if (unsynced_blocks_ >= options_.sync_every_n_blocks) {
        return SyncInternal();
      }
      return Status::OK();
    case WalSyncPolicy::kNone:
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::SyncInternal() {
  if (unsynced_blocks_ == 0) return Status::OK();
  const int64_t begin_ns = obs::MonotonicNanos();
  Status sync = log_->Sync();
  if (!sync.ok()) {
    // fsyncgate: after a failed fsync the kernel may have dropped the
    // dirty pages; retrying cannot make the data durable. Poison.
    poisoned_ = true;
    return sync;
  }
  const int64_t duration_ns = obs::MonotonicNanos() - begin_ns;
  WalFsyncs().Add();
  WalGroupCommitted().Add(static_cast<int64_t>(unsynced_blocks_));
  WalSyncSeconds().Observe(static_cast<double>(duration_ns) * 1e-9);
  obs::EventRing::Global().Record(obs::EventKind::kWalSync,
                                  static_cast<int64_t>(unsynced_blocks_),
                                  duration_ns);
  unsynced_blocks_ = 0;
  return Status::OK();
}

Status WalWriter::Sync() {
  if (poisoned_) {
    return Status::IOError("wal writer poisoned by an earlier error: " +
                           path_);
  }
  return SyncInternal();
}

Status WalWriter::Close() {
  if (log_ == nullptr) return Status::OK();
  Status sync = poisoned_ ? Status::OK() : SyncInternal();
  Status close = log_->Close();
  log_ = nullptr;
  MODELARDB_RETURN_NOT_OK(sync);
  return close;
}

}  // namespace modelardb
