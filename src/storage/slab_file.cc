#include "storage/slab_file.h"

#include <algorithm>

#include "obs/event_ring.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/buffer.h"
#include "util/crc32c.h"

namespace modelardb {
namespace {

// Two 512-byte root slots ahead of the data region. 512 bytes leaves the
// root format room to grow while keeping both slots inside one page, and
// the root write itself is a single small pwrite — the atomicity unit the
// two-slot rotation protects even when that write tears.
constexpr uint64_t kSlotSize = 512;
constexpr uint64_t kDataStart = 2 * kSlotSize;
constexpr uint32_t kRootMagic = 0x4253444D;  // "MDSB" little-endian.
constexpr uint32_t kFormatVersion = 1;
// magic + version + epoch + file_end + table_offset + table_size +
// table_crc + wal_watermark + crc.
constexpr size_t kRootBytes = 4 + 4 + 8 + 8 + 8 + 8 + 4 + 8 + 4;
// Room a block table keeps past its serialized bytes: carving the table's
// own extent rewrites at most one free entry, lengthening its offset
// varint by at most 9 bytes (1 to 10).
constexpr uint64_t kTableSlack = 16;

struct RootHeader {
  uint64_t epoch = 0;
  uint64_t file_end = 0;
  uint64_t table_offset = 0;
  uint64_t table_size = 0;
  uint32_t table_crc = 0;
  uint64_t wal_watermark = 0;
};

// Parses one root slot; false on any mismatch (torn write, foreign bytes,
// old slot of a crashed first commit). Never Status: an invalid slot is a
// normal recovery condition, not an error by itself.
bool ParseRoot(const uint8_t* data, size_t size, RootHeader* out) {
  if (size < kRootBytes) return false;
  BufferReader reader(data, kRootBytes);
  auto magic = reader.ReadU32();
  if (!magic.ok() || *magic != kRootMagic) return false;
  auto version = reader.ReadU32();
  if (!version.ok() || *version != kFormatVersion) return false;
  auto epoch = reader.ReadU64();
  auto file_end = reader.ReadU64();
  auto table_offset = reader.ReadU64();
  auto table_size = reader.ReadU64();
  auto table_crc = reader.ReadU32();
  auto watermark = reader.ReadU64();
  auto crc = reader.ReadU32();
  if (!crc.ok()) return false;
  if (*crc != Crc32c(data, kRootBytes - 4)) return false;
  out->epoch = *epoch;
  out->file_end = *file_end;
  out->table_offset = *table_offset;
  out->table_size = *table_size;
  out->table_crc = *table_crc;
  out->wal_watermark = *watermark;
  return true;
}

obs::Counter& SlabRemaps() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kSlabRemapsTotal);
  return counter;
}
obs::Counter& SlabCommits() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kSlabCommitsTotal);
  return counter;
}
obs::Counter& SlabCheckpointedBlocks() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kSlabCheckpointedBlocksTotal);
  return counter;
}
obs::Counter& SlabFreedBlocks() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kSlabFreedBlocksTotal);
  return counter;
}
obs::Counter& SlabZeroCopyBytes() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kSlabZeroCopyScanBytesTotal);
  return counter;
}
obs::Gauge& SlabMappedBytes() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge(obs::kSlabMappedBytes);
  return gauge;
}

}  // namespace

SlabFile::SlabFile(const SlabFileOptions& options, Env* env)
    : options_(options), env_(env) {}

SlabFile::~SlabFile() {
  MutexLock lock(mutex_);
  if (map_ != nullptr) {
    SlabMappedBytes().Add(-static_cast<double>(map_->size()));
  }
  if (rw_ != nullptr) (void)rw_->Close();
}

Result<std::unique_ptr<SlabFile>> SlabFile::Open(
    const SlabFileOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::unique_ptr<SlabFile> slab(new SlabFile(options, env));
  MODELARDB_RETURN_NOT_OK(slab->Load());
  return slab;
}

Status SlabFile::Remap() {
  size_t old_size = map_ != nullptr ? map_->size() : 0;
  MODELARDB_ASSIGN_OR_RETURN(std::unique_ptr<MmapFile> map,
                             env_->NewMmapFile(options_.path));
  if (map_ != nullptr) {
    ++remaps_;
    SlabRemaps().Add();
    obs::EventRing::Global().Record(obs::EventKind::kSlabRemap,
                                    static_cast<int64_t>(map->size()));
  }
  SlabMappedBytes().Add(static_cast<double>(map->size()) -
                        static_cast<double>(old_size));
  // Readers holding a Pin keep the previous mapping alive through their
  // shared_ptr copy; this swap only redirects future reads.
  map_ = std::shared_ptr<const MmapFile>(std::move(map));
  return Status::OK();
}

Status SlabFile::CreateFresh() {
  committed_.clear();
  staged_.clear();
  free_.clear();
  pending_free_.clear();
  next_id_ = 1;
  frontier_ = kDataStart;
  epoch_ = 0;
  watermark_ = 0;
  table_offset_ = 0;
  table_size_ = 0;
  std::vector<uint8_t> root = SerializeRoot(0, 0, 0, 0, 0);
  MODELARDB_RETURN_NOT_OK(rw_->WriteAt(0, root.data(), root.size()));
  MODELARDB_RETURN_NOT_OK(rw_->Sync());
  return Remap();
}

Status SlabFile::Load() {
  MutexLock lock(mutex_);
  const bool existed = env_->FileExists(options_.path);
  MODELARDB_ASSIGN_OR_RETURN(rw_, env_->NewRandomRWFile(options_.path));
  if (!existed) return CreateFresh();
  MODELARDB_ASSIGN_OR_RETURN(int64_t size, env_->FileSize(options_.path));
  if (size == 0) return CreateFresh();
  MODELARDB_RETURN_NOT_OK(Remap());

  // Recovery: newest root whose own CRC and whose table both check out.
  // The older root is the fallback for a commit torn mid-flip.
  const uint8_t* base = map_->data();
  const size_t mapped = map_->size();
  RootHeader roots[2];
  bool valid[2] = {false, false};
  valid[0] = ParseRoot(base, mapped, &roots[0]);
  if (mapped >= kSlotSize + kRootBytes) {
    valid[1] = ParseRoot(base + kSlotSize, mapped - kSlotSize, &roots[1]);
  }
  int order[2] = {0, 1};
  if (valid[1] && (!valid[0] || roots[1].epoch > roots[0].epoch)) {
    order[0] = 1;
    order[1] = 0;
  }
  for (int which : order) {
    if (!valid[which]) continue;
    const RootHeader& root = roots[which];
    uint64_t off = root.table_offset;
    uint64_t len = root.table_size;
    if (len > 0 &&
        (off < kDataStart || off + len > mapped ||
         Crc32c(base + off, static_cast<size_t>(len)) != root.table_crc)) {
      continue;  // Table torn or missing: this root never fully landed.
    }
    committed_.clear();
    free_.clear();
    next_id_ = 1;
    if (len > 0 &&
        !ParseTable(base + off, static_cast<size_t>(len)).ok()) {
      continue;  // CRC'd yet unparseable: try the fallback root.
    }
    // Tables written before Commit carved the table's extent ahead of its
    // serialization may list that extent as free; it holds the live table.
    if (len > 0) TrimFree(off, len);
    epoch_ = root.epoch;
    watermark_ = root.wal_watermark;
    frontier_ = std::max<uint64_t>(root.file_end, kDataStart);
    table_offset_ = root.table_offset;
    table_size_ = root.table_size;
    return Status::OK();
  }
  if (static_cast<uint64_t>(size) <= kDataStart) {
    // The file died before its first root sync was acknowledged — nothing
    // was ever committed, so an empty slab is the correct recovery.
    MODELARDB_RETURN_NOT_OK(env_->TruncateFile(options_.path, 0));
    return CreateFresh();
  }
  return Status::Corruption("no valid slab root in " + options_.path);
}

Status SlabFile::ParseTable(const uint8_t* data, size_t size) {
  BufferReader reader(data, size);
  MODELARDB_ASSIGN_OR_RETURN(next_id_, reader.ReadVarint());
  MODELARDB_ASSIGN_OR_RETURN(uint64_t blocks, reader.ReadVarint());
  for (uint64_t i = 0; i < blocks; ++i) {
    BlockEntry entry;
    MODELARDB_ASSIGN_OR_RETURN(entry.id, reader.ReadVarint());
    MODELARDB_ASSIGN_OR_RETURN(entry.tag, reader.ReadVarint());
    MODELARDB_ASSIGN_OR_RETURN(entry.offset, reader.ReadVarint());
    MODELARDB_ASSIGN_OR_RETURN(uint64_t bsize, reader.ReadVarint());
    entry.size = static_cast<uint32_t>(bsize);
    MODELARDB_ASSIGN_OR_RETURN(entry.crc, reader.ReadU32());
    entry.pins = std::make_shared<std::atomic<int64_t>>(0);
    committed_[entry.id] = std::move(entry);
  }
  MODELARDB_ASSIGN_OR_RETURN(uint64_t frees, reader.ReadVarint());
  for (uint64_t i = 0; i < frees; ++i) {
    FreeExtent extent;
    MODELARDB_ASSIGN_OR_RETURN(extent.offset, reader.ReadVarint());
    MODELARDB_ASSIGN_OR_RETURN(extent.size, reader.ReadVarint());
    free_.push_back(std::move(extent));
  }
  return Status::OK();
}

std::vector<uint8_t> SlabFile::SerializeRoot(uint64_t epoch,
                                             uint64_t table_offset,
                                             uint64_t table_size,
                                             uint32_t table_crc,
                                             uint64_t wal_watermark) const {
  BufferWriter writer;
  writer.WriteU32(kRootMagic);
  writer.WriteU32(kFormatVersion);
  writer.WriteU64(epoch);
  writer.WriteU64(frontier_);
  writer.WriteU64(table_offset);
  writer.WriteU64(table_size);
  writer.WriteU32(table_crc);
  writer.WriteU64(wal_watermark);
  std::vector<uint8_t> bytes = writer.Finish();
  uint32_t crc = Crc32c(bytes.data(), bytes.size());
  BufferWriter tail;
  tail.WriteU32(crc);
  std::vector<uint8_t> crc_bytes = tail.Finish();
  bytes.insert(bytes.end(), crc_bytes.begin(), crc_bytes.end());
  return bytes;
}

std::vector<uint8_t> SlabFile::SerializeTable() const {
  // The table describes the post-commit state: committed blocks (frees are
  // already removed from committed_) plus everything staged this round,
  // and a free list that includes this round's frees and the PREVIOUS
  // table's extent — both unreachable from the root being written, and
  // both still live under the current root, which is exactly the two-
  // version copy-on-write invariant.
  BufferWriter writer;
  writer.WriteVarint(next_id_);
  writer.WriteVarint(committed_.size() + staged_.size());
  auto write_entry = [&writer](const BlockEntry& entry) {
    writer.WriteVarint(entry.id);
    writer.WriteVarint(entry.tag);
    writer.WriteVarint(entry.offset);
    writer.WriteVarint(entry.size);
    writer.WriteU32(entry.crc);
  };
  for (const auto& [id, entry] : committed_) write_entry(entry);
  for (const BlockEntry& entry : staged_) write_entry(entry);
  size_t frees = free_.size() + pending_free_.size() +
                 (table_size_ > 0 ? 1 : 0);
  writer.WriteVarint(frees);
  auto write_free = [&writer](uint64_t offset, uint64_t size) {
    writer.WriteVarint(offset);
    writer.WriteVarint(size);
  };
  for (const FreeExtent& extent : free_) write_free(extent.offset, extent.size);
  for (const BlockEntry& entry : pending_free_) {
    write_free(entry.offset, entry.size);
  }
  if (table_size_ > 0) write_free(table_offset_, table_size_);
  return writer.Finish();
}

Result<uint64_t> SlabFile::Allocate(uint64_t size) {
  // First fit over reusable extents (freed before the last commit, no
  // reader or lease holding them); Commit coalesces them.
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->pins != nullptr && it->pins->load(std::memory_order_acquire) > 0) {
      continue;
    }
    if (it->size < size) continue;
    uint64_t offset = it->offset;
    if (it->zombie_id != 0) {
      // The freed block's bytes are about to be overwritten: its id stops
      // resolving from here on.
      zombies_.erase(it->zombie_id);
      it->zombie_id = 0;
    }
    if (it->size == size) {
      free_.erase(it);
    } else {
      it->offset += size;
      it->size -= size;
    }
    return offset;
  }
  uint64_t offset = frontier_;
  frontier_ += size;
  return offset;
}

void SlabFile::TrimFree(uint64_t offset, uint64_t size) {
  const uint64_t end = offset + size;
  std::vector<FreeExtent> kept;
  for (FreeExtent& extent : free_) {
    const uint64_t extent_end = extent.offset + extent.size;
    if (extent_end <= offset || extent.offset >= end) {
      kept.push_back(std::move(extent));
      continue;
    }
    if (extent.offset < offset) {
      kept.push_back(FreeExtent{extent.offset, offset - extent.offset});
    }
    if (extent_end > end) kept.push_back(FreeExtent{end, extent_end - end});
  }
  free_ = std::move(kept);
}

void SlabFile::CoalesceFree() {
  // Without merging, checkpoints whose payload and table sizes drift split
  // the free list into ever more fragments that no later request fits, and
  // the table (which lists every free extent) grows with it: each commit
  // would put a larger table at the frontier, and a store checkpointing in
  // a loop would grow its file without bound. Extents a reader or lease
  // still holds stay as they are.
  std::vector<FreeExtent> held;
  std::vector<FreeExtent> idle;
  for (FreeExtent& extent : free_) {
    const bool pinned = extent.pins != nullptr &&
                        extent.pins->load(std::memory_order_acquire) > 0;
    (pinned ? held : idle).push_back(std::move(extent));
  }
  std::sort(idle.begin(), idle.end(),
            [](const FreeExtent& a, const FreeExtent& b) {
              return a.offset < b.offset;
            });
  // A merged extent no longer names one freed block: its zombie ids stop
  // resolving, as on reuse.
  auto forget = [this](FreeExtent* extent) {
    if (extent->zombie_id != 0) zombies_.erase(extent->zombie_id);
    extent->zombie_id = 0;
    extent->pins = nullptr;
  };
  std::vector<FreeExtent> merged;
  for (FreeExtent& extent : idle) {
    if (!merged.empty() &&
        merged.back().offset + merged.back().size == extent.offset) {
      forget(&merged.back());
      forget(&extent);
      merged.back().size += extent.size;
    } else {
      merged.push_back(std::move(extent));
    }
  }
  // A free run that ends at the frontier returns to it.
  if (!merged.empty() &&
      merged.back().offset + merged.back().size == frontier_) {
    forget(&merged.back());
    frontier_ = merged.back().offset;
    merged.pop_back();
  }
  free_ = std::move(held);
  free_.insert(free_.end(), std::make_move_iterator(merged.begin()),
               std::make_move_iterator(merged.end()));
}

Result<uint64_t> SlabFile::StageBlock(ByteSpan payload, uint64_t tag) {
  MutexLock lock(mutex_);
  if (rw_ == nullptr) return Status::IOError("slab closed");
  BlockEntry entry;
  entry.id = next_id_++;
  entry.tag = tag;
  MODELARDB_ASSIGN_OR_RETURN(entry.offset, Allocate(payload.size()));
  entry.size = static_cast<uint32_t>(payload.size());
  entry.crc = Crc32c(payload.data(), payload.size());
  entry.verified = true;  // We just computed it from the source bytes.
  entry.pins = std::make_shared<std::atomic<int64_t>>(0);
  Status write_status =
      rw_->WriteAt(entry.offset, payload.data(), payload.size());
  if (!write_status.ok()) {
    // Return the extent so a failed stage does not leak file space.
    free_.push_back(FreeExtent{entry.offset, entry.size, nullptr});
    return write_status;
  }
  uint64_t id = entry.id;
  staged_.push_back(std::move(entry));
  SlabCheckpointedBlocks().Add();
  return id;
}

Status SlabFile::FreeBlock(uint64_t id) {
  MutexLock lock(mutex_);
  auto it = committed_.find(id);
  if (it == committed_.end()) {
    return Status::NotFound("slab block " + std::to_string(id));
  }
  // The full entry moves to pending_free_ so the block stays readable
  // until its extent is actually reused, and so AbortCheckpoint can put
  // it back verbatim.
  pending_free_.push_back(std::move(it->second));
  committed_.erase(it);
  SlabFreedBlocks().Add();
  return Status::OK();
}

Status SlabFile::Commit(uint64_t wal_watermark) {
  MutexLock lock(mutex_);
  if (rw_ == nullptr) return Status::IOError("slab closed");
  // 1. The new table goes to its own copy-on-write extent. It is carved
  //    before the final serialization, so the table never lists its own
  //    extent as free (a reopened slab would hand it out and overwrite the
  //    live table); kTableSlack covers what the carve adds. The table is
  //    zero-padded to its extent (ParseTable ignores the padding), so
  //    freeing it later returns exactly what was allocated.
  std::vector<uint8_t> table = SerializeTable();
  uint64_t new_table_offset = 0;
  if (!table.empty()) {
    const uint64_t extent = table.size() + kTableSlack;
    MODELARDB_ASSIGN_OR_RETURN(new_table_offset, Allocate(extent));
    table = SerializeTable();
    if (table.size() > extent) {
      free_.push_back(FreeExtent{new_table_offset, extent, nullptr});
      return Status::Internal("slab table outgrew its extent");
    }
    table.resize(extent, 0);
  }
  Status io = Status::OK();
  if (!table.empty()) {
    io = rw_->WriteAt(new_table_offset, table.data(), table.size());
  }
  // 2. Barrier: every staged payload and the table are on the device
  //    before any root can reference them.
  if (io.ok()) io = rw_->Sync();
  // 3. The root flip: one small write into the slot the epoch before last
  //    occupied, then the barrier that commits the checkpoint. Tearing
  //    this write only damages the slot being replaced — recovery falls
  //    back to the intact current root.
  const uint64_t new_epoch = epoch_ + 1;
  std::vector<uint8_t> root =
      SerializeRoot(new_epoch, new_table_offset, table.size(),
                    Crc32c(table.data(), table.size()), wal_watermark);
  if (io.ok()) {
    io = rw_->WriteAt((new_epoch % 2) * kSlotSize, root.data(), root.size());
  }
  if (io.ok()) io = rw_->Sync();
  if (!io.ok()) {
    // The durable state is still the old root; return the table extent so
    // the failed attempt leaks no file space.
    if (!table.empty()) {
      free_.push_back(FreeExtent{new_table_offset, table.size(), nullptr});
    }
    return io;
  }

  // Durable: fold the staged state into the committed view.
  for (BlockEntry& entry : staged_) {
    committed_[entry.id] = std::move(entry);
  }
  staged_.clear();
  for (BlockEntry& entry : pending_free_) {
    FreeExtent extent;
    extent.offset = entry.offset;
    extent.size = entry.size;
    extent.pins = entry.pins;  // Reuse waits for readers/leases to drain.
    extent.zombie_id = entry.id;
    free_.push_back(std::move(extent));
    uint64_t id = entry.id;
    zombies_[id] = std::move(entry);  // Readable until the extent is reused.
  }
  pending_free_.clear();
  if (table_size_ > 0) {
    free_.push_back(FreeExtent{table_offset_, table_size_, nullptr});
  }
  CoalesceFree();
  table_offset_ = new_table_offset;
  table_size_ = table.size();
  epoch_ = new_epoch;
  watermark_ = wal_watermark;
  SlabCommits().Add();
  if (map_ == nullptr || frontier_ > map_->size()) {
    MODELARDB_RETURN_NOT_OK(Remap());
  }
  return Status::OK();
}

SlabFile::BlockEntry* SlabFile::FindEntry(uint64_t id) {
  auto it = committed_.find(id);
  if (it != committed_.end()) return &it->second;
  for (BlockEntry& entry : staged_) {
    if (entry.id == id) return &entry;
  }
  for (BlockEntry& entry : pending_free_) {
    if (entry.id == id) return &entry;
  }
  auto zombie = zombies_.find(id);
  if (zombie != zombies_.end()) return &zombie->second;
  return nullptr;
}

void SlabFile::AbortCheckpoint() {
  MutexLock lock(mutex_);
  // Staged extents were never reachable from any root: hand them straight
  // back to the allocator. They carry their pin counters — the caller may
  // still hold leases on them for a beat while it rolls back.
  for (BlockEntry& entry : staged_) {
    FreeExtent extent;
    extent.offset = entry.offset;
    extent.size = entry.size;
    extent.pins = std::move(entry.pins);
    free_.push_back(std::move(extent));
  }
  staged_.clear();
  // Frees never landed in a durable table: the blocks are still live.
  for (BlockEntry& entry : pending_free_) {
    uint64_t id = entry.id;
    committed_[id] = std::move(entry);
  }
  pending_free_.clear();
}

Result<SlabFile::BlockLease> SlabFile::LeaseBlock(uint64_t id) {
  MutexLock lock(mutex_);
  BlockEntry* entry = FindEntry(id);
  if (entry == nullptr) {
    return Status::NotFound("slab block " + std::to_string(id));
  }
  std::shared_ptr<std::atomic<int64_t>> pins = entry->pins;
  pins->fetch_add(1, std::memory_order_acq_rel);
  return BlockLease(static_cast<void*>(nullptr), [pins](void*) {
    pins->fetch_sub(1, std::memory_order_acq_rel);
  });
}

Result<SlabFile::Pin> SlabFile::ReadBlock(uint64_t id) {
  MutexLock lock(mutex_);
  BlockEntry* found = FindEntry(id);
  if (found == nullptr) {
    return Status::NotFound("slab block " + std::to_string(id));
  }
  BlockEntry& entry = *found;
  if (map_ == nullptr || entry.offset + entry.size > map_->size()) {
    // Defensive: commits remap eagerly, so a stale mapping here means the
    // file changed underneath us. Remap and re-check.
    MODELARDB_RETURN_NOT_OK(Remap());
    if (entry.offset + entry.size > map_->size()) {
      return Status::Corruption("slab block " + std::to_string(id) +
                                " extends past " + options_.path);
    }
  }
  const uint8_t* data = map_->data() + entry.offset;
  if (!entry.verified) {
    if (Crc32c(data, entry.size) != entry.crc) {
      return Status::Corruption("slab block " + std::to_string(id) +
                                " CRC mismatch in " + options_.path);
    }
    entry.verified = true;
  }
  Pin pin;
  pin.map_ = map_;
  pin.data_ = data;
  pin.size_ = entry.size;
  pin.tag_ = entry.tag;
  std::shared_ptr<std::atomic<int64_t>> pins = entry.pins;
  pins->fetch_add(1, std::memory_order_acq_rel);
  pin.refcount_guard_ = std::shared_ptr<void>(
      static_cast<void*>(nullptr), [pins](void*) {
        pins->fetch_sub(1, std::memory_order_acq_rel);
      });
  SlabZeroCopyBytes().Add(static_cast<int64_t>(entry.size));
  return pin;
}

std::vector<std::pair<uint64_t, uint64_t>> SlabFile::ListBlocks() const {
  MutexLock lock(mutex_);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(committed_.size());
  for (const auto& [id, entry] : committed_) out.emplace_back(id, entry.tag);
  return out;
}

uint64_t SlabFile::wal_watermark() const {
  MutexLock lock(mutex_);
  return watermark_;
}

uint64_t SlabFile::epoch() const {
  MutexLock lock(mutex_);
  return epoch_;
}

SlabStats SlabFile::stats() const {
  MutexLock lock(mutex_);
  SlabStats out;
  out.epoch = epoch_;
  out.wal_watermark = watermark_;
  out.block_count = committed_.size();
  out.mapped_bytes = map_ != nullptr ? map_->size() : 0;
  out.remaps = remaps_;
  out.file_end = frontier_;
  return out;
}

}  // namespace modelardb
