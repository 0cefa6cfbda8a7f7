#include "storage/segment_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "obs/event_ring.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "obs/watchdog.h"
#include "util/buffer.h"
#include "util/logging.h"

namespace modelardb {
namespace {

// Cached references into the global registry (stable for process life).
obs::Counter& StorePutTotal() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kStorePutTotal);
  return counter;
}
obs::Counter& StoreFlushTotal() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kStoreFlushTotal);
  return counter;
}
obs::Counter& StoreCowCopies() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kStoreCowCopiesTotal);
  return counter;
}
obs::Counter& StoreBlockRebuilds() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kStoreBlockRebuildsTotal);
  return counter;
}
obs::Counter& RecoveryBlocksReplayed() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kRecoveryBlocksReplayedTotal);
  return counter;
}
obs::Counter& RecoverySegmentsReplayed() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kRecoverySegmentsReplayedTotal);
  return counter;
}
obs::Counter& RecoveryTornTails() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kRecoveryTornTailsTruncatedTotal);
  return counter;
}
obs::Counter& RecoveryQuarantinedBytes() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kRecoveryQuarantinedBytesTotal);
  return counter;
}
obs::Counter& SlabCopiedScanBytes() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kSlabCopiedScanBytesTotal);
  return counter;
}
obs::Histogram& SlabCheckpointSeconds() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(obs::kSlabCheckpointSeconds);
  return histogram;
}

// Feeds one scan's pruning counters into the cumulative store metrics.
void RecordScanStats(const ScanStats& stats) {
  if (!obs::Enabled()) return;
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& skipped =
      registry.GetCounter(obs::kStoreScanBlocksSkippedTotal);
  static obs::Counter& summarized =
      registry.GetCounter(obs::kStoreScanBlocksSummarizedTotal);
  static obs::Counter& scanned =
      registry.GetCounter(obs::kStoreScanBlocksScannedTotal);
  static obs::Counter& segments =
      registry.GetCounter(obs::kStoreScanSegmentsTotal);
  if (stats.blocks_skipped != 0) skipped.Add(stats.blocks_skipped);
  if (stats.blocks_summarized != 0) summarized.Add(stats.blocks_summarized);
  if (stats.blocks_scanned != 0) scanned.Add(stats.blocks_scanned);
  if (stats.segments_scanned != 0) segments.Add(stats.segments_scanned);
}

bool SegmentLess(const Segment& a, const Segment& b) {
  return std::tie(a.end_time, a.gap_mask) < std::tie(b.end_time, b.gap_mask);
}

// Slab tag of the cold-index block (real blocks are tagged with their Gid,
// which is never negative, let alone all-ones).
constexpr uint64_t kColdIndexTag = ~uint64_t{0};
// v3 carries each block's whole index, so Open reads no data pages.
constexpr uint64_t kColdIndexVersion = 3;

// First block index whose block fails `before`; `before` must hold for a
// prefix of the group's blocks (they are in clustering order).
template <typename Group, typename Pred>
size_t FirstBlockNot(const Group& group, Pred before) {
  size_t lo = 0, hi = group.num_blocks();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (before(group.block(mid))) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Status BlockView::PinPayload(SlabFile::Pin* pin, BufferReader* reader) const {
  if (slab == nullptr) {
    return Status::IOError("leased block without a slab file");
  }
  MODELARDB_ASSIGN_OR_RETURN(*pin, slab->ReadBlock(block->slab_id));
  if (stats != nullptr) ++stats->cold_pins;
  *reader = BufferReader(pin->bytes());
  MODELARDB_ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarint());
  if (count != block->count) {
    return Status::Corruption("slab block " + std::to_string(block->slab_id) +
                              " holds " + std::to_string(count) +
                              " segments, its index says " +
                              std::to_string(block->count));
  }
  return Status::OK();
}

SegmentStore::SegmentStore(SegmentStoreOptions options)
    : options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  if (!options_.directory.empty()) {
    log_path_ = options_.directory + "/segments.log";
  }
}

SegmentStore::~SegmentStore() {
  // Best effort: persist whatever is still buffered, then sync + close.
  MutexLock lock(mutex_);
  if (!write_buffer_.empty()) (void)FlushLocked();
  if (wal_ != nullptr) (void)wal_->Close();
}

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const SegmentStoreOptions& options) {
  if (options.block_size == 0) {
    return Status::InvalidArgument("SegmentStoreOptions::block_size is 0");
  }
  std::unique_ptr<SegmentStore> store(new SegmentStore(options));
  if (!options.directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.directory, ec);
    if (ec) {
      return Status::IOError("cannot create directory " + options.directory +
                             ": " + ec.message());
    }
    MODELARDB_RETURN_NOT_OK(store->ReplayLog());
  }
  return store;
}

Status SegmentStore::ReplayLog() {
  // Replay runs before Open() returns, so no other thread can see the
  // store yet; the (uncontended) lock is taken anyway to satisfy the
  // GUARDED_BY(index_) contract rather than punching an analysis hole.
  MutexLock lock(mutex_);
  // Cold half first: recover the slab's newest durable root, load the
  // cold index, and take its WAL watermark — everything the slab covers
  // never gets re-read, which is what makes cold opens cheap.
  uint64_t watermark = 0;
  if (env_->FileExists(SlabPath())) {
    SlabFileOptions slab_options;
    slab_options.env = env_;
    slab_options.path = SlabPath();
    MODELARDB_ASSIGN_OR_RETURN(std::unique_ptr<SlabFile> slab,
                               SlabFile::Open(slab_options));
    slab_ = std::move(slab);
    MODELARDB_RETURN_NOT_OK(LoadColdIndex());
    watermark = slab_->wal_watermark();
  }
  wal_bytes_total_ = watermark;
  if (!env_->FileExists(log_path_)) return Status::OK();  // Fresh store.
  MODELARDB_ASSIGN_OR_RETURN(int64_t log_size, env_->FileSize(log_path_));
  if (static_cast<uint64_t>(log_size) < watermark) {
    // The log lost an unsynced tail the slab already covers. Zero-extend
    // to the watermark so future appends land past it and the next replay
    // still starts exactly there (the zeros are never read back).
    MODELARDB_RETURN_NOT_OK(
        env_->TruncateFile(log_path_, static_cast<int64_t>(watermark)));
  }
  // Only the suffix the slab does not cover is read and replayed.
  MODELARDB_ASSIGN_OR_RETURN(std::vector<uint8_t> file,
                             env_->ReadFileRange(log_path_, watermark));
  // Parse the block sequence. Interior corruption fails the open here; a
  // torn tail (crash debris) is reported and salvaged around below.
  MODELARDB_ASSIGN_OR_RETURN(WalReadResult wal,
                             ReadWalBlocks(file.data(), file.size(),
                                           log_path_));
  std::map<Gid, std::vector<Segment>> replayed;
  for (const WalBlockRef& ref : wal.blocks) {
    BufferReader block(file.data() + ref.payload_offset, ref.payload_size);
    MODELARDB_ASSIGN_OR_RETURN(uint64_t count, block.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      // A v2 block passed its CRC, so a payload that does not parse is a
      // writer-side format bug, not disk damage — surface it loudly.
      MODELARDB_ASSIGN_OR_RETURN(Segment segment,
                                 Segment::Deserialize(&block));
      replayed[segment.gid].push_back(std::move(segment));
      ++recovery_info_.segments_replayed;
    }
    ++recovery_info_.blocks_replayed;
  }
  RecoveryBlocksReplayed().Add(recovery_info_.blocks_replayed);
  RecoverySegmentsReplayed().Add(recovery_info_.segments_replayed);
  obs::EventRing::Global().Record(obs::EventKind::kRecovery,
                                  recovery_info_.blocks_replayed,
                                  recovery_info_.segments_replayed, "replay");
  if (wal.torn_tail) {
    MODELARDB_RETURN_NOT_OK(
        QuarantineTornTail(file, wal.valid_bytes, wal.torn_reason,
                           watermark));
  }
  disk_bytes_ = static_cast<int64_t>(watermark + wal.valid_bytes);
  wal_bytes_total_ = watermark + wal.valid_bytes;
  for (auto& [gid, segments] : replayed) {
    // Sorted first, so the replay appends into full blocks; the stable sort
    // keeps equal keys in log order, as the live store had them.
    std::stable_sort(segments.begin(), segments.end(), SegmentLess);
    GroupData* data = SlotFor(gid).data.get();
    const size_t n = segments.size();
    num_segments_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
    if (data->num_blocks() > 0) {
      // The slab holds some of the group: insert among its blocks.
      for (Segment& segment : segments) {
        MODELARDB_RETURN_NOT_OK(InsertLocked(data, std::move(segment)));
      }
      continue;
    }
    // An empty group takes the sorted run whole, in the layout puts in
    // clustering order would have given it.
    std::vector<double> summary;
    for (Segment& segment : segments) {
      const double* columns = BuildSummary(segment, data->width, &summary);
      AppendToBlock(&data->tail, std::move(segment), columns, data->width);
      SealTailIfFull(data);
    }
    UpdateSuffixFences(data, 0);
  }
  return Status::OK();
}

Status SegmentStore::QuarantineTornTail(const std::vector<uint8_t>& file,
                                        size_t valid_bytes,
                                        const std::string& reason,
                                        uint64_t base_offset) {
  const size_t tail_bytes = file.size() - valid_bytes;
  // Preserve the debris for postmortems before destroying it: append the
  // tail to the .corrupt sidecar, then truncate the log to the last whole
  // block so the next append starts on a clean boundary. `file` starts at
  // base_offset (the slab watermark when replay skipped a covered prefix).
  MODELARDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableLog> sidecar,
                             env_->NewWritableLog(CorruptSidecarPath()));
  MODELARDB_RETURN_NOT_OK(
      sidecar->Append(file.data() + valid_bytes, tail_bytes));
  MODELARDB_RETURN_NOT_OK(sidecar->Sync());
  MODELARDB_RETURN_NOT_OK(sidecar->Close());
  MODELARDB_RETURN_NOT_OK(env_->TruncateFile(
      log_path_, static_cast<int64_t>(base_offset + valid_bytes)));
  recovery_info_.torn_tail = true;
  recovery_info_.quarantined_bytes = static_cast<int64_t>(tail_bytes);
  recovery_info_.torn_reason = reason;
  RecoveryTornTails().Add();
  RecoveryQuarantinedBytes().Add(static_cast<int64_t>(tail_bytes));
  obs::EventRing::Global().Record(obs::EventKind::kQuarantine,
                                  static_cast<int64_t>(tail_bytes), 0,
                                  "torn_tail");
  MODELARDB_LOG(kWarn) << "salvaged torn WAL tail in " << log_path_ << ": "
                       << reason << "; quarantined " << tail_bytes
                       << " bytes to " << CorruptSidecarPath();
  return Status::OK();
}

int SegmentStore::SummaryWidth(Gid gid) const {
  auto it = options_.group_sizes.find(gid);
  if (options_.registry == nullptr || it == options_.group_sizes.end()) {
    return 0;
  }
  return it->second <= 64 ? std::max(it->second, 0) : 0;
}

const double* SegmentStore::BuildSummary(const Segment& segment,
                                         int group_size,
                                         std::vector<double>* out) const {
  if (group_size == 0) return nullptr;
  int64_t length = segment.Length();
  int represented = segment.RepresentedSeries(group_size);
  if (length <= 0 || represented == 0) return nullptr;
  auto decoder = options_.registry->CreateDecoder(
      segment.mid, segment.parameters, represented,
      static_cast<int>(length));
  if (!decoder.ok()) return nullptr;
  out->resize(3 * static_cast<size_t>(represented));
  for (int col = 0; col < represented; ++col) {
    AggregateSummary summary =
        (*decoder)->AggregateRange(0, static_cast<int>(length) - 1, col);
    (*out)[3 * col] = summary.sum;
    (*out)[3 * col + 1] = summary.min;
    (*out)[3 * col + 2] = summary.max;
  }
  return out->data();
}

void SegmentStore::AppendToBlock(SealedBlock* block, Segment&& segment,
                                 const double* summary, int group_size) {
  if (block->count == 0 && group_size > 0) {
    block->has_summaries = true;
    block->counts.assign(group_size, 0);
    block->mins.assign(group_size, 0.0);
    block->maxs.assign(group_size, 0.0);
  }
  block->min_start_time = std::min(block->min_start_time, segment.start_time);
  block->max_end_time = segment.end_time;  // Appends come in key order.
  block->min_value = std::min(block->min_value, segment.min_value);
  block->max_value = std::max(block->max_value, segment.max_value);
  block->gap_masks.push_back(segment.gap_mask);
  block->lengths.push_back(segment.Length());
  if (block->has_summaries && summary == nullptr) {
    // One segment without a summary drops the whole block's: all or none.
    // The fences, gap masks and lengths stay valid.
    block->has_summaries = false;
    block->counts.clear();
    block->mins.clear();
    block->maxs.clear();
    block->summaries.clear();
  } else if (block->has_summaries) {
    const int64_t length = block->lengths.back();
    int col = 0;
    for (int pos = 0; pos < group_size; ++pos) {
      if (segment.SeriesInGap(pos)) continue;
      const double min = summary[3 * col + 1];
      const double max = summary[3 * col + 2];
      if (block->counts[pos] == 0) {
        block->mins[pos] = min;
        block->maxs[pos] = max;
      } else {
        block->mins[pos] = std::min(block->mins[pos], min);
        block->maxs[pos] = std::max(block->maxs[pos], max);
      }
      block->counts[pos] += length;
      ++col;
    }
    block->summaries.insert(block->summaries.end(), summary,
                            summary + 3 * col);
  }
  block->segments.push_back(std::move(segment));
  ++block->count;
}

void SegmentStore::SealTailIfFull(GroupData* data) const {
  if (data->tail.count >= options_.block_size) {
    data->sealed.push_back(
        std::make_shared<const SealedBlock>(std::move(data->tail)));
    data->tail = SealedBlock{};
  }
}

SealedBlock SegmentStore::BuildBlock(
    int group_size, std::vector<Segment>* segments,
    const std::vector<const double*>& summaries, size_t begin, size_t end) {
  SealedBlock block;
  block.segments.reserve(end - begin);
  block.gap_masks.reserve(end - begin);
  block.lengths.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    AppendToBlock(&block, std::move((*segments)[i]), summaries[i],
                  group_size);
  }
  return block;
}

void SegmentStore::UpdateSuffixFences(GroupData* data, size_t from) {
  const size_t n = data->sealed.size();
  data->suffix_min_start.resize(n + 1);
  Timestamp suffix = data->tail.min_start_time;  // max() when empty.
  data->suffix_min_start[n] = suffix;
  for (size_t i = n; i-- > 0;) {
    suffix = std::min(suffix, data->sealed[i]->min_start_time);
    // Blocks before `from` are unchanged: once a fence stands, so do all
    // earlier ones.
    if (i < from && data->suffix_min_start[i] == suffix) break;
    data->suffix_min_start[i] = suffix;
  }
}

Status SegmentStore::Put(const Segment& segment) {
  MutexLock lock(mutex_);
  return PutLocked(segment);
}

SegmentStore::GroupSlot& SegmentStore::SlotFor(Gid gid) {
  GroupSlot& slot = index_[gid];
  if (!slot.data) {
    slot.data = std::make_shared<GroupData>();
    slot.data->gid = gid;
    slot.data->width = SummaryWidth(gid);
  }
  return slot;
}

Status SegmentStore::PutLocked(const Segment& segment) {
  GroupSlot& slot = SlotFor(segment.gid);
  if (slot.snapshotted) {
    // A running scan may still iterate this group's data: leave it intact
    // and mutate a private copy (copy-on-write). Sealed blocks are shared.
    slot.data = std::make_shared<GroupData>(*slot.data);
    slot.snapshotted = false;
    StoreCowCopies().Add();
  }
  StorePutTotal().Add();
  MODELARDB_RETURN_NOT_OK(InsertLocked(slot.data.get(), Segment(segment)));
  num_segments_.fetch_add(1, std::memory_order_relaxed);
  if (!log_path_.empty()) {
    write_buffer_.push_back(segment);
    if (write_buffer_.size() >= options_.bulk_write_size) {
      MODELARDB_RETURN_NOT_OK(FlushLocked());
    }
  }
  return Status::OK();
}

Status SegmentStore::InsertLocked(GroupData* data, Segment&& segment) {
  const Gid gid = data->gid;
  const int width = data->width;
  std::vector<double> summary;
  const double* columns = BuildSummary(segment, width, &summary);
  // The segment goes to the first block whose last key sorts after it, so
  // equal keys keep arrival order; past every block it appends.
  auto before = [&](const SealedBlock& block) {
    const uint64_t last_gap_mask = block.last_gap_mask();
    return std::tie(block.max_end_time, last_gap_mask) <=
           std::tie(segment.end_time, segment.gap_mask);
  };
  size_t target = data->num_blocks();
  if (target > 0 && !before(data->block(target - 1))) {
    target = FirstBlockNot(*data, before);
  }
  const size_t sealed = data->sealed.size();
  if (target == data->num_blocks()) {
    // Common case: appends arrive in clustering order per group.
    AppendToBlock(&data->tail, std::move(segment), columns, width);
  } else {
    // Out of order (rare; ingestion appends in EndTime order): rebuild
    // the one block the segment lands in. The new blocks copy the old
    // one's summaries, so they are built before it is replaced.
    std::vector<Segment> segments;
    std::vector<const double*> summaries;
    MODELARDB_RETURN_NOT_OK(
        MaterializeBlock(data->block(target), &segments, &summaries));
    const auto at = std::upper_bound(segments.begin(), segments.end(),
                                     segment, SegmentLess);
    summaries.insert(summaries.begin() + (at - segments.begin()), columns);
    segments.insert(at, std::move(segment));
    StoreBlockRebuilds().Add();
    obs::EventRing::Global().Record(obs::EventKind::kBlockRebuild,
                                    static_cast<int64_t>(gid),
                                    static_cast<int64_t>(segments.size()),
                                    "cow_rebuild");
    if (target == sealed) {
      data->tail =
          BuildBlock(width, &segments, summaries, 0, segments.size());
    } else {
      // A full block splits in two, leaving room for later inserts.
      const SealedBlock& old = *data->sealed[target];
      if (old.leased()) retired_slab_ids_.push_back(old.slab_id);
      const size_t chunk = segments.size() > options_.block_size
                               ? (segments.size() + 1) / 2
                               : segments.size();
      std::vector<BlockPtr> blocks =
          SealRun(width, std::move(segments), summaries, chunk);
      data->sealed.erase(data->sealed.begin() + target);
      data->sealed.insert(data->sealed.begin() + target, blocks.begin(),
                          blocks.end());
      UpdateSuffixFences(data, target);
      return Status::OK();
    }
  }
  SealTailIfFull(data);
  UpdateSuffixFences(data, sealed);
  return Status::OK();
}

std::vector<SegmentStore::BlockPtr> SegmentStore::SealRun(
    int group_size, std::vector<Segment> segments,
    const std::vector<const double*>& summaries, size_t chunk) {
  std::vector<BlockPtr> blocks;
  for (size_t begin = 0; begin < segments.size(); begin += chunk) {
    blocks.push_back(std::make_shared<const SealedBlock>(
        BuildBlock(group_size, &segments, summaries, begin,
                   std::min(begin + chunk, segments.size()))));
  }
  return blocks;
}

Status SegmentStore::MaterializeBlock(
    const SealedBlock& block, std::vector<Segment>* segments,
    std::vector<const double*>* summaries) const {
  BlockView view;
  view.block = &block;
  view.slab = slab_.get();
  int64_t copied = 0;
  MODELARDB_RETURN_NOT_OK(view.ForEachSegment(
      [&](const Segment& segment, const double* summary) {
        segments->push_back(segment);  // Deep-copies borrowed parameters.
        summaries->push_back(summary);
        copied += static_cast<int64_t>(segment.StorageBytes());
        return Status::OK();
      }));
  if (block.leased()) SlabCopiedScanBytes().Add(copied);
  return Status::OK();
}

Status SegmentStore::PutBatch(const std::vector<Segment>& segments) {
  MutexLock lock(mutex_);
  for (const Segment& segment : segments) {
    MODELARDB_RETURN_NOT_OK(PutLocked(segment));
  }
  return Status::OK();
}

Status SegmentStore::WriteBlock(const std::vector<Segment>& segments) {
  if (wal_ == nullptr) {
    WalWriterOptions wal_options;
    wal_options.sync_policy = options_.wal_sync_policy;
    wal_options.sync_every_n_blocks = options_.wal_sync_every_n_blocks;
    MODELARDB_ASSIGN_OR_RETURN(wal_,
                               WalWriter::Open(env_, log_path_, wal_options));
  }
  BufferWriter payload;
  payload.WriteVarint(segments.size());
  for (const Segment& segment : segments) segment.SerializeTo(&payload);
  const int64_t before = wal_->bytes_appended();
  MODELARDB_RETURN_NOT_OK(
      wal_->AppendBlock(payload.bytes().data(), payload.size()));
  const int64_t delta = wal_->bytes_appended() - before;
  disk_bytes_.fetch_add(delta, std::memory_order_relaxed);
  wal_bytes_total_ += static_cast<uint64_t>(delta);
  return Status::OK();
}

Status SegmentStore::Flush() {
  MutexLock lock(mutex_);
  return FlushLocked();
}

Status SegmentStore::SyncWal() {
  MutexLock lock(mutex_);
  MODELARDB_RETURN_NOT_OK(FlushLocked());
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

Status SegmentStore::FlushLocked() {
  if (log_path_.empty() || write_buffer_.empty()) return Status::OK();
  // The watchdog sees this flush as a live operation: if the WAL append or
  // fsync below wedges, the heartbeat goes stale and HEALTH() reports it.
  obs::HeartbeatScope heartbeat("flush");
  const int64_t flush_begin_ns = obs::MonotonicNanos();
  const int64_t flushed = static_cast<int64_t>(write_buffer_.size());
  // The buffer is kept on failure: the segments stay queryable in memory
  // and the caller sees exactly which flush failed. The WAL writer poisons
  // itself after an I/O error (appending past a possibly-torn tail would
  // turn salvageable damage into interior corruption), so durability for
  // this store is over — recovery salvages up to the last good block.
  MODELARDB_RETURN_NOT_OK(WriteBlock(write_buffer_));
  write_buffer_.clear();
  StoreFlushTotal().Add();
  obs::EventRing::Global().Record(obs::EventKind::kFlush, flushed,
                                  obs::MonotonicNanos() - flush_begin_ns);
  if (options_.slab_checkpoint_every_n_flushes > 0 && !checkpointing_ &&
      ++flushes_since_checkpoint_ >= options_.slab_checkpoint_every_n_flushes) {
    // Checkpoint failure is benign to this flush: the segments stay hot in
    // memory and in the WAL, so durability and queries are unaffected —
    // only the next open's replay stays longer.
    Status checkpoint_status = CheckpointLocked();
    if (!checkpoint_status.ok()) {
      MODELARDB_LOG(kWarn) << "slab checkpoint failed (flush unaffected): "
                           << checkpoint_status.ToString();
    }
  }
  return Status::OK();
}

Status SegmentStore::Checkpoint() {
  MutexLock lock(mutex_);
  return CheckpointLocked();
}

Status SegmentStore::CheckpointLocked() {
  if (log_path_.empty()) return Status::OK();  // In-memory: nothing cold.
  obs::HeartbeatScope heartbeat("checkpoint");
  const int64_t checkpoint_begin_ns = obs::MonotonicNanos();
  auto phase = [this](const char* name, int64_t a) {
    obs::EventRing::Global().Record(obs::EventKind::kCheckpointPhase, a, 0,
                                    name);
    if (options_.checkpoint_phase_hook) options_.checkpoint_phase_hook(name);
  };
  // Everything hot must be in the WAL before the watermark can claim to
  // cover it. The guard keeps FlushLocked's auto-trigger from recursing.
  checkpointing_ = true;
  Status flush_status = FlushLocked();
  checkpointing_ = false;
  flushes_since_checkpoint_ = 0;
  MODELARDB_RETURN_NOT_OK(flush_status);
  if (slab_ == nullptr) {
    SlabFileOptions slab_options;
    slab_options.env = env_;
    slab_options.path = SlabPath();
    MODELARDB_ASSIGN_OR_RETURN(std::shared_ptr<SlabFile> slab,
                               SlabFile::Open(slab_options));
    slab_ = std::move(slab);
  }
  // Atomicity: every mutation below happens on private copies of the group
  // data, published into index_ only after the slab root flip succeeds. Any
  // failure before that aborts the slab transaction (staged extents return
  // to the allocator, frees are restored) and discards the copies, leaving
  // the store byte-for-byte where it started — a failed checkpoint is
  // invisible except for the warning FlushLocked logs.
  auto has_hot = [](const GroupSlot& slot) {
    return slot.data != nullptr &&
           (slot.data->tail.count > 0 ||
            std::any_of(slot.data->sealed.begin(), slot.data->sealed.end(),
                        [](const BlockPtr& b) { return !b->leased(); }));
  };
  int64_t groups_to_stage = 0;
  for (const auto& [gid, slot] : index_) groups_to_stage += has_hot(slot);
  // Nothing logged, hot or retired since the last commit: the slab already
  // holds what this checkpoint would write, so it writes nothing (and a
  // checkpoint loop does not hold the mutex through two fsyncs per turn).
  if (groups_to_stage == 0 && retired_slab_ids_.empty() &&
      cold_index_block_id_ != 0 &&
      slab_->wal_watermark() == wal_bytes_total_) {
    return Status::OK();
  }
  obs::EventRing::Global().Record(obs::EventKind::kCheckpointBegin,
                                  groups_to_stage);
  std::vector<std::pair<Gid, GroupSlot>> originals;
  // Payloads no longer referenced: out-of-order rewrites since the last
  // checkpoint plus the short blocks this one coalesces.
  std::vector<uint64_t> retired = retired_slab_ids_;
  Status status = Status::OK();
  int64_t groups_staged = 0;
  for (auto& [gid, slot] : index_) {
    if (!has_hot(slot)) continue;
    auto updated = std::make_shared<GroupData>(*slot.data);
    if (slot.snapshotted) StoreCowCopies().Add();
    status = CheckpointGroupLocked(gid, updated.get(), &retired);
    if (!status.ok()) break;
    originals.emplace_back(gid, slot);
    slot.data = std::move(updated);
    slot.snapshotted = false;
    ++groups_staged;
    heartbeat.Beat();
    phase("stage_group", static_cast<int64_t>(gid));
  }
  for (uint64_t id : retired) {
    if (status.ok()) status = slab_->FreeBlock(id);
  }
  // The cold index travels with every checkpoint: free the previous copy,
  // stage the new one, and flip the root. Even a checkpoint with no new
  // segments advances the watermark and shortens the next open's replay.
  const uint64_t previous_index_block = cold_index_block_id_;
  if (status.ok() && previous_index_block != 0) {
    status = slab_->FreeBlock(previous_index_block);
  }
  if (status.ok()) {
    std::vector<uint8_t> index_bytes = SerializeColdIndex();
    Result<uint64_t> staged = slab_->StageBlock(index_bytes, kColdIndexTag);
    if (staged.ok()) {
      cold_index_block_id_ = staged.value();
    } else {
      status = staged.status();
    }
    heartbeat.Beat();
    phase("cold_index", -1);
  }
  if (status.ok()) {
    status = slab_->Commit(wal_bytes_total_);
    if (status.ok()) phase("commit", 0);
  }
  if (!status.ok()) {
    // Roll back to the pre-checkpoint state: the original group data (with
    // its snapshot flags) returns to the index, the previous cold-index id
    // is restored, and the slab transaction is aborted — staged extents go
    // back to the allocator, frees go back to the table. Dropping the
    // `updated` copies releases the leases on the blocks staged above.
    for (auto& [gid, slot] : originals) index_[gid] = std::move(slot);
    cold_index_block_id_ = previous_index_block;
    slab_->AbortCheckpoint();
    phase("abort", 0);
    return status;
  }
  retired_slab_ids_.clear();
  const int64_t duration_ns = obs::MonotonicNanos() - checkpoint_begin_ns;
  SlabCheckpointSeconds().Observe(static_cast<double>(duration_ns) * 1e-9);
  obs::EventRing::Global().Record(obs::EventKind::kCheckpointEnd,
                                  groups_staged, duration_ns);
  return Status::OK();
}

Status SegmentStore::CheckpointGroupLocked(Gid gid, GroupData* data,
                                           std::vector<uint64_t>* retired) {
  if (data->tail.count > 0) {
    // Seal the tail, coalescing a short last block into it so repeated
    // small checkpoints converge to full-size blocks. Both source blocks
    // are kept until SealRun has copied their summaries.
    std::vector<Segment> segments;
    std::vector<const double*> summaries;
    BlockPtr last;
    if (!data->sealed.empty() &&
        data->sealed.back()->count < options_.block_size) {
      last = data->sealed.back();
      MODELARDB_RETURN_NOT_OK(MaterializeBlock(*last, &segments, &summaries));
      if (last->leased()) retired->push_back(last->slab_id);
      data->sealed.pop_back();
    }
    const SealedBlock tail = std::move(data->tail);
    data->tail = SealedBlock{};
    MODELARDB_RETURN_NOT_OK(MaterializeBlock(tail, &segments, &summaries));
    for (BlockPtr& block : SealRun(data->width, std::move(segments),
                                   summaries, options_.block_size)) {
      data->sealed.push_back(std::move(block));
    }
  }
  // Swap every owned payload for a slab lease; the block's fences and
  // aggregates carry over unchanged.
  for (BlockPtr& block : data->sealed) {
    if (block->leased()) continue;
    BufferWriter payload;
    payload.WriteVarint(block->count);
    for (const Segment& segment : block->segments) {
      segment.SerializeTo(&payload);
    }
    MODELARDB_ASSIGN_OR_RETURN(uint64_t id,
                               slab_->StageBlock(payload.Finish(), gid));
    MODELARDB_ASSIGN_OR_RETURN(SlabFile::BlockLease lease,
                               slab_->LeaseBlock(id));
    auto leased = std::make_shared<SealedBlock>();
    static_cast<BlockIndex&>(*leased) = *block;  // Kept, not recomputed.
    leased->slab_id = id;
    leased->lease = std::move(lease);
    block = std::move(leased);
  }
  UpdateSuffixFences(data, 0);
  return Status::OK();
}

// Cold index v3, per group: gid, block count, then per block its slab id,
// count, fences (min StartTime, max EndTime), value zone map, the
// has_summaries flag and, iff set, the pre-folded per-position
// aggregates; then per segment its gap mask and length, and, iff set, its
// summary columns (BlockIndex::Columns of them, the width being the
// number of positions).
std::vector<uint8_t> SegmentStore::SerializeColdIndex() const {
  BufferWriter writer;
  writer.WriteVarint(kColdIndexVersion);
  size_t group_count = 0;
  for (const auto& [gid, slot] : index_) {
    if (slot.data && !slot.data->sealed.empty()) ++group_count;
  }
  writer.WriteVarint(group_count);
  for (const auto& [gid, slot] : index_) {
    if (!slot.data || slot.data->sealed.empty()) continue;
    writer.WriteVarint(static_cast<uint64_t>(static_cast<uint32_t>(gid)));
    writer.WriteVarint(slot.data->sealed.size());
    for (const BlockPtr& block : slot.data->sealed) {
      writer.WriteVarint(block->slab_id);
      writer.WriteVarint(block->count);
      writer.WriteI64(block->min_start_time);
      writer.WriteI64(block->max_end_time);
      writer.WriteFloat(block->min_value);
      writer.WriteFloat(block->max_value);
      writer.WriteU8(block->has_summaries ? 1 : 0);
      if (block->has_summaries) {
        writer.WriteVarint(block->counts.size());
        for (size_t pos = 0; pos < block->counts.size(); ++pos) {
          writer.WriteVarint(static_cast<uint64_t>(block->counts[pos]));
          writer.WriteDouble(block->mins[pos]);
          writer.WriteDouble(block->maxs[pos]);
        }
      }
      size_t offset = 0;
      for (uint32_t i = 0; i < block->count; ++i) {
        writer.WriteVarint(block->gap_masks[i]);
        writer.WriteVarint(static_cast<uint64_t>(block->lengths[i]));
        const size_t begin = offset;
        if (block->NextSummary(i, &offset) == nullptr) continue;
        for (size_t v = begin; v < offset; ++v) {
          writer.WriteDouble(block->summaries[v]);
        }
      }
    }
  }
  return writer.Finish();
}

Status SegmentStore::LoadColdIndex() {
  cold_index_block_id_ = 0;
  for (const auto& [id, tag] : slab_->ListBlocks()) {
    if (tag == kColdIndexTag && id > cold_index_block_id_) {
      cold_index_block_id_ = id;
    }
  }
  if (cold_index_block_id_ == 0) return Status::OK();  // Empty slab.
  MODELARDB_ASSIGN_OR_RETURN(SlabFile::Pin pin,
                             slab_->ReadBlock(cold_index_block_id_));
  BufferReader reader(pin.bytes());
  MODELARDB_ASSIGN_OR_RETURN(uint64_t version, reader.ReadVarint());
  if (version != kColdIndexVersion) {
    return Status::NotImplemented(
        "cold index version " + std::to_string(version) + " in " + SlabPath() +
        " is not readable (this build reads version " +
        std::to_string(kColdIndexVersion) + ")");
  }
  MODELARDB_ASSIGN_OR_RETURN(uint64_t group_count, reader.ReadVarint());
  for (uint64_t g = 0; g < group_count; ++g) {
    MODELARDB_ASSIGN_OR_RETURN(uint64_t gid_raw, reader.ReadVarint());
    Gid gid = static_cast<Gid>(static_cast<uint32_t>(gid_raw));
    MODELARDB_ASSIGN_OR_RETURN(uint64_t block_count, reader.ReadVarint());
    GroupSlot& slot = SlotFor(gid);
    for (uint64_t b = 0; b < block_count; ++b) {
      auto block = std::make_shared<SealedBlock>();
      MODELARDB_ASSIGN_OR_RETURN(block->slab_id, reader.ReadVarint());
      MODELARDB_ASSIGN_OR_RETURN(block->lease,
                                 slab_->LeaseBlock(block->slab_id));
      MODELARDB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
      if (count == 0 || count > std::numeric_limits<uint32_t>::max()) {
        return Status::Corruption("cold index block " +
                                  std::to_string(block->slab_id) +
                                  " holds " + std::to_string(count) +
                                  " segments");
      }
      block->count = static_cast<uint32_t>(count);
      MODELARDB_ASSIGN_OR_RETURN(block->min_start_time, reader.ReadI64());
      MODELARDB_ASSIGN_OR_RETURN(block->max_end_time, reader.ReadI64());
      MODELARDB_ASSIGN_OR_RETURN(block->min_value, reader.ReadFloat());
      MODELARDB_ASSIGN_OR_RETURN(block->max_value, reader.ReadFloat());
      MODELARDB_ASSIGN_OR_RETURN(uint8_t has_summaries, reader.ReadU8());
      block->has_summaries = has_summaries != 0;
      if (block->has_summaries) {
        MODELARDB_ASSIGN_OR_RETURN(uint64_t positions, reader.ReadVarint());
        for (uint64_t pos = 0; pos < positions; ++pos) {
          MODELARDB_ASSIGN_OR_RETURN(uint64_t points, reader.ReadVarint());
          block->counts.push_back(static_cast<int64_t>(points));
          MODELARDB_ASSIGN_OR_RETURN(double min, reader.ReadDouble());
          block->mins.push_back(min);
          MODELARDB_ASSIGN_OR_RETURN(double max, reader.ReadDouble());
          block->maxs.push_back(max);
        }
      }
      for (uint64_t i = 0; i < count; ++i) {
        MODELARDB_ASSIGN_OR_RETURN(uint64_t gap_mask, reader.ReadVarint());
        block->gap_masks.push_back(gap_mask);
        MODELARDB_ASSIGN_OR_RETURN(uint64_t length, reader.ReadVarint());
        block->lengths.push_back(static_cast<int64_t>(length));
        if (!block->has_summaries) continue;
        for (int v = 3 * block->Columns(gap_mask); v > 0; --v) {
          MODELARDB_ASSIGN_OR_RETURN(double value, reader.ReadDouble());
          block->summaries.push_back(value);
        }
      }
      num_segments_.fetch_add(block->count, std::memory_order_relaxed);
      slot.data->sealed.push_back(std::move(block));
    }
    UpdateSuffixFences(slot.data.get(), 0);
  }
  return Status::OK();
}

SlabStats SegmentStore::slab_stats() const {
  MutexLock lock(mutex_);
  return slab_ == nullptr ? SlabStats{} : slab_->stats();
}

std::vector<SegmentStore::Snapshot> SegmentStore::SnapshotsFor(
    const SegmentFilter& filter, std::shared_ptr<SlabFile>* slab) const {
  std::vector<Snapshot> snapshots;
  MutexLock lock(mutex_);
  if (slab != nullptr) *slab = slab_;
  auto grab = [&](GroupSlot& slot) {
    if (!slot.data || slot.data->num_blocks() == 0) return;
    slot.snapshotted = true;
    snapshots.push_back(slot.data);
  };
  if (filter.gids.empty()) {
    snapshots.reserve(index_.size());
    for (auto& [gid, slot] : index_) grab(slot);
  } else {
    snapshots.reserve(filter.gids.size());
    for (Gid gid : filter.gids) {
      auto it = index_.find(gid);
      if (it != index_.end()) grab(it->second);
    }
  }
  return snapshots;
}

Status SegmentStore::ScanIndexed(const SegmentFilter& filter,
                                 const IndexedScanCallbacks& callbacks,
                                 ScanStats* stats) const {
  // This scan's counts alone feed the cumulative metrics, whatever the
  // caller's stats already hold.
  ScanStats scan;
  // The lock is only held inside SnapshotsFor; everything below runs
  // lock-free on the immutable snapshots (leased payloads pin the slab).
  std::shared_ptr<SlabFile> slab;
  for (const Snapshot& snapshot : SnapshotsFor(filter, &slab)) {
    const GroupData& group = *snapshot;
    const size_t n = group.num_blocks();
    // Clustering on EndTime: binary search to the first candidate block.
    size_t b = FirstBlockNot(group, [&](const SealedBlock& block) {
      return block.max_end_time < filter.min_time;
    });
    scan.blocks_skipped += static_cast<int64_t>(b);
    for (; b < n; ++b) {
      const SealedBlock& block = group.block(b);
      if (group.suffix_min_start[b] > filter.max_time) {
        // No segment in this or any later block can start early enough:
        // stop the group's scan.
        scan.blocks_skipped += static_cast<int64_t>(n - b);
        break;
      }
      if (block.min_start_time > filter.max_time) {
        ++scan.blocks_skipped;
        continue;
      }
      BlockView view;
      view.gid = group.gid;
      view.block = &block;
      view.slab = slab.get();
      view.stats = &scan;
      const bool covered = block.min_start_time >= filter.min_time &&
                           block.max_end_time <= filter.max_time;
      if (covered && block.has_summaries && callbacks.on_covered_block) {
        MODELARDB_ASSIGN_OR_RETURN(BlockAction action,
                                   callbacks.on_covered_block(view));
        if (action == BlockAction::kSummarized) {
          ++scan.blocks_summarized;
          continue;
        }
        if (action == BlockAction::kSkipped) {
          ++scan.blocks_skipped;
          continue;
        }
      }
      ++scan.blocks_scanned;
      MODELARDB_RETURN_NOT_OK(view.ForEachSegment(
          [&](const Segment& segment, const double* summary) {
            if (!filter.Matches(segment)) return Status::OK();
            ++scan.segments_scanned;
            if (!block.leased()) ++scan.hot_pins;
            return callbacks.on_segment(segment, summary);
          }));
    }
  }
  RecordScanStats(scan);
  if (stats != nullptr) stats->Merge(scan);
  return Status::OK();
}

Status SegmentStore::Scan(
    const SegmentFilter& filter,
    const std::function<Status(const Segment&)>& fn) const {
  IndexedScanCallbacks callbacks;
  callbacks.on_segment = [&fn](const Segment& segment, const double*) {
    return fn(segment);
  };
  return ScanIndexed(filter, callbacks, nullptr);
}

int64_t SegmentStore::EstimateSurvivingSegments(
    Gid gid, const SegmentFilter& filter) const {
  SegmentFilter one;
  one.gids = {gid};
  const std::vector<Snapshot> snapshots = SnapshotsFor(one, nullptr);
  if (snapshots.empty()) return 0;
  const GroupData& group = *snapshots.front();
  int64_t estimate = 0;
  // Fences only: no payload is read, leased or owned. Partially covered
  // blocks count in full — scheduling weights and EXPLAIN estimates only
  // need fence precision.
  size_t b = FirstBlockNot(group, [&](const SealedBlock& block) {
    return block.max_end_time < filter.min_time;
  });
  for (; b < group.num_blocks(); ++b) {
    if (group.suffix_min_start[b] > filter.max_time) break;
    if (group.block(b).min_start_time <= filter.max_time) {
      estimate += group.block(b).count;
    }
  }
  return estimate;
}

Result<std::vector<Segment>> SegmentStore::GetSegments(
    Gid gid, Timestamp min_time, Timestamp max_time) const {
  std::vector<Segment> out;
  SegmentFilter filter;
  filter.gids = {gid};
  filter.min_time = min_time;
  filter.max_time = max_time;
  MODELARDB_RETURN_NOT_OK(Scan(filter, [&out](const Segment& segment) {
    out.push_back(segment);
    return Status::OK();
  }));
  return out;
}

std::vector<Gid> SegmentStore::Gids() const {
  MutexLock lock(mutex_);
  std::vector<Gid> out;
  out.reserve(index_.size());
  for (const auto& [gid, slot] : index_) out.push_back(gid);
  return out;
}

}  // namespace modelardb
