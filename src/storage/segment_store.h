// SegmentStore: the persistent segment group store (paper §3.3).
//
// Substitutes Apache Cassandra in the paper's architecture. It keeps the
// paper's Cassandra schema semantics: segments are keyed by
// (Gid, EndTime, Gaps) — Gaps disambiguates segments produced by dynamic
// splitting — clustered by EndTime for range scans, and StartTime is not
// stored (recomputed from EndTime and Size). Predicate push-down is
// supported on Gid sets and time ranges, which is all ModelarDB's query
// rewriting needs (§6.2).
//
// Persistence is a log-structured append file: segments are buffered and
// written in bulk (Table 1: Bulk Write Size 50,000) as checksummed v2 WAL
// blocks (storage/wal.h) through the Env I/O boundary, group-committed per
// the configured sync policy; Open() replays the log, salvaging a torn
// tail (crash debris is quarantined to a .corrupt sidecar and the log is
// truncated to the last whole block) while genuine interior corruption
// still fails with Status::Corruption. The full index is also kept in
// memory — the paper co-locates storage and query processing for locality
// (Fig 4).
//
// A group's segments live in *sealed blocks* of at most `block_size`
// segments, each carrying time fences, a value zone map, gap-aware
// pre-folded aggregates and one full-range SegmentSummary per segment (the
// "model-exploiting index" the paper defers to future work, §9 item i). A
// block's payload is owned segments (hot) or a slab lease (checkpointed);
// one scan loop serves both, answering aggregates without a decoder. Puts
// append to the group's unsealed tail, which seals when full; an
// out-of-order put rewrites the one block it lands in. Checkpoint() swaps
// owned payloads for leases and writes the blocks' indexes to a v2 cold
// index, so a reopen reads no data pages; the WAL prefix it covers is
// still kept. See DESIGN.md §3c and §3h.

#ifndef MODELARDB_STORAGE_SEGMENT_STORE_H_
#define MODELARDB_STORAGE_SEGMENT_STORE_H_

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/segment.h"
#include "storage/slab_file.h"
#include "storage/wal.h"
#include "util/env.h"
#include "util/status.h"
#include "util/sync.h"

namespace modelardb {

struct SegmentStoreOptions {
  // Empty: purely in-memory (tests, ephemeral workers).
  std::string directory;
  // File I/O boundary; null uses Env::Default() (POSIX). Tests and the
  // crash harness substitute a FaultInjectionEnv here.
  Env* env = nullptr;
  // When the WAL fsyncs (DESIGN.md §3g). kEveryBlock makes every OK
  // Flush() durable — the acknowledged-flush watermark crash recovery is
  // verified against; kEveryNBlocks is group commit for ingest-heavy
  // deployments that can afford to lose the last few blocks.
  WalSyncPolicy wal_sync_policy = WalSyncPolicy::kEveryBlock;
  size_t wal_sync_every_n_blocks = 8;
  // Segments buffered before a bulk write to disk.
  size_t bulk_write_size = 50000;
  // Segments per sealed block: the unit of fence pruning, summary
  // consumption and slab I/O, for hot and checkpointed data alike. Open
  // rejects 0.
  size_t block_size = 256;
  // Decoder registry used to materialize per-segment aggregates at Put /
  // replay time. Null keeps the index fence-only: blocks still skip and
  // stop scans early, but aggregate queries decode every segment.
  const ModelRegistry* registry = nullptr;
  // Series count per group. Materialized aggregates are gap-aware, which
  // requires the group size to map gap_mask bits to decoder columns;
  // groups without an entry (or wider than 64 series) stay fence-only.
  std::map<Gid, int> group_sizes;
  // Checkpoint flushed segments into the mmap-backed slab file
  // (segments.slab, storage/slab_file.h) every N bulk flushes. 0 disables
  // automatic checkpoints (Checkpoint() still works); an existing slab is
  // always loaded by Open regardless. Checkpointed blocks are served to
  // scans zero-copy from the mapping, and Open replays only the WAL suffix
  // past the slab's watermark.
  size_t slab_checkpoint_every_n_flushes = 0;
  // Crash-test hook: called (under the store lock) at every checkpoint
  // phase boundary, right after the matching flight-recorder event is
  // emitted. tools/crash_writer --bundle aborts from here to prove the
  // fatal-signal diagnostics bundle captures an in-flight checkpoint.
  std::function<void(const char* phase)> checkpoint_phase_hook;
};

// Push-down predicate for segment scans.
struct SegmentFilter {
  std::vector<Gid> gids;  // Empty: all groups.
  Timestamp min_time = std::numeric_limits<Timestamp>::min();
  Timestamp max_time = std::numeric_limits<Timestamp>::max();

  bool Matches(const Segment& segment) const {
    return segment.end_time >= min_time && segment.start_time <= max_time;
  }
};

// Per-scan resource accounting. The index-usage counters are filled by
// the store; the decode/CPU/queue fields are filled by the query engine
// as it drives the scan. Threaded through query PartialResults into
// `EXPLAIN ANALYZE` output and the slow-query log (DESIGN.md §3i).
struct ScanStats {
  int64_t blocks_skipped = 0;     // Pruned by time fences, never delivered.
  int64_t blocks_summarized = 0;  // Consumed whole from summaries.
  int64_t blocks_scanned = 0;     // Delivered segment by segment.
  int64_t segments_scanned = 0;   // Segments delivered to callbacks.
  int64_t segments_decoded = 0;   // Decoders created (query-engine side).
  int64_t bytes_decoded = 0;      // Segment parameter bytes decoded
                                  // (query-engine side).
  int64_t cold_pins = 0;          // Slab block pins taken (zero-copy scans
                                  // and covered-block SUM folds).
  int64_t hot_pins = 0;           // Segments served from snapshot-pinned
                                  // in-memory group data.
  int64_t cpu_ns = 0;             // Thread-CPU time across the query's
                                  // morsels (query-engine side).
  int64_t queue_wait_ns = 0;      // Submit-to-start pool wait across the
                                  // query's morsels (query-engine side).

  void Merge(const ScanStats& other) {
    blocks_skipped += other.blocks_skipped;
    blocks_summarized += other.blocks_summarized;
    blocks_scanned += other.blocks_scanned;
    segments_scanned += other.segments_scanned;
    segments_decoded += other.segments_decoded;
    bytes_decoded += other.bytes_decoded;
    cold_pins += other.cold_pins;
    hot_pins += other.hot_pins;
    cpu_ns += other.cpu_ns;
    queue_wait_ns += other.queue_wait_ns;
  }
};

// Materialized aggregates of one segment over its full row range, one
// entry per decoder column (represented series, in group order), in
// stored units. The values are exactly what SegmentDecoder::AggregateRange
// over the whole segment returns, so folding them is bit-identical to
// decoding; the per-column count is Segment::Length(). Empty == absent
// (no registry, unknown model, or group too wide).
struct SegmentSummary {
  std::vector<double> agg;  // [3 * col + {0: sum, 1: min, 2: max}]

  bool valid() const { return !agg.empty(); }
  double sum(int col) const { return agg[3 * col]; }
  double min(int col) const { return agg[3 * col + 1]; }
  double max(int col) const { return agg[3 * col + 2]; }
};

// What a block knows about its segments without reading its payload:
// everything a scan prunes and folds with, and what the cold index keeps.
struct BlockIndex {
  uint32_t count = 0;
  Timestamp min_start_time = std::numeric_limits<Timestamp>::max();
  // The last segment's clustering key is (max_end_time, last_gap_mask):
  // puts find the block they land in without reading its payload.
  Timestamp max_end_time = std::numeric_limits<Timestamp>::min();
  uint64_t last_gap_mask = 0;
  // Zone map over the segments' value statistics (stored units, over every
  // represented series — the same statistics RelateStats prunes with).
  float min_value = std::numeric_limits<float>::max();
  float max_value = std::numeric_limits<float>::lowest();
  // True when every segment has a valid SegmentSummary and the
  // per-position arrays below are populated.
  bool has_summaries = false;
  // Gap-aware pre-folded aggregates per group position (only segments that
  // represent the position contribute). counts are exact point counts;
  // mins/maxs are order-free exact folds; sums are folded in segment order
  // (used for estimates — exact SUM answers fold the per-segment
  // summaries instead to preserve the reduction tree bit-for-bit).
  std::vector<int64_t> counts;
  std::vector<double> sums;
  std::vector<double> mins;
  std::vector<double> maxs;
  // One per segment when the group materializes summaries (entries may be
  // invalid); empty otherwise. Scans hand them out non-null iff present.
  std::vector<SegmentSummary> summaries;
};

// One immutable block of a group's segments in (EndTime, Gaps) clustering
// order. Sealed blocks are shared between copy-on-write copies of a group
// and never change; the group's unsealed tail (the same type, fewer than
// block_size segments, private to one group copy) is the only block that
// is appended to. The payload is owned segments, or (after a checkpoint)
// slab block `slab_id` (slab ids start at 1), kept readable by `lease` for
// as long as any snapshot holds the block.
struct SealedBlock : BlockIndex {
  std::vector<Segment> segments;
  uint64_t slab_id = 0;
  SlabFile::BlockLease lease;

  bool leased() const { return slab_id != 0; }
};

// One block handed to a scan consumer.
struct BlockView {
  Gid gid = 0;
  const SealedBlock* block = nullptr;
  SlabFile* slab = nullptr;     // Serves a leased payload.
  ScanStats* stats = nullptr;   // Counts the pin a leased payload takes.

  // Visits the block's segments in order with their summaries:
  // fn(const Segment&, const SegmentSummary*) -> Status. A leased payload
  // is pinned for the duration of the call and its segments borrow their
  // parameters from the mapping (a Segment copy deep-copies them).
  template <typename Fn>
  Status ForEachSegment(Fn&& fn) const {
    const uint32_t count = block->count;
    const SegmentSummary* summaries =
        block->summaries.empty() ? nullptr : block->summaries.data();
    if (!block->leased()) {
      const Segment* segments = block->segments.data();
      for (uint32_t i = 0; i < count; ++i) {
        MODELARDB_RETURN_NOT_OK(
            fn(segments[i], summaries ? summaries + i : nullptr));
      }
      return Status::OK();
    }
    SlabFile::Pin pin;
    BufferReader reader(nullptr, 0);
    MODELARDB_RETURN_NOT_OK(PinPayload(&pin, &reader));
    for (uint32_t i = 0; i < count; ++i) {
      MODELARDB_ASSIGN_OR_RETURN(Segment segment,
                                 Segment::DeserializeBorrowed(&reader));
      MODELARDB_RETURN_NOT_OK(
          fn(segment, summaries ? summaries + i : nullptr));
    }
    return Status::OK();
  }

 private:
  // Pins the leased payload and positions `reader` on its first segment.
  Status PinPayload(SlabFile::Pin* pin, BufferReader* reader) const;
};

// What the consumer decided to do with a fully covered block.
enum class BlockAction {
  kSummarized,  // Consumed from the summaries; do not deliver segments.
  kSkipped,     // Proven irrelevant (e.g. value zone map disjoint).
  kFallback,    // Deliver the block's segments one by one.
};

struct IndexedScanCallbacks {
  // Called for blocks whose segments all lie inside the time filter and
  // that carry summaries. Null: every block falls back to on_segment.
  std::function<Result<BlockAction>(const BlockView&)> on_covered_block;
  // Called per matching segment of fallback/partial blocks. `summary` is
  // non-null iff materialized.
  std::function<Status(const Segment&, const SegmentSummary*)> on_segment;
};

// What Open()'s log replay found and did. Written once before Open
// returns, immutable afterwards — readable without the store lock.
struct RecoveryInfo {
  int64_t blocks_replayed = 0;
  int64_t segments_replayed = 0;
  bool torn_tail = false;          // Crash debris was salvaged around.
  int64_t quarantined_bytes = 0;   // Tail bytes moved to the sidecar.
  std::string torn_reason;
};

// Thread-safety: Put/Flush/Scan may be called concurrently. Scans are
// snapshot-based: the lock is held only while grabbing copy-on-write
// references to the matching per-group data (sealed block pointers + the
// tail); iterate/aggregate callbacks then run lock-free on that immutable
// snapshot, so concurrent PutBatch from ingestion never blocks a running
// query (the online analytics scenario of Fig 13). Writers copy a group's
// data (pointers and the tail) before mutating it iff a live snapshot may
// still reference it.
class SegmentStore {
 public:
  // Opens (and replays) the store at options.directory, or an in-memory
  // store when the directory is empty.
  static Result<std::unique_ptr<SegmentStore>> Open(
      const SegmentStoreOptions& options);

  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  // Buffers a segment; persisted on the next bulk write or Flush().
  Status Put(const Segment& segment);
  Status PutBatch(const std::vector<Segment>& segments);

  // Forces buffered segments to disk. Durable on OK iff the sync policy is
  // kEveryBlock; otherwise durability arrives with the group commit (or an
  // explicit SyncWal()).
  Status Flush();

  // Forces the WAL durability barrier for everything flushed so far
  // (completes a pending group commit under kEveryNBlocks / kNone).
  Status SyncWal();

  // Seals every group's tail and moves every owned block payload into the
  // slab file with one atomic root flip, then advances the WAL watermark,
  // so the next Open replays only the WAL suffix written after this call.
  // Flushes the write buffer first. No-op for in-memory stores. Scans keep
  // working throughout, and results are byte-identical to the hot path.
  Status Checkpoint();

  // Stats of the slab file backing cold segments (zeros when none exists).
  SlabStats slab_stats() const;

  // The slab file cold segments checkpoint into ("" for in-memory stores).
  std::string SlabPath() const {
    return log_path_.empty() ? std::string()
                             : options_.directory + "/segments.slab";
  }

  // What replay salvaged/decided when this store was opened.
  const RecoveryInfo& recovery_info() const { return recovery_info_; }

  // The quarantine sidecar torn tails are appended to.
  std::string CorruptSidecarPath() const {
    return log_path_.empty() ? std::string() : log_path_ + ".corrupt";
  }

  // Scans segments matching `filter`, grouped by Gid and ordered by
  // EndTime within each group. `fn` returning non-OK aborts the scan.
  Status Scan(const SegmentFilter& filter,
              const std::function<Status(const Segment&)>& fn) const;

  // Index-aware scan: skips blocks by fence, stops a group early once the
  // suffix-min StartTime fence passes filter.max_time, offers fully
  // covered blocks to `callbacks.on_covered_block`, and delivers the rest
  // (in the same per-group EndTime order as Scan) to `on_segment`.
  // `stats` may be null.
  Status ScanIndexed(const SegmentFilter& filter,
                     const IndexedScanCallbacks& callbacks,
                     ScanStats* stats) const;

  // Upper-bound estimate (from the block fences) of how many of `gid`'s
  // segments survive `filter`. Used to weight morsel scheduling.
  int64_t EstimateSurvivingSegments(Gid gid,
                                    const SegmentFilter& filter) const;

  // Segments of one group overlapping [min_time, max_time].
  Result<std::vector<Segment>> GetSegments(Gid gid, Timestamp min_time,
                                           Timestamp max_time) const;

  int64_t NumSegments() const {
    return num_segments_.load(std::memory_order_relaxed);
  }

  // Exact bytes written to disk (0 for in-memory stores). This is the
  // paper's `du` measurement.
  int64_t DiskBytes() const {
    return disk_bytes_.load(std::memory_order_relaxed);
  }

  std::vector<Gid> Gids() const;

 private:
  using BlockPtr = std::shared_ptr<const SealedBlock>;

  // One group's sealed blocks plus its unsealed tail. Immutable from the
  // moment a snapshot references it; the next write under the store lock
  // replaces it with a copy (copy-on-write), which shares the sealed
  // blocks and copies only the pointers and the tail.
  struct GroupData {
    Gid gid = 0;
    int width = 0;  // SummaryWidth(gid), fixed for the store's life.
    std::vector<BlockPtr> sealed;
    SealedBlock tail;  // Owned payload, fewer than block_size segments.
    // suffix_min_start[i]: smallest StartTime in block i and every later
    // block (index sealed.size() is the tail's). Monotonically
    // non-decreasing, so a scan stops once it passes the query's max_time
    // (StartTime alone is not monotone in EndTime order). Kept beside the
    // blocks because it depends on later blocks, and a shared sealed block
    // never changes.
    std::vector<Timestamp> suffix_min_start{
        std::numeric_limits<Timestamp>::max()};

    // Blocks in clustering order: the sealed ones, then a non-empty tail.
    size_t num_blocks() const { return sealed.size() + (tail.count > 0); }
    const SealedBlock& block(size_t i) const {
      return i < sealed.size() ? *sealed[i] : tail;
    }
  };
  // COW snapshot hand-off (DESIGN.md §3e): both fields are guarded by the
  // store mutex — `snapshotted` is the flag that forces the next writer to
  // copy instead of mutate, so a GroupData is immutable from the moment a
  // Snapshot reference escapes the lock, and readers iterate it lock-free.
  struct GroupSlot {
    std::shared_ptr<GroupData> data;
    bool snapshotted = false;
  };
  using Snapshot = std::shared_ptr<const GroupData>;

  explicit SegmentStore(SegmentStoreOptions options);

  Status ReplayLog();
  // `file` holds log bytes from `base_offset` on: appends
  // file[valid_bytes..] to the .corrupt sidecar, truncates the log to
  // base_offset + valid_bytes and records the salvage in recovery_info_.
  Status QuarantineTornTail(const std::vector<uint8_t>& file,
                            size_t valid_bytes, const std::string& reason,
                            uint64_t base_offset) REQUIRES(mutex_);
  Status WriteBlock(const std::vector<Segment>& segments) REQUIRES(mutex_);
  Status PutLocked(const Segment& segment) REQUIRES(mutex_);
  // The slot of `gid`, created (with empty group data) if absent.
  GroupSlot& SlotFor(Gid gid) REQUIRES(mutex_);
  // Inserts `segment` into `data` in clustering order: appends to the tail
  // (sealing it when full), or rewrites the one block it lands in.
  Status InsertLocked(GroupData* data, Segment&& segment) REQUIRES(mutex_);
  Status FlushLocked() REQUIRES(mutex_);
  Status CheckpointLocked() REQUIRES(mutex_);
  // Seals `data`'s tail and stages every owned payload into the slab,
  // mutating `data` (a private working copy) and the slab's staged state
  // only. Payloads the copy no longer references are added to `retired`.
  Status CheckpointGroupLocked(Gid gid, GroupData* data,
                               std::vector<uint64_t>* retired)
      REQUIRES(mutex_);
  // Reads the slab's cold-index block into the per-group sealed lists.
  Status LoadColdIndex() REQUIRES(mutex_);
  std::vector<uint8_t> SerializeColdIndex() const REQUIRES(mutex_);
  // Copies a block's segments (owned deserialization for a leased
  // payload) and, when the group materializes summaries, one summary per
  // segment (rebuilding absent ones); `summaries` is left empty otherwise.
  Status MaterializeBlock(const GroupData& group, const SealedBlock& block,
                          std::vector<Segment>* segments,
                          std::vector<SegmentSummary>* summaries) const
      REQUIRES(mutex_);
  // Grabs (and marks) the snapshots `filter` selects, in ascending Gid
  // order for the empty-gids case and in `filter.gids` order otherwise.
  // `slab` (may be null) receives the store's slab under the same lock.
  std::vector<Snapshot> SnapshotsFor(const SegmentFilter& filter,
                                     std::shared_ptr<SlabFile>* slab) const;

  // The group size when `gid`'s segments carry summaries, else 0: a
  // registry is set and group_sizes maps the group to 1..64 series (the
  // gap-aware summaries map gap_mask bits to decoder columns).
  int SummaryWidth(Gid gid) const;
  // Full-range per-column aggregates of `segment`; empty on any failure.
  SegmentSummary BuildSummary(const Segment& segment, int group_size) const;
  // Appends one segment to `block`, folding it into the fences, zone map
  // and — when `group_size` > 0 — its summary into the pre-folds.
  static void AppendToBlock(SealedBlock* block, Segment&& segment,
                            SegmentSummary&& summary, int group_size);
  // A block of segments[begin, end) (moved out, with their summaries).
  static SealedBlock BuildBlock(int group_size, std::vector<Segment>* segments,
                                std::vector<SegmentSummary>* summaries,
                                size_t begin, size_t end);
  // Seals a clustering-ordered run into blocks of `chunk` segments.
  static std::vector<BlockPtr> SealRun(int group_size,
                                       std::vector<Segment> segments,
                                       std::vector<SegmentSummary> summaries,
                                       size_t chunk);
  // Recomputes suffix_min_start from the last block down, for blocks
  // changed at index `from` or later.
  static void UpdateSuffixFences(GroupData* data, size_t from);

  SegmentStoreOptions options_;
  Env* env_ = nullptr;  // options_.env or Env::Default(); never null.
  std::string log_path_;
  RecoveryInfo recovery_info_;  // Immutable after Open().
  mutable Mutex mutex_;
  // Lazily opened on the first flush; poisoned (and flushes fail) after
  // any append/sync error so a torn tail is never written over.
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(mutex_);
  // Cold segment storage; opened by Open when segments.slab exists, or by
  // the first Checkpoint. shared_ptr so scans can use it lock-free (the
  // SlabFile is internally synchronized and pins keep reads valid).
  std::shared_ptr<SlabFile> slab_ GUARDED_BY(mutex_);
  // Logical WAL length: slab watermark at open + suffix replayed + bytes
  // appended since. What Checkpoint stamps into the slab root.
  uint64_t wal_bytes_total_ GUARDED_BY(mutex_) = 0;
  size_t flushes_since_checkpoint_ GUARDED_BY(mutex_) = 0;
  bool checkpointing_ GUARDED_BY(mutex_) = false;  // Recursion guard.
  // Slab id of the current cold-index block (0: none written yet).
  uint64_t cold_index_block_id_ GUARDED_BY(mutex_) = 0;
  // Committed slab blocks whose segments out-of-order puts moved into
  // rewritten blocks; freed by the next successful checkpoint.
  std::vector<uint64_t> retired_slab_ids_ GUARDED_BY(mutex_);
  // Index: per group, blocks in (end_time, gap_mask) clustering order.
  mutable std::map<Gid, GroupSlot> index_ GUARDED_BY(mutex_);
  std::vector<Segment> write_buffer_ GUARDED_BY(mutex_);
  // Lock-free by design: cheap monotonic counters read by NumSegments() /
  // DiskBytes() without taking the store mutex; relaxed ordering is sound
  // because the values are standalone statistics, never used to order
  // access to other state.
  std::atomic<int64_t> num_segments_{0};
  std::atomic<int64_t> disk_bytes_{0};
};

}  // namespace modelardb

#endif  // MODELARDB_STORAGE_SEGMENT_STORE_H_
