// SlabFile: a memory-mapped, checkpointed block file (DESIGN.md §3h).
//
// This is the cold half of the storage engine (ROADMAP item 2), in the
// style of early Realm/Tightdb's alloc_slab + group_writer: an extent
// allocator over one file whose committed state is reachable from a tiny
// root header, with TWO root slots that alternate between commits. A
// checkpoint stages block payloads and a block table into extents that are
// never referenced by the last durable root (strict copy-on-write), syncs
// them, and then flips the root: one small write + sync of a CRC32C-
// protected header into the slot the older epoch occupied. Crash recovery
// is therefore "parse both slots, pick the newest root whose CRC and table
// check out" — a torn commit simply leaves the previous root in charge,
// and the WAL (storage/wal.h) replays everything after the root's
// watermark. No redo log of its own, no fuzzy checkpoint barriers.
//
// Reads are zero-copy: ReadBlock returns a Pin — a non-owning span into
// the read-only mapping plus (a) a shared reference on the mapping, so
// remap-on-grow never invalidates an in-flight read, and (b) a per-block
// refcount, so a freed block's extent is not reused for new writes while
// any reader still points into it. Extent reuse additionally waits for the
// commit AFTER the free, keeping the previous durable root self-consistent.
// Each commit merges adjacent free extents that nothing holds (a merged
// block's id stops resolving, as on reuse), so the free list and the table
// that lists it stay bounded however long checkpoints run.
//
// File layout:
//   [slot A: root, 512 B] [slot B: root, 512 B] [data region ...]
// Root (CRC32C over all preceding root bytes):
//   magic "MDSB" | version | epoch | file_end | table_offset | table_size
//   | table_crc | wal_watermark | crc
// Block table (an ordinary extent, CRC'd from the root):
//   next_block_id, blocks[] (id, tag, offset, size, crc), free[] (offset,
//   size). Per-block CRCs are verified lazily on first read per open.
//
// Thread-safety: all methods may be called concurrently; Pins obtained
// from ReadBlock are lock-free to use and must not outlive the SlabFile.

#ifndef MODELARDB_STORAGE_SLAB_FILE_H_
#define MODELARDB_STORAGE_SLAB_FILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"
#include "util/env.h"
#include "util/status.h"
#include "util/sync.h"

namespace modelardb {

struct SlabFileOptions {
  // File I/O boundary; null uses Env::Default(). The crash harness and
  // fault tests substitute a FaultInjectionEnv.
  Env* env = nullptr;
  std::string path;
};

// Point-in-time statistics (metrics, tests, EXPLAIN-style introspection).
struct SlabStats {
  uint64_t epoch = 0;          // Last committed epoch (0: fresh file).
  uint64_t wal_watermark = 0;  // WAL byte offset of the last checkpoint.
  size_t block_count = 0;      // Committed, live blocks.
  size_t mapped_bytes = 0;     // Size of the current mapping.
  int64_t remaps = 0;          // Remap-on-grow events since Open.
  uint64_t file_end = 0;       // Allocation frontier.
};

class SlabFile {
 public:
  // A pinned zero-copy view of one committed block. Holding a Pin keeps
  // (a) the mapping it points into alive across remaps and (b) the block's
  // extent out of the allocator's reach. Copyable; copies share the pin.
  class Pin {
   public:
    Pin() = default;
    ByteSpan bytes() const { return ByteSpan(data_, size_); }
    uint64_t tag() const { return tag_; }
    explicit operator bool() const { return data_ != nullptr; }

   private:
    friend class SlabFile;
    std::shared_ptr<const MmapFile> map_;   // Keeps the pages mapped.
    std::shared_ptr<void> refcount_guard_;  // Decrements the block refcount.
    const uint8_t* data_ = nullptr;
    size_t size_ = 0;
    uint64_t tag_ = 0;
  };

  // Opens (or creates) the slab at options.path and recovers the newest
  // valid root. A file that was torn before its very first root sync (no
  // commit was ever acknowledged) is recreated empty; a file with data but
  // no intact root is Corruption.
  static Result<std::unique_ptr<SlabFile>> Open(const SlabFileOptions& options);

  ~SlabFile();
  SlabFile(const SlabFile&) = delete;
  SlabFile& operator=(const SlabFile&) = delete;

  // Stages `payload` into a freshly allocated extent and returns its block
  // id. `tag` is opaque caller metadata (the SegmentStore stores the Gid,
  // or kIndexTag-style sentinels). Staged blocks become durable — and
  // readable — only after the next Commit; a crash before that leaves no
  // trace reachable from any root.
  Result<uint64_t> StageBlock(ByteSpan payload, uint64_t tag);

  // Marks a committed block free. The block disappears from the table at
  // the next Commit; its extent becomes reusable after that commit AND
  // once neither a Pin nor a BlockLease references it. Until reuse the
  // block stays readable (a "zombie"), so snapshots that still name its id
  // keep working.
  Status FreeBlock(uint64_t id);

  // Makes everything staged/freed since the last commit durable with one
  // atomic root flip: data + table sync, then root write + sync.
  // `wal_watermark` is the WAL byte offset this checkpoint covers; Open
  // replays the WAL from there.
  Status Commit(uint64_t wal_watermark);

  // Undoes everything staged/freed since the last commit: staged extents
  // return to the allocator, freed blocks return to the table. The durable
  // state never moved, so this restores exact pre-checkpoint semantics —
  // the caller's escape hatch when a multi-step checkpoint fails midway.
  void AbortCheckpoint();

  // A long-lived reference on one block (any state: staged, committed,
  // freed). While held, the block's extent is never reused and ReadBlock
  // keeps serving the id — the SegmentStore holds one per cold block so
  // scan snapshots outlive frees. Destroying all copies releases it.
  using BlockLease = std::shared_ptr<void>;
  Result<BlockLease> LeaseBlock(uint64_t id);

  // Zero-copy read of a block — committed, staged, freed-but-pending, or
  // zombie (anything whose extent has not been reused). Verifies the block
  // CRC on the first read after Open (later reads are free).
  Result<Pin> ReadBlock(uint64_t id);

  // (id, tag) of every committed block, in id order.
  std::vector<std::pair<uint64_t, uint64_t>> ListBlocks() const;

  uint64_t wal_watermark() const;
  uint64_t epoch() const;
  SlabStats stats() const;

 private:
  struct BlockEntry {
    uint64_t id = 0;
    uint64_t tag = 0;
    uint64_t offset = 0;
    uint32_t size = 0;
    uint32_t crc = 0;
    bool verified = false;  // CRC checked once per open.
    // Live Pins on this block. shared so Pins outlast table rewrites.
    std::shared_ptr<std::atomic<int64_t>> pins;
  };

  struct FreeExtent {
    uint64_t offset = 0;
    uint64_t size = 0;
    // Null or zero: no reader can still point into the extent.
    std::shared_ptr<std::atomic<int64_t>> pins;
    // Non-zero: the freed block id whose zombie entry dies on reuse.
    uint64_t zombie_id = 0;
  };

  SlabFile(const SlabFileOptions& options, Env* env);

  // Finds `id` in committed_, staged_, pending_free_ or zombies_ (in that
  // order); null when the id is unknown or its extent was reused.
  BlockEntry* FindEntry(uint64_t id) REQUIRES(mutex_);

  Status Load();                         // Recovery: roots + table.
  // Parses a CRC-validated block table into committed_/free_/next_id_.
  Status ParseTable(const uint8_t* data, size_t size) REQUIRES(mutex_);
  Status CreateFresh() REQUIRES(mutex_); // First-ever root (epoch 0).
  Status Remap() REQUIRES(mutex_);       // New mapping; old stays pinned.
  Result<uint64_t> Allocate(uint64_t size) REQUIRES(mutex_);
  // Drops [offset, offset + size) from the free extents (Load only: they
  // carry no pins or zombie ids).
  void TrimFree(uint64_t offset, uint64_t size) REQUIRES(mutex_);
  // Merges adjacent free extents no reader or lease holds, and returns a
  // free run that ends at the frontier to it.
  void CoalesceFree() REQUIRES(mutex_);
  std::vector<uint8_t> SerializeTable() const REQUIRES(mutex_);
  std::vector<uint8_t> SerializeRoot(uint64_t epoch, uint64_t table_offset,
                                     uint64_t table_size, uint32_t table_crc,
                                     uint64_t wal_watermark) const
      REQUIRES(mutex_);

  SlabFileOptions options_;
  Env* env_ = nullptr;

  mutable Mutex mutex_;
  std::unique_ptr<RandomRWFile> rw_ GUARDED_BY(mutex_);
  std::shared_ptr<const MmapFile> map_ GUARDED_BY(mutex_);
  std::map<uint64_t, BlockEntry> committed_ GUARDED_BY(mutex_);
  std::vector<BlockEntry> staged_ GUARDED_BY(mutex_);
  std::vector<FreeExtent> free_ GUARDED_BY(mutex_);  // Reusable now.
  // Freed since the last commit. Full entries (not just extents) so
  // AbortCheckpoint can restore them and reads keep serving them.
  std::vector<BlockEntry> pending_free_ GUARDED_BY(mutex_);
  // Freed AND committed, but still readable until their extent is reused
  // (a lease or an old snapshot may still name the id).
  std::map<uint64_t, BlockEntry> zombies_ GUARDED_BY(mutex_);
  uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  uint64_t frontier_ GUARDED_BY(mutex_) = 0;   // file_end.
  uint64_t epoch_ GUARDED_BY(mutex_) = 0;
  uint64_t watermark_ GUARDED_BY(mutex_) = 0;
  // Extent of the last committed table; freed by the next commit.
  uint64_t table_offset_ GUARDED_BY(mutex_) = 0;
  uint64_t table_size_ GUARDED_BY(mutex_) = 0;
  int64_t remaps_ GUARDED_BY(mutex_) = 0;
};

}  // namespace modelardb

#endif  // MODELARDB_STORAGE_SLAB_FILE_H_
