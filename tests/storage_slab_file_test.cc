// SlabFile (storage/slab_file.h) property tests: allocator reuse and
// refcount invariants, root-flip atomicity at every torn-header byte
// offset, remap under concurrent zero-copy scans, and the SegmentStore
// integration contract — checkpointed (cold) scans byte-identical to the
// heap path, Open replaying only the WAL suffix past the watermark.

#include "storage/slab_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "core/models/pmc_mean.h"
#include "storage/segment_store.h"
#include "util/buffer.h"
#include "util/random.h"

namespace modelardb {
namespace {

// Mirrors of the on-disk layout constants (deliberately hardcoded: a test
// must notice if the format drifts).
constexpr uint64_t kSlotSize = 512;
constexpr size_t kRootBytes = 56;

class SlabFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mdb_slab_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "test.slab").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Result<std::unique_ptr<SlabFile>> OpenSlab() {
    SlabFileOptions options;
    options.path = path_;
    return SlabFile::Open(options);
  }

  std::filesystem::path dir_;
  std::string path_;
};

std::vector<uint8_t> Payload(int tag, size_t size) {
  std::vector<uint8_t> payload(size);
  for (size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<uint8_t>(tag * 197 + static_cast<int>(i) * 31);
  }
  return payload;
}

void ExpectBlockBytes(SlabFile* slab, uint64_t id,
                      const std::vector<uint8_t>& expected) {
  auto pin = slab->ReadBlock(id);
  ASSERT_TRUE(pin.ok()) << pin.status();
  ByteSpan bytes = pin->bytes();
  ASSERT_EQ(bytes.size(), expected.size());
  EXPECT_EQ(std::memcmp(bytes.data(), expected.data(), expected.size()), 0);
}

TEST_F(SlabFileTest, StageCommitReopenRoundTrips) {
  std::vector<uint8_t> a = Payload(1, 300);
  std::vector<uint8_t> b = Payload(2, 4096);
  uint64_t id_a = 0, id_b = 0;
  {
    auto slab = OpenSlab();
    ASSERT_TRUE(slab.ok()) << slab.status();
    auto staged_a = (*slab)->StageBlock(a, 7);
    ASSERT_TRUE(staged_a.ok());
    id_a = *staged_a;
    auto staged_b = (*slab)->StageBlock(b, 9);
    ASSERT_TRUE(staged_b.ok());
    id_b = *staged_b;
    ASSERT_TRUE((*slab)->Commit(1234).ok());
    EXPECT_EQ((*slab)->epoch(), 1u);
    EXPECT_EQ((*slab)->wal_watermark(), 1234u);
  }
  auto slab = OpenSlab();
  ASSERT_TRUE(slab.ok()) << slab.status();
  EXPECT_EQ((*slab)->epoch(), 1u);
  EXPECT_EQ((*slab)->wal_watermark(), 1234u);
  auto blocks = (*slab)->ListBlocks();
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], (std::pair<uint64_t, uint64_t>{id_a, 7}));
  EXPECT_EQ(blocks[1], (std::pair<uint64_t, uint64_t>{id_b, 9}));
  ExpectBlockBytes(slab->get(), id_a, a);
  ExpectBlockBytes(slab->get(), id_b, b);
  auto pin = (*slab)->ReadBlock(id_b);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin->tag(), 9u);
}

TEST_F(SlabFileTest, StagedWithoutCommitLeavesNoTrace) {
  {
    auto slab = OpenSlab();
    ASSERT_TRUE(slab.ok());
    ASSERT_TRUE((*slab)->StageBlock(Payload(1, 2000), 1).ok());
    // No Commit: the root never references the staged extent.
  }
  auto slab = OpenSlab();
  ASSERT_TRUE(slab.ok()) << slab.status();
  EXPECT_EQ((*slab)->epoch(), 0u);
  EXPECT_TRUE((*slab)->ListBlocks().empty());
}

TEST_F(SlabFileTest, FreedExtentIsReusedOnlyAfterCommitAndUnpin) {
  auto slab_or = OpenSlab();
  ASSERT_TRUE(slab_or.ok());
  SlabFile* slab = slab_or->get();
  std::vector<uint8_t> a = Payload(1, 1024);
  auto id_a = slab->StageBlock(a, 1);
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(slab->Commit(1).ok());
  const uint64_t end_after_a = slab->stats().file_end;

  // Pin, then free. The extent must not be reused while the pin lives.
  auto pin = slab->ReadBlock(*id_a);
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE(slab->FreeBlock(*id_a).ok());
  ASSERT_TRUE(slab->Commit(2).ok());
  // Zombie: the freed block still reads back while the extent is intact.
  ExpectBlockBytes(slab, *id_a, a);

  std::vector<uint8_t> b = Payload(2, 1024);
  auto id_b = slab->StageBlock(b, 2);
  ASSERT_TRUE(id_b.ok());
  ASSERT_TRUE(slab->Commit(3).ok());
  // b must NOT have overwritten the pinned extent...
  ByteSpan pinned = pin->bytes();
  EXPECT_EQ(std::memcmp(pinned.data(), a.data(), a.size()), 0);
  // ...so the file grew past the end of a's extent (frontier allocation).
  EXPECT_GT(slab->stats().file_end, end_after_a);

  // Drop the pin: the next same-size allocation reuses a's extent (the
  // frontier may still creep by a small table extent, but not by the
  // payload) and the zombie id stops resolving.
  *pin = SlabFile::Pin();
  const uint64_t end_before_c = slab->stats().file_end;
  std::vector<uint8_t> c = Payload(3, 1024);
  auto id_c = slab->StageBlock(c, 3);
  ASSERT_TRUE(id_c.ok());
  ASSERT_TRUE(slab->Commit(4).ok());
  EXPECT_LT(slab->stats().file_end, end_before_c + c.size());
  EXPECT_FALSE(slab->ReadBlock(*id_a).ok());
  ExpectBlockBytes(slab, *id_b, b);
  ExpectBlockBytes(slab, *id_c, c);
}

TEST_F(SlabFileTest, LeaseKeepsFreedBlockReadableAcrossCommits) {
  auto slab_or = OpenSlab();
  ASSERT_TRUE(slab_or.ok());
  SlabFile* slab = slab_or->get();
  std::vector<uint8_t> a = Payload(4, 512);
  auto id_a = slab->StageBlock(a, 1);
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(slab->Commit(1).ok());

  auto lease = slab->LeaseBlock(*id_a);
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(slab->FreeBlock(*id_a).ok());
  ASSERT_TRUE(slab->Commit(2).ok());
  // Leased: still readable through further commits that could have reused
  // the extent.
  auto id_b = slab->StageBlock(Payload(5, 512), 2);
  ASSERT_TRUE(id_b.ok());
  ASSERT_TRUE(slab->Commit(3).ok());
  ExpectBlockBytes(slab, *id_a, a);

  // Released: a same-size stage reuses the extent; the id dies with it.
  *lease = nullptr;
  auto id_c = slab->StageBlock(Payload(6, 512), 3);
  ASSERT_TRUE(id_c.ok());
  ASSERT_TRUE(slab->Commit(4).ok());
  EXPECT_FALSE(slab->ReadBlock(*id_a).ok());
}

TEST_F(SlabFileTest, AbortCheckpointRestoresPreCheckpointState) {
  auto slab_or = OpenSlab();
  ASSERT_TRUE(slab_or.ok());
  SlabFile* slab = slab_or->get();
  std::vector<uint8_t> a = Payload(7, 800);
  auto id_a = slab->StageBlock(a, 1);
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(slab->Commit(1).ok());
  const SlabStats before = slab->stats();

  // A checkpoint attempt that frees a and stages b, then gives up.
  ASSERT_TRUE(slab->FreeBlock(*id_a).ok());
  auto id_b = slab->StageBlock(Payload(8, 800), 2);
  ASSERT_TRUE(id_b.ok());
  slab->AbortCheckpoint();

  // a is live again; b never existed; nothing was committed.
  ExpectBlockBytes(slab, *id_a, a);
  EXPECT_FALSE(slab->ReadBlock(*id_b).ok());
  EXPECT_EQ(slab->stats().epoch, before.epoch);
  EXPECT_EQ(slab->stats().block_count, before.block_count);
  ASSERT_EQ(slab->ListBlocks().size(), 1u);
  // The next commit is clean and durable.
  ASSERT_TRUE(slab->Commit(2).ok());
  ExpectBlockBytes(slab, *id_a, a);
}

TEST_F(SlabFileTest, TornRootAtEveryByteOffsetFallsBackToOlderEpoch) {
  std::vector<uint8_t> a = Payload(1, 700);
  std::vector<uint8_t> b = Payload(2, 900);
  uint64_t id_a = 0, id_b = 0;
  {
    auto slab = OpenSlab();
    ASSERT_TRUE(slab.ok());
    auto sa = (*slab)->StageBlock(a, 1);
    ASSERT_TRUE(sa.ok());
    id_a = *sa;
    ASSERT_TRUE((*slab)->Commit(10).ok());  // Epoch 1 -> slot 1.
    auto sb = (*slab)->StageBlock(b, 2);
    ASSERT_TRUE(sb.ok());
    id_b = *sb;
    ASSERT_TRUE((*slab)->Commit(20).ok());  // Epoch 2 -> slot 0.
  }
  auto pristine = Env::Default()->ReadFileBytes(path_);
  ASSERT_TRUE(pristine.ok());

  // Corrupt every byte of the NEWER root (epoch 2, slot 0) in turn: the
  // open must never fail — offsets inside the CRC'd header fall back to
  // epoch 1 (block b gone, block a live); offsets in the slot's padding
  // leave epoch 2 in charge. Either way a valid root wins.
  for (size_t offset = 0; offset < kSlotSize; ++offset) {
    std::vector<uint8_t> file = *pristine;
    file[offset] ^= 0xA5;
    auto rw = Env::Default()->NewRandomRWFile(path_);
    ASSERT_TRUE(rw.ok());
    ASSERT_TRUE((*rw)->WriteAt(0, file.data(), file.size()).ok());
    ASSERT_TRUE((*rw)->Sync().ok());
    ASSERT_TRUE((*rw)->Close().ok());

    auto slab = OpenSlab();
    ASSERT_TRUE(slab.ok())
        << "offset " << offset << ": " << slab.status().ToString();
    const uint64_t epoch = (*slab)->epoch();
    if (offset < kRootBytes) {
      ASSERT_EQ(epoch, 1u) << "offset " << offset;
      EXPECT_EQ((*slab)->wal_watermark(), 10u);
      ExpectBlockBytes(slab->get(), id_a, a);
      EXPECT_FALSE((*slab)->ReadBlock(id_b).ok());
    } else {
      ASSERT_EQ(epoch, 2u) << "offset " << offset;
      ExpectBlockBytes(slab->get(), id_a, a);
      ExpectBlockBytes(slab->get(), id_b, b);
    }
  }
  // Both roots torn: data exists but no root validates -> Corruption.
  std::vector<uint8_t> file = *pristine;
  file[4] ^= 0xA5;
  file[kSlotSize + 4] ^= 0xA5;
  auto rw = Env::Default()->NewRandomRWFile(path_);
  ASSERT_TRUE(rw.ok());
  ASSERT_TRUE((*rw)->WriteAt(0, file.data(), file.size()).ok());
  ASSERT_TRUE((*rw)->Close().ok());
  auto slab = OpenSlab();
  ASSERT_FALSE(slab.ok());
  EXPECT_EQ(slab.status().code(), StatusCode::kCorruption)
      << slab.status().ToString();
}

TEST_F(SlabFileTest, TinySlabsManyCommitsRemapAndStayReadable) {
  // Many small commits force repeated growth + remap; every block must
  // stay readable through all of it and across a reopen.
  auto slab_or = OpenSlab();
  ASSERT_TRUE(slab_or.ok());
  SlabFile* slab = slab_or->get();
  std::vector<std::pair<uint64_t, int>> ids;
  for (int i = 0; i < 64; ++i) {
    auto id = slab->StageBlock(Payload(i, 96 + (i % 7) * 33), 100 + i);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(slab->Commit(static_cast<uint64_t>(i + 1)).ok());
    ids.emplace_back(*id, i);
  }
  EXPECT_GT(slab->stats().remaps, 0);
  for (const auto& [id, i] : ids) {
    ExpectBlockBytes(slab, id, Payload(i, 96 + (i % 7) * 33));
  }
  slab_or = OpenSlab();
  ASSERT_TRUE(slab_or.ok());
  for (const auto& [id, i] : ids) {
    ExpectBlockBytes(slab_or->get(), id, Payload(i, 96 + (i % 7) * 33));
  }
}

// Readers hammer pinned zero-copy reads while a writer stages + commits
// (growing and remapping the file) and frees old blocks. The suite name
// carries "Concurrency" so the tier-2 TSan run and the sync-coverage
// hygiene gate both pick it up.
using SlabFileConcurrencyTest = SlabFileTest;

TEST_F(SlabFileConcurrencyTest, RemapUnderZeroCopyReads) {
  auto slab_or = OpenSlab();
  ASSERT_TRUE(slab_or.ok());
  SlabFile* slab = slab_or->get();

  // Seed blocks the readers start from.
  constexpr int kSeedBlocks = 8;
  std::vector<uint64_t> ids(kSeedBlocks);
  for (int i = 0; i < kSeedBlocks; ++i) {
    auto id = slab->StageBlock(Payload(i, 2048), static_cast<uint64_t>(i));
    ASSERT_TRUE(id.ok());
    ids[i] = *id;
  }
  ASSERT_TRUE(slab->Commit(1).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([slab, &ids, &stop, &failures, t] {
      Random rng(static_cast<uint64_t>(t) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = static_cast<int>(rng.NextBelow(kSeedBlocks));
        auto pin = slab->ReadBlock(ids[i]);
        if (!pin.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Verify under the pin: a remap or extent reuse racing this read
        // must never change the bytes we see.
        std::vector<uint8_t> expected = Payload(i, 2048);
        if (pin->bytes().size() != expected.size() ||
            std::memcmp(pin->bytes().data(), expected.data(),
                        expected.size()) != 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Writer: grow the file hard (every commit extends + remaps), freeing
  // and re-adding scratch blocks to exercise extent reuse under load.
  for (int round = 0; round < 40; ++round) {
    auto scratch =
        slab->StageBlock(Payload(round + 100, 16384), 999);
    ASSERT_TRUE(scratch.ok());
    ASSERT_TRUE(slab->Commit(static_cast<uint64_t>(round + 2)).ok());
    ASSERT_TRUE(slab->FreeBlock(*scratch).ok());
    ASSERT_TRUE(slab->Commit(static_cast<uint64_t>(round + 2)).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(slab->stats().remaps, 0);
  for (int i = 0; i < kSeedBlocks; ++i) {
    ExpectBlockBytes(slab, ids[i], Payload(i, 2048));
  }
}

// ---- SegmentStore integration ------------------------------------------

Segment StoreSegment(Gid gid, int i) {
  Segment s;
  s.gid = gid;
  s.start_time = static_cast<Timestamp>(i) * 1000;
  s.end_time = s.start_time + 900;
  s.si = 100;
  s.mid = kMidPmcMean;
  s.error_bound_pct = 0.0f;
  float value = 1.0f + 0.5f * static_cast<float>(i);
  s.min_value = value;
  s.max_value = value;
  s.parameters.resize(sizeof(float));
  std::memcpy(s.parameters.data(), &value, sizeof(float));
  return s;
}

std::vector<uint8_t> Bytes(const Segment& s) {
  BufferWriter writer;
  s.SerializeTo(&writer);
  return writer.Finish();
}

class SlabSegmentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mdb_slab_store_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  SegmentStoreOptions Options() {
    SegmentStoreOptions options;
    options.directory = dir_.string();
    options.block_size = 16;  // Small blocks: multiple per group.
    return options;
  }

  std::filesystem::path dir_;
};

std::vector<std::vector<uint8_t>> ScanAll(SegmentStore* store,
                                          const SegmentFilter& filter = {}) {
  std::vector<std::vector<uint8_t>> out;
  Status s = store->Scan(filter, [&](const Segment& seg) {
    out.push_back(Bytes(seg));
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST_F(SlabSegmentStoreTest, ColdScanByteIdenticalToHeapScan) {
  auto store_or = SegmentStore::Open(Options());
  ASSERT_TRUE(store_or.ok()) << store_or.status();
  std::unique_ptr<SegmentStore> store = std::move(*store_or);
  for (Gid gid : {1, 2}) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(store->Put(StoreSegment(gid, i)).ok());
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  const auto hot = ScanAll(store.get());
  ASSERT_EQ(hot.size(), 200u);

  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_GT(store->slab_stats().epoch, 0u);
  EXPECT_GT(store->slab_stats().block_count, 0u);
  // Cold (zero-copy) scan: byte-identical, same order.
  EXPECT_EQ(ScanAll(store.get()), hot);

  // Time-filtered scans agree too (cold fence pruning vs heap filtering).
  SegmentFilter filter;
  filter.min_time = 20000;
  filter.max_time = 60000;
  auto filtered_cold = ScanAll(store.get(), filter);
  ASSERT_FALSE(filtered_cold.empty());
  for (const auto& bytes : filtered_cold) {
    EXPECT_NE(std::find(hot.begin(), hot.end(), bytes), hot.end());
  }

  // Reopen: cold blocks come back from the slab index, hot tail from the
  // WAL suffix — still byte-identical.
  store.reset();
  store_or = SegmentStore::Open(Options());
  ASSERT_TRUE(store_or.ok()) << store_or.status();
  EXPECT_EQ(ScanAll(store_or->get()), hot);
}

TEST_F(SlabSegmentStoreTest, OpenReplaysOnlyTheWalSuffixPastTheWatermark) {
  auto store_or = SegmentStore::Open(Options());
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<SegmentStore> store = std::move(*store_or);
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(store->Put(StoreSegment(1, i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  // Post-checkpoint tail: 20 more segments in one WAL block.
  for (int i = 80; i < 100; ++i) {
    ASSERT_TRUE(store->Put(StoreSegment(1, i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  const auto all = ScanAll(store.get());
  ASSERT_EQ(all.size(), 100u);
  store.reset();

  store_or = SegmentStore::Open(Options());
  ASSERT_TRUE(store_or.ok()) << store_or.status();
  store = std::move(*store_or);
  // Only the suffix block replays; the 80 checkpointed segments load from
  // the slab without touching the WAL.
  EXPECT_EQ(store->recovery_info().blocks_replayed, 1);
  EXPECT_EQ(store->recovery_info().segments_replayed, 20);
  EXPECT_EQ(store->NumSegments(), 100);
  EXPECT_EQ(ScanAll(store.get()), all);

  // A checkpoint covering everything leaves nothing to replay.
  ASSERT_TRUE(store->Checkpoint().ok());
  store.reset();
  store_or = SegmentStore::Open(Options());
  ASSERT_TRUE(store_or.ok());
  EXPECT_EQ((*store_or)->recovery_info().blocks_replayed, 0);
  EXPECT_EQ((*store_or)->recovery_info().segments_replayed, 0);
  EXPECT_EQ((*store_or)->NumSegments(), 100);
}

TEST_F(SlabSegmentStoreTest, OutOfOrderPutAfterCheckpointMergesCorrectly) {
  auto store_or = SegmentStore::Open(Options());
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<SegmentStore> store = std::move(*store_or);
  // Checkpoint evens, then put odds: the hot tail now overlaps the cold
  // range and scans must interleave them in EndTime order.
  for (int i = 0; i < 60; i += 2) {
    ASSERT_TRUE(store->Put(StoreSegment(1, i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  for (int i = 1; i < 60; i += 2) {
    ASSERT_TRUE(store->Put(StoreSegment(1, i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());

  std::vector<std::vector<uint8_t>> expected;
  for (int i = 0; i < 60; ++i) expected.push_back(Bytes(StoreSegment(1, i)));
  EXPECT_EQ(ScanAll(store.get()), expected);

  // The next checkpoint rewrites the group into clean cold clustering.
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(ScanAll(store.get()), expected);
  store.reset();
  store_or = SegmentStore::Open(Options());
  ASSERT_TRUE(store_or.ok());
  EXPECT_EQ(ScanAll(store_or->get()), expected);
}

TEST_F(SlabSegmentStoreTest, AutomaticCheckpointEveryNFlushes) {
  SegmentStoreOptions options = Options();
  options.slab_checkpoint_every_n_flushes = 2;
  auto store_or = SegmentStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<SegmentStore> store = std::move(*store_or);
  for (int flush = 0; flush < 4; ++flush) {
    for (int i = flush * 10; i < (flush + 1) * 10; ++i) {
      ASSERT_TRUE(store->Put(StoreSegment(1, i)).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  // 4 flushes at every-2: two automatic checkpoints.
  EXPECT_EQ(store->slab_stats().epoch, 2u);
  EXPECT_EQ(ScanAll(store.get()).size(), 40u);
}

TEST_F(SlabSegmentStoreTest, SnapshotScanSurvivesConcurrentCheckpointFrees) {
  auto store_or = SegmentStore::Open(Options());
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<SegmentStore> store = std::move(*store_or);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(store->Put(StoreSegment(1, i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  const auto expected = ScanAll(store.get());

  // A slow scan holds its snapshot while two more checkpoints free and
  // rewrite the cold blocks it references; leases must keep every block
  // it sees readable and byte-identical.
  std::vector<std::vector<uint8_t>> seen;
  int delivered = 0;
  Status s = store->Scan(SegmentFilter{}, [&](const Segment& seg) {
    if (delivered++ == 1) {
      // Mid-scan: out-of-order put + checkpoint forces a group rewrite,
      // freeing the cold blocks the snapshot points into.
      EXPECT_TRUE(store->Put(StoreSegment(1, 0)).ok());
      EXPECT_TRUE(store->Flush().ok());
      EXPECT_TRUE(store->Checkpoint().ok());
      EXPECT_TRUE(store->Checkpoint().ok());
    }
    seen.push_back(Bytes(seg));
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(seen, expected);
}

TEST_F(SlabSegmentStoreTest, OpenRejectsBlockSizeZero) {
  SegmentStoreOptions options = Options();
  options.block_size = 0;
  EXPECT_EQ(SegmentStore::Open(options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SlabSegmentStoreTest, VersionOneColdIndexIsRefusedByName) {
  // A slab whose cold index predates per-block pre-folds (version 1) or
  // per-segment gap masks and lengths (version 2) is refused, never read
  // as if it had them.
  for (uint64_t version : {1, 2}) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    {
      SlabFileOptions slab_options;
      slab_options.path = (dir_ / "segments.slab").string();
      auto slab = SlabFile::Open(slab_options);
      ASSERT_TRUE(slab.ok()) << slab.status();
      BufferWriter index;
      index.WriteVarint(version);
      index.WriteVarint(0);  // Groups.
      ASSERT_TRUE((*slab)->StageBlock(index.Finish(), ~uint64_t{0}).ok());
      ASSERT_TRUE((*slab)->Commit(0).ok());
    }
    Status status = SegmentStore::Open(Options()).status();
    EXPECT_EQ(status.code(), StatusCode::kNotImplemented) << status;
    EXPECT_NE(status.ToString().find("version " + std::to_string(version)),
              std::string::npos)
        << status;
  }
}

TEST_F(SlabSegmentStoreTest, OutOfOrderPutsSplitFullCheckpointedBlocks) {
  // Late puts into full, checkpointed blocks rewrite and split them; every
  // placement on the way serves the same bytes in clustering order.
  auto store_or = SegmentStore::Open(Options());  // 16-segment blocks.
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<SegmentStore> store = std::move(*store_or);
  std::vector<std::vector<uint8_t>> expected;
  for (int i = 0; i < 96; ++i) expected.push_back(Bytes(StoreSegment(1, i)));
  for (int i = 0; i < 96; ++i) {
    if (i % 6 == 5) continue;
    ASSERT_TRUE(store->Put(StoreSegment(1, i)).ok());
  }
  ASSERT_TRUE(store->Checkpoint().ok());
  const size_t blocks_before = store->slab_stats().block_count;
  for (int i = 5; i < 96; i += 6) {
    ASSERT_TRUE(store->Put(StoreSegment(1, i)).ok());
  }
  EXPECT_EQ(ScanAll(store.get()), expected);
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(ScanAll(store.get()), expected);
  // Rewritten blocks were freed; their split halves replaced them.
  EXPECT_GT(store->slab_stats().block_count, blocks_before);
  store.reset();
  store_or = SegmentStore::Open(Options());
  ASSERT_TRUE(store_or.ok()) << store_or.status();
  EXPECT_EQ(store_or->get()->recovery_info().segments_replayed, 0);
  EXPECT_EQ(ScanAll(store_or->get()), expected);
}

TEST_F(SlabSegmentStoreTest, UnsummarizableBlocksRoundTripThroughColdIndex) {
  // Group 1 materializes summaries, but no decoder knows its segments'
  // model: its blocks have no summaries. The cold index must read them
  // back as such and still parse group 2 after them.
  const ModelRegistry registry = ModelRegistry::Default();
  SegmentStoreOptions options = Options();
  options.registry = &registry;
  options.group_sizes = {{1, 1}, {2, 1}};
  std::vector<std::vector<uint8_t>> expected;
  {
    auto store = SegmentStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status();
    for (Gid gid : {1, 2}) {
      for (int i = 0; i < 40; ++i) {
        Segment segment = StoreSegment(gid, i);
        if (gid == 1) segment.mid = kMinUserMid;  // Not registered.
        ASSERT_TRUE((*store)->Put(segment).ok());
        expected.push_back(Bytes(segment));
      }
    }
    ASSERT_TRUE((*store)->Checkpoint().ok());
  }
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->recovery_info().segments_replayed, 0);
  EXPECT_EQ(ScanAll(store->get()), expected);
}

}  // namespace
}  // namespace modelardb
