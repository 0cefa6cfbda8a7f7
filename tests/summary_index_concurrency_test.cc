// Concurrency over the sealed-block summary index: indexed scans (block
// skipping, covered-block summary consumption) run lock-free on
// copy-on-write snapshots while writers append — including out-of-order
// Puts that rewrite a sealed block, and checkpoints that swap owned
// payloads for slab leases. The suite name contains "Concurrency" so the
// tier-2 TSan subset (ctest -R "Concurrency") runs it under the race
// detector.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "storage/segment_store.h"

namespace modelardb {
namespace {

Segment MakeSegment(Gid gid, int i) {
  Segment s;
  s.gid = gid;
  s.start_time = static_cast<Timestamp>(i) * 1000;
  s.end_time = s.start_time + 900;
  s.si = 100;
  s.mid = kMidPmcMean;
  s.parameters = {0, 0, 0x20, 0x41};
  s.min_value = 10.0f;
  s.max_value = 10.0f;
  return s;
}

SegmentStoreOptions IndexedOptions(const ModelRegistry* registry,
                                   size_t block_size) {
  SegmentStoreOptions options;
  options.block_size = block_size;
  options.registry = registry;
  options.group_sizes = {{1, 1}, {2, 1}, {3, 1}, {4, 1}};
  return options;
}

TEST(SummaryIndexConcurrencyTest, IndexedScansRaceAppends) {
  ModelRegistry registry = ModelRegistry::Default();
  auto store = *SegmentStore::Open(IndexedOptions(&registry, 16));
  std::atomic<bool> done{false};
  std::atomic<int64_t> scans{0};
  Status scan_status;

  std::thread reader([&] {
    while (!done.load()) {
      SegmentFilter filter;
      filter.min_time = 0;
      filter.max_time = 250 * 1000 + 900;
      IndexedScanCallbacks callbacks;
      int64_t points = 0;
      callbacks.on_covered_block = [&](const BlockView& view) {
        // Consume the whole block from its pre-folded aggregates; the
        // snapshot must stay internally consistent while writers append.
        const SealedBlock& block = *view.block;
        if (block.counts.size() != 1 || block.count == 0) {
          return BlockAction::kFallback;
        }
        points += block.counts[0];
        return BlockAction::kSummarized;
      };
      callbacks.on_segment = [&](const Segment& segment,
                                 const SegmentSummary* summary) {
        if (segment.Length() != 10 || segment.si != 100) {
          return Status::Internal("inconsistent segment");
        }
        if (summary != nullptr && summary->valid() &&
            summary->min(0) != 10.0) {
          return Status::Internal("inconsistent summary");
        }
        points += segment.Length();
        return Status::OK();
      };
      ScanStats stats;
      Status s = store->ScanIndexed(filter, callbacks, &stats);
      if (!s.ok()) {
        scan_status = s;
        return;
      }
      if (points % 10 != 0) {
        scan_status = Status::Internal("torn point count");
        return;
      }
      scans.fetch_add(1);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    // One writer per group, as the ingestion pipeline guarantees.
    writers.emplace_back([&store, w] {
      for (int i = 0; i < 400; ++i) {
        ASSERT_TRUE(store->Put(MakeSegment(w + 1, i)).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  reader.join();
  EXPECT_TRUE(scan_status.ok()) << scan_status;
  EXPECT_GT(scans.load(), 0);
  EXPECT_EQ(store->NumSegments(), 4 * 400);

  // After the race, a full indexed scan accounts for every point exactly.
  SegmentFilter all;
  int64_t total = 0;
  IndexedScanCallbacks callbacks;
  callbacks.on_covered_block = [&](const BlockView& view) {
    total += view.block->counts[0];
    return BlockAction::kSummarized;
  };
  callbacks.on_segment = [&](const Segment& segment, const SegmentSummary*) {
    total += segment.Length();
    return Status::OK();
  };
  ASSERT_TRUE(store->ScanIndexed(all, callbacks, nullptr).ok());
  EXPECT_EQ(total, 4 * 400 * 10);
}

TEST(SummaryIndexConcurrencyTest, EstimatesRaceAppendsWithoutScans) {
  // No Scan anywhere in this test: EstimateSurvivingSegments must mark its
  // own snapshot as live, or writers mutate the GroupData it iterates
  // in place (no copy-on-write without the flag) — the race a Scan-heavy
  // reader would mask by setting the flag for it.
  ModelRegistry registry = ModelRegistry::Default();
  auto store = *SegmentStore::Open(IndexedOptions(&registry, 4));
  std::atomic<bool> done{false};
  std::atomic<int64_t> estimated{0};

  std::thread estimator([&] {
    while (!done.load()) {
      SegmentFilter narrow;
      narrow.min_time = 50 * 1000;
      narrow.max_time = 900 * 1000;
      estimated.fetch_add(store->EstimateSurvivingSegments(1, narrow));
      estimated.fetch_add(store->EstimateSurvivingSegments(2, SegmentFilter{}));
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < 2000; ++i) {
        // Every third Put lands out of order and rebuilds the blocks.
        int slot = (i % 3 == 0) ? 4000 - i : i;
        ASSERT_TRUE(store->Put(MakeSegment(w + 1, slot)).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  estimator.join();
  EXPECT_EQ(store->NumSegments(), 2 * 2000);
  // Quiescent upper bound: every segment of group 2 survives the empty
  // filter.
  EXPECT_EQ(store->EstimateSurvivingSegments(2, SegmentFilter{}), 2000);
}

TEST(SummaryIndexConcurrencyTest, OutOfOrderPutsRebuildWhileScanning) {
  ModelRegistry registry = ModelRegistry::Default();
  auto store = *SegmentStore::Open(IndexedOptions(&registry, 8));
  std::atomic<bool> done{false};
  Status scan_status;

  std::thread reader([&] {
    while (!done.load()) {
      SegmentFilter filter;
      int64_t count = 0;
      Status s = store->Scan(filter, [&count](const Segment& segment) {
        if (segment.Length() != 10) {
          return Status::Internal("inconsistent segment");
        }
        ++count;
        return Status::OK();
      });
      if (!s.ok()) {
        scan_status = s;
        return;
      }
    }
  });

  // A second reader that only estimates, never scans: the estimator must
  // mark its snapshot itself (it cannot rely on a preceding Scan having
  // set the copy-on-write flag for it).
  std::thread estimator([&store, &done] {
    while (!done.load()) {
      SegmentFilter filter;
      (void)store->EstimateSurvivingSegments(1, filter);
      filter.min_time = 100 * 1000;
      filter.max_time = 400 * 1000;
      (void)store->EstimateSurvivingSegments(1, filter);
    }
  });

  std::thread writer([&store] {
    // Alternate forward/backward end_times: every other Put lands out of
    // order and rebuilds the group's blocks under copy-on-write.
    for (int i = 0; i < 300; ++i) {
      int slot = (i % 2 == 0) ? i : 600 - i;
      ASSERT_TRUE(store->Put(MakeSegment(1, slot)).ok());
    }
  });
  writer.join();
  done.store(true);
  reader.join();
  estimator.join();
  EXPECT_TRUE(scan_status.ok()) << scan_status;
  EXPECT_EQ(store->NumSegments(), 300);

  // The rebuilt index must still deliver segments in end_time order.
  Timestamp last = std::numeric_limits<Timestamp>::min();
  ASSERT_TRUE(store
                  ->Scan(SegmentFilter{},
                         [&last](const Segment& segment) {
                           EXPECT_GE(segment.end_time, last);
                           last = segment.end_time;
                           return Status::OK();
                         })
                  .ok());
}

TEST(SummaryIndexConcurrencyTest, CheckpointsAndOutOfOrderPutsRaceScans) {
  // Sealed-block hand-off under fire: one writer appends with out-of-order
  // puts that land in already sealed (and checkpointed) blocks, one thread
  // checkpoints in a loop (sealing tails, swapping owned payloads for slab
  // leases, freeing rewritten blocks), and a reader consumes covered
  // blocks. Every block a scan sees must agree with itself: its segment
  // count and pre-folded point count match the payload it reads, leased
  // or owned.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mdb_sealed_race_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ModelRegistry registry = ModelRegistry::Default();
  SegmentStoreOptions options = IndexedOptions(&registry, 8);
  options.directory = dir.string();
  auto store = *SegmentStore::Open(options);
  std::atomic<bool> done{false};
  Status scan_status;

  std::thread reader([&] {
    while (!done.load()) {
      IndexedScanCallbacks callbacks;
      callbacks.on_covered_block = [&](const BlockView& view)
          -> Result<BlockAction> {
        int64_t segments = 0;
        int64_t points = 0;
        MODELARDB_RETURN_NOT_OK(view.ForEachSegment(
            [&](const Segment& segment, const SegmentSummary* summary) {
              if (summary == nullptr || summary->min(0) != 10.0) {
                return Status::Internal("inconsistent summary");
              }
              ++segments;
              points += segment.Length();
              return Status::OK();
            }));
        if (segments != view.block->count ||
            view.block->counts.size() != 1 ||
            points != view.block->counts[0]) {
          return Status::Internal("block disagrees with its payload");
        }
        return BlockAction::kSummarized;
      };
      callbacks.on_segment = [](const Segment& segment,
                                const SegmentSummary*) {
        return segment.Length() == 10
                   ? Status::OK()
                   : Status::Internal("inconsistent segment");
      };
      Status s = store->ScanIndexed(SegmentFilter{}, callbacks, nullptr);
      if (!s.ok()) {
        scan_status = s;
        return;
      }
    }
  });
  std::thread checkpointer([&] {
    while (!done.load()) {
      ASSERT_TRUE(store->Checkpoint().ok());
      std::this_thread::yield();
    }
  });

  // Even slots in order; every third step one odd slot from far behind,
  // so it lands inside a block sealed (and likely checkpointed) earlier.
  constexpr int kSteps = 600;
  int next_odd = 1;
  for (int i = 0; i < kSteps; ++i) {
    ASSERT_TRUE(store->Put(MakeSegment(1, 2 * i)).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(store->Put(MakeSegment(1, next_odd)).ok());
      next_odd += 2;
    }
  }
  for (; next_odd < 2 * kSteps; next_odd += 2) {
    ASSERT_TRUE(store->Put(MakeSegment(1, next_odd)).ok());
  }
  done.store(true);
  reader.join();
  checkpointer.join();
  EXPECT_TRUE(scan_status.ok()) << scan_status;
  ASSERT_TRUE(store->Checkpoint().ok());

  // Quiescent: every point is accounted for, in clustering order.
  int64_t total = 0;
  Timestamp last = std::numeric_limits<Timestamp>::min();
  ASSERT_TRUE(store
                  ->Scan(SegmentFilter{},
                         [&](const Segment& segment) {
                           EXPECT_GT(segment.end_time, last);
                           last = segment.end_time;
                           total += segment.Length();
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(total, 2 * kSteps * 10);
  store.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace modelardb
