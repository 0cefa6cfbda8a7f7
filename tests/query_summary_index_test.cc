// Property test for the sealed-block summary index: for randomized segment
// populations (gaps, scaling factors, boundary-equal timestamps), every
// query must return bit-identical results on a store without a decoder
// registry (no summaries: the exhaustive decode path) and on indexed
// stores at every block size — including degenerate sizes 1 and 3 that
// maximize partially covered blocks — and every placement of the blocks:
// hot, fully checkpointed, half checkpointed, reopened, and rewritten by
// out-of-order puts after a checkpoint. See DESIGN.md "Segment summary
// index" for why this holds.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/segment_generator.h"
#include "query/engine.h"
#include "query/parser.h"
#include "util/random.h"

namespace modelardb {
namespace query {
namespace {

constexpr SamplingInterval kSi = 50;
constexpr Timestamp kStart = 1000000;
const size_t kBlockSizes[] = {1, 3, 256};

// Where a store's blocks live when the queries run.
enum class Placement {
  kHot,           // In memory, never checkpointed.
  kCheckpointed,  // Every segment in leased slab blocks.
  kHalf,          // First half checkpointed, second half hot.
  kReopened,      // kHalf, closed and opened again (slab + WAL suffix).
  kOutOfOrder,    // Every fifth segment put after a checkpoint.
};
const Placement kPlacements[] = {Placement::kHot, Placement::kCheckpointed,
                                 Placement::kHalf, Placement::kReopened,
                                 Placement::kOutOfOrder};

class SummaryIndexPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<TimeSeriesCatalog>(
        std::vector<Dimension>{Dimension("Location", {"Park"})});
    auto add = [&](Tid tid, const char* park, double scaling) {
      TimeSeriesMeta meta;
      meta.tid = tid;
      meta.si = kSi;
      meta.scaling = scaling;
      meta.source = "s" + std::to_string(tid);
      meta.members = {{park}};
      ASSERT_TRUE(catalog_->AddSeries(meta).ok());
    };
    // Non-trivial scalings exercise the stored-unit / raw-unit conversion
    // in both the zone maps and the materialized summaries.
    add(1, "Aalborg", 1.0);
    add(2, "Aalborg", 2.0);
    add(3, "Aalborg", 0.5);
    add(4, "Farsoe", 4.0);
    add(5, "Farsoe", 1.0);

    groups_ = {{1, {1, 2, 3}, kSi}, {2, {4, 5}, kSi}};
    for (const auto& g : groups_) {
      for (Tid tid : g.tids) catalog_->GetMutable(tid)->gid = g.gid;
    }
    registry_ = ModelRegistry::Default();

    // Randomized regimes (constant runs, ramps, noise) emit many short
    // segments; random absence stretches create gap-mask segments.
    Random rng(42);
    std::vector<Segment> segments;
    for (const auto& group : groups_) {
      SegmentGeneratorConfig config;
      config.gid = group.gid;
      config.si = kSi;
      config.num_series = static_cast<int>(group.tids.size());
      config.error_bound = ErrorBound::Lossless();
      config.registry = &registry_;
      SegmentGenerator generator(config, group.tids);
      std::vector<bool> absent(group.tids.size(), false);
      for (int i = 0; i < 2000; ++i) {
        if (i % 37 == 0) {
          for (size_t s = 0; s < absent.size(); ++s) {
            absent[s] = rng.NextDouble() < 0.2;
          }
        }
        GroupRow row;
        row.timestamp = kStart + static_cast<Timestamp>(i) * kSi;
        for (size_t s = 0; s < group.tids.size(); ++s) {
          Tid tid = group.tids[s];
          float raw;
          switch ((i / 25) % 3) {
            case 0:
              raw = 10.0f * tid;
              break;
            case 1:
              raw = static_cast<float>(3 * (i % 25) + tid);
              break;
            default:
              raw = static_cast<float>(rng.NextU64() % 500) + 0.25f * tid;
          }
          double scaling = catalog_->Get(tid).scaling;
          row.values.push_back(static_cast<Value>(raw * scaling));
          row.present.push_back(!absent[s]);
        }
        ASSERT_TRUE(generator.Ingest(row, &segments).ok());
      }
      ASSERT_TRUE(generator.Flush(&segments).ok());
    }
    ASSERT_GT(segments.size(), 100u);
    segments_ = segments;

    SegmentStoreOptions reference;  // No registry: decodes everything.
    auto store = SegmentStore::Open(reference);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PutBatch(segments).ok());
    stores_.push_back(std::move(*store));
    labels_.push_back("reference");
    root_ = std::filesystem::temp_directory_path() /
            ("mdb_summary_index_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    for (size_t block_size : kBlockSizes) {
      for (Placement placement : kPlacements) {
        ASSERT_NO_FATAL_FAILURE(AddStore(block_size, placement));
      }
    }
    engine_ =
        std::make_unique<QueryEngine>(catalog_.get(), groups_, &registry_);
  }

  void TearDown() override {
    stores_.clear();
    std::filesystem::remove_all(root_);
  }

  void AddStore(size_t block_size, Placement placement) {
    SegmentStoreOptions options;
    options.block_size = block_size;
    options.registry = &registry_;
    for (const auto& g : groups_) {
      options.group_sizes[g.gid] = static_cast<int>(g.tids.size());
    }
    const size_t index = stores_.size();
    if (placement != Placement::kHot) {
      options.directory = (root_ / std::to_string(index)).string();
    }
    auto opened = SegmentStore::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    std::unique_ptr<SegmentStore> store = std::move(*opened);
    const size_t half = segments_.size() / 2;
    std::vector<Segment> first, second;
    for (size_t i = 0; i < segments_.size(); ++i) {
      bool early = true;
      if (placement == Placement::kHalf || placement == Placement::kReopened) {
        early = i < half;
      } else if (placement == Placement::kOutOfOrder) {
        early = i % 5 != 0;
      }
      (early ? first : second).push_back(segments_[i]);
    }
    ASSERT_TRUE(store->PutBatch(first).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->PutBatch(second).ok());
    if (placement == Placement::kReopened) {
      store.reset();
      opened = SegmentStore::Open(options);
      ASSERT_TRUE(opened.ok()) << opened.status();
      store = std::move(*opened);
    }
    ASSERT_EQ(store->NumSegments(), static_cast<int64_t>(segments_.size()));
    stores_.push_back(std::move(store));
    labels_.push_back("block size " + std::to_string(block_size) +
                      ", placement " +
                      std::to_string(static_cast<int>(placement)));
    slots_[{block_size, placement}] = index;
  }

  size_t Slot(size_t block_size, Placement placement) {
    return slots_.at({block_size, placement});
  }

  // Runs `sql` against every store and asserts the indexed results are
  // bit-identical (Cell operator== compares doubles exactly) to the
  // reference store's.
  void ExpectIdenticalAcrossStores(const std::string& sql) {
    std::vector<QueryResult> results;
    for (const auto& store : stores_) {
      auto result = engine_->Execute(sql, {store.get()});
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
      results.push_back(std::move(*result));
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0].columns, results[i].columns) << sql;
      ASSERT_EQ(results[0].rows.size(), results[i].rows.size())
          << sql << " at " << labels_[i];
      for (size_t r = 0; r < results[0].rows.size(); ++r) {
        EXPECT_EQ(results[0].rows[r], results[i].rows[r])
            << sql << " row " << r << " at " << labels_[i];
      }
    }
  }

  ScanStats StatsFor(const std::string& sql, size_t store_index) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok());
    auto compiled = engine_->Compile(*ast);
    EXPECT_TRUE(compiled.ok());
    auto partial = engine_->ExecutePartial(*compiled, *stores_[store_index]);
    EXPECT_TRUE(partial.ok());
    return partial.ok() ? partial->scan : ScanStats{};
  }

  std::unique_ptr<TimeSeriesCatalog> catalog_;
  std::vector<TimeSeriesGroup> groups_;
  ModelRegistry registry_;
  std::vector<Segment> segments_;
  std::vector<std::unique_ptr<SegmentStore>> stores_;  // [0]: reference.
  std::vector<std::string> labels_;
  std::map<std::pair<size_t, Placement>, size_t> slots_;
  std::filesystem::path root_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(SummaryIndexPropertyTest, WholeRangeAggregatesIdentical) {
  ExpectIdenticalAcrossStores(
      "SELECT COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*) "
      "FROM Segment");
  ExpectIdenticalAcrossStores(
      "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*) "
      "FROM Segment GROUP BY Tid ORDER BY Tid");
  ExpectIdenticalAcrossStores(
      "SELECT Park, SUM_S(*) FROM Segment GROUP BY Park ORDER BY Park");
}

TEST_F(SummaryIndexPropertyTest, TimeRangesIncludingExactBoundaries) {
  // Generic interior ranges plus ranges whose endpoints equal actual
  // segment start/end timestamps (fence comparisons become equalities).
  std::vector<std::pair<Timestamp, Timestamp>> ranges = {
      {kStart + 137 * kSi, kStart + 1500 * kSi},
      {kStart + 1, kStart + 999 * kSi + 1},
  };
  for (size_t i = 0; i < segments_.size(); i += 17) {
    ranges.emplace_back(segments_[i].start_time, segments_[i].end_time);
    if (i + 23 < segments_.size()) {
      ranges.emplace_back(segments_[i].end_time,
                          segments_[i + 23].end_time);
    }
  }
  for (const auto& [lo, hi] : ranges) {
    if (lo > hi) continue;
    std::string where = " WHERE TS >= " + std::to_string(lo) +
                        " AND TS <= " + std::to_string(hi);
    ExpectIdenticalAcrossStores(
        "SELECT COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment" +
        where);
    ExpectIdenticalAcrossStores(
        "SELECT Tid, AVG_S(*) FROM Segment" + where +
        " GROUP BY Tid ORDER BY Tid");
  }
}

TEST_F(SummaryIndexPropertyTest, ValuePredicatesIdentical) {
  for (const char* where :
       {" WHERE Value >= 100", " WHERE Value <= 250",
        " WHERE Value >= 50 AND Value <= 400",
        " WHERE Value >= -1000000",  // Contains every block.
        " WHERE Value >= 1000000"}) {  // Disjoint from every block.
    ExpectIdenticalAcrossStores(
        std::string("SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) "
                    "FROM Segment") +
        where + " GROUP BY Tid ORDER BY Tid");
  }
}

TEST_F(SummaryIndexPropertyTest, DataPointViewIdentical) {
  ExpectIdenticalAcrossStores(
      "SELECT COUNT(Value), MIN(Value), MAX(Value) FROM DataPoint");
  ExpectIdenticalAcrossStores(
      "SELECT Tid, COUNT(Value), MIN(Value), MAX(Value) FROM DataPoint "
      "GROUP BY Tid ORDER BY Tid");
  // SUM/AVG fold per point in the exhaustive path, so the index must
  // fall back to decoding and still agree.
  ExpectIdenticalAcrossStores(
      "SELECT Tid, SUM(Value), AVG(Value) FROM DataPoint "
      "GROUP BY Tid ORDER BY Tid");
  ExpectIdenticalAcrossStores(
      "SELECT Tid, COUNT(Value) FROM DataPoint WHERE TS >= " +
      std::to_string(kStart + 100 * kSi) + " AND TS <= " +
      std::to_string(kStart + 1700 * kSi) + " GROUP BY Tid ORDER BY Tid");
}

TEST_F(SummaryIndexPropertyTest, SelectedTidSubsetsIdentical) {
  ExpectIdenticalAcrossStores(
      "SELECT SUM_S(*), COUNT_S(*) FROM Segment WHERE Tid IN (2, 4)");
  ExpectIdenticalAcrossStores(
      "SELECT Tid, MAX_S(*) FROM Segment WHERE Tid IN (1, 3, 5) "
      "GROUP BY Tid ORDER BY Tid");
}

TEST_F(SummaryIndexPropertyTest, WholeRangeAnswersFromSummariesOnly) {
  // A whole-range aggregate must be served entirely from the index:
  // blocks summarized, nothing decoded.
  ScanStats stats = StatsFor("SELECT SUM_S(*), COUNT_S(*) FROM Segment",
                             Slot(256, Placement::kHot));
  EXPECT_GT(stats.blocks_summarized, 0);
  EXPECT_EQ(stats.blocks_scanned, 0);
  EXPECT_EQ(stats.segments_scanned, 0);
  EXPECT_EQ(stats.segments_decoded, 0);

  // The reference store decodes every segment.
  ScanStats exhaustive =
      StatsFor("SELECT SUM_S(*), COUNT_S(*) FROM Segment", 0);
  EXPECT_EQ(exhaustive.blocks_summarized, 0);
  EXPECT_EQ(exhaustive.segments_decoded,
            static_cast<int64_t>(segments_.size()));
}

TEST_F(SummaryIndexPropertyTest, CheckpointedBlocksAnswerFromSummaries) {
  // Leased blocks are summary blocks like any other: a whole-range SUM on
  // checkpointed data folds summaries and decodes nothing.
  for (size_t block_size : kBlockSizes) {
    for (Placement placement :
         {Placement::kCheckpointed, Placement::kReopened}) {
      ScanStats stats = StatsFor("SELECT SUM_S(*) FROM Segment",
                                 Slot(block_size, placement));
      EXPECT_GT(stats.blocks_summarized, 0) << block_size;
      EXPECT_EQ(stats.segments_decoded, 0) << block_size;
    }
  }
}

TEST_F(SummaryIndexPropertyTest, CountOnlyDataPointSkipsDecoding) {
  const size_t hot = Slot(256, Placement::kHot);
  ScanStats stats = StatsFor("SELECT COUNT(Value) FROM DataPoint", hot);
  EXPECT_GT(stats.blocks_summarized, 0);
  EXPECT_EQ(stats.segments_decoded, 0);
  // SUM must decode (per-point fold order).
  ScanStats sum_stats = StatsFor("SELECT SUM(Value) FROM DataPoint", hot);
  EXPECT_EQ(sum_stats.blocks_summarized, 0);
  EXPECT_GT(sum_stats.segments_decoded, 0);
}

TEST_F(SummaryIndexPropertyTest, ExplainAnalyzeReportsPruningCounters) {
  auto result = engine_->Execute("EXPLAIN ANALYZE SELECT SUM_S(*) FROM Segment",
                                 {stores_[Slot(256, Placement::kHot)].get()});
  ASSERT_TRUE(result.ok()) << result.status();
  std::map<std::string, int64_t> counters;
  for (const auto& row : result->rows) {
    const std::string& line = std::get<std::string>(row[0]);
    size_t colon = line.rfind(": ");
    if (colon == std::string::npos) continue;
    char* end = nullptr;
    long long value = std::strtoll(line.c_str() + colon + 2, &end, 10);
    if (end != nullptr && *end == '\0') {
      counters[line.substr(0, colon)] = value;
    }
  }
  ASSERT_TRUE(counters.count("blocks skipped"));
  ASSERT_TRUE(counters.count("blocks summarized"));
  ASSERT_TRUE(counters.count("blocks scanned"));
  ASSERT_TRUE(counters.count("segments scanned"));
  ASSERT_TRUE(counters.count("segments decoded"));
  EXPECT_GT(counters["blocks summarized"], 0);
  EXPECT_EQ(counters["segments decoded"], 0);
}

TEST_F(SummaryIndexPropertyTest, PlainExplainEstimatesWithoutExecuting) {
  // Plain EXPLAIN must not run the scan: no pruning counters, only the
  // fence-based surviving-segment upper bound (whole range == everything).
  auto result = engine_->Execute("EXPLAIN SELECT SUM_S(*) FROM Segment",
                                 {stores_[Slot(256, Placement::kHot)].get()});
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_estimate = false;
  for (const auto& row : result->rows) {
    const std::string& line = std::get<std::string>(row[0]);
    EXPECT_EQ(line.find("segments decoded"), std::string::npos) << line;
    EXPECT_EQ(line.find("blocks summarized"), std::string::npos) << line;
    if (line == "estimated surviving segments: " +
                    std::to_string(segments_.size())) {
      saw_estimate = true;
    }
  }
  EXPECT_TRUE(saw_estimate);
}

TEST_F(SummaryIndexPropertyTest, TimeBoundedScanStopsEarly) {
  // A range at the head of the data: the suffix-min fence must prune the
  // tail blocks instead of scanning them. Block size 3 gives every group
  // many blocks, so the tail is long.
  ScanStats stats = StatsFor(
      "SELECT COUNT_S(*) FROM Segment WHERE TS <= " +
          std::to_string(kStart + 50 * kSi),
      Slot(3, Placement::kHot));
  EXPECT_GT(stats.blocks_skipped, 0);
  EXPECT_LT(stats.blocks_scanned + stats.blocks_summarized,
            stats.blocks_skipped);
}

}  // namespace
}  // namespace query
}  // namespace modelardb
