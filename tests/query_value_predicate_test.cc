// Tests for value predicates with model-exploiting segment pruning (the
// paper's future work (i)): per-segment min/max statistics skip segments
// whose value range cannot match the predicate.

#include <gtest/gtest.h>

#include "core/segment_generator.h"
#include "query/engine.h"
#include "query/parser.h"
#include "storage/segment_store.h"

namespace modelardb {
namespace query {
namespace {

constexpr SamplingInterval kSi = 100;

class ValuePredicateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<TimeSeriesCatalog>(std::vector<Dimension>{});
    TimeSeriesMeta meta;
    meta.tid = 1;
    meta.si = kSi;
    meta.source = "s1";
    ASSERT_TRUE(catalog_->AddSeries(meta).ok());
    groups_ = {{1, {1}, kSi}};
    catalog_->GetMutable(1)->gid = 1;
    registry_ = ModelRegistry::Default();
    store_ = std::move(*SegmentStore::Open(SegmentStoreOptions{}));

    // A staircase: 100 rows at 10, 100 rows at 50, 100 rows at 90.
    SegmentGeneratorConfig config;
    config.gid = 1;
    config.si = kSi;
    config.num_series = 1;
    config.registry = &registry_;
    SegmentGenerator generator(config, {1});
    std::vector<Segment> segments;
    for (int i = 0; i < 300; ++i) {
      Value v = i < 100 ? 10.0f : (i < 200 ? 50.0f : 90.0f);
      ASSERT_TRUE(generator.Ingest(GroupRow(i * kSi, {v}), &segments).ok());
    }
    ASSERT_TRUE(generator.Flush(&segments).ok());
    ASSERT_TRUE(store_->PutBatch(segments).ok());
    engine_ = std::make_unique<QueryEngine>(catalog_.get(), groups_,
                                            &registry_);
  }

  QueryResult Run(const std::string& sql) {
    auto result = engine_->Execute(sql, {store_.get()});
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? *result : QueryResult{};
  }

  std::unique_ptr<TimeSeriesCatalog> catalog_;
  std::vector<TimeSeriesGroup> groups_;
  ModelRegistry registry_;
  std::unique_ptr<SegmentStore> store_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(ValuePredicateTest, SegmentStatisticsAreExact) {
  SegmentFilter all;
  ASSERT_TRUE(store_
                  ->Scan(all,
                         [](const Segment& s) {
                           EXPECT_LE(s.min_value, s.max_value);
                           EXPECT_GE(s.min_value, 10.0f);
                           EXPECT_LE(s.max_value, 90.0f);
                           return Status::OK();
                         })
                  .ok());
}

TEST_F(ValuePredicateTest, CountWithRange) {
  QueryResult r = Run("SELECT COUNT_S(*) FROM Segment WHERE Value >= 40 "
                      "AND Value <= 60");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 100);  // Only the 50s.
}

TEST_F(ValuePredicateTest, StrictComparisons) {
  QueryResult gt = Run("SELECT COUNT_S(*) FROM Segment WHERE Value > 50");
  EXPECT_EQ(std::get<int64_t>(gt.rows[0][0]), 100);  // The 90s only.
  QueryResult ge = Run("SELECT COUNT_S(*) FROM Segment WHERE Value >= 50");
  EXPECT_EQ(std::get<int64_t>(ge.rows[0][0]), 200);
  QueryResult lt = Run("SELECT COUNT_S(*) FROM Segment WHERE Value < 10");
  EXPECT_EQ(std::get<int64_t>(lt.rows[0][0]), 0);
  QueryResult eq = Run("SELECT COUNT_S(*) FROM Segment WHERE Value = 90");
  EXPECT_EQ(std::get<int64_t>(eq.rows[0][0]), 100);
}

TEST_F(ValuePredicateTest, SumMatchesFilteredGroundTruth) {
  QueryResult r = Run("SELECT SUM_S(*) FROM Segment WHERE Value >= 50");
  EXPECT_NEAR(std::get<double>(r.rows[0][0]), 100 * 50.0 + 100 * 90.0, 1e-3);
}

TEST_F(ValuePredicateTest, DataPointViewFiltered) {
  QueryResult r = Run("SELECT Tid, TS, Value FROM DataPoint "
                      "WHERE Value BETWEEN 45 AND 55");
  EXPECT_EQ(r.rows.size(), 100u);
  for (const auto& row : r.rows) {
    EXPECT_DOUBLE_EQ(std::get<double>(row[2]), 50.0);
  }
}

TEST_F(ValuePredicateTest, CombinesWithTimePredicate) {
  Timestamp lo = 150 * kSi;  // Second half of the 50s block onward.
  QueryResult r = Run("SELECT COUNT_S(*) FROM Segment WHERE Value = 50 "
                      "AND TS >= " + std::to_string(lo));
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 50);
}

TEST_F(ValuePredicateTest, CubeWithValueFilter) {
  // Per-minute counts of values >= 50: rows 100..299 = instants 10s..30s.
  QueryResult r = Run("SELECT CUBE_COUNT_MINUTE(*) FROM Segment "
                      "WHERE Value >= 50");
  int64_t total = 0;
  for (const auto& row : r.rows) total += std::get<int64_t>(row[1]);
  EXPECT_EQ(total, 200);
}

TEST_F(ValuePredicateTest, DisjointSegmentsArePruned) {
  // Compile a query whose value range only matches the 90s block and
  // check the pruning path: the correct result, and segments the scan
  // delivered but never decoded (their statistics ruled them out).
  auto ast = *ParseQuery("SELECT COUNT_S(*) FROM Segment WHERE Value > 80");
  auto compiled = *engine_->Compile(ast);
  EXPECT_TRUE(compiled.has_value_predicate);
  EXPECT_GT(compiled.min_value, 80.0 - 1e-9);
  auto partial = *engine_->ExecutePartial(compiled, *store_);
  EXPECT_GT(partial.scan.segments_scanned, 0);
  EXPECT_LT(partial.scan.segments_decoded, partial.scan.segments_scanned);
  std::vector<PartialResult> partials;
  partials.push_back(std::move(partial));
  auto result = *engine_->MergeFinalize(compiled, std::move(partials));
  EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), 100);
}

TEST(ValuePredicateParserTest, RejectsNonNumeric) {
  EXPECT_FALSE(ParseQuery("SELECT * FROM DataPoint WHERE Value = 'x'").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM DataPoint WHERE Value IN (1)").ok());
}

}  // namespace
}  // namespace query
}  // namespace modelardb
