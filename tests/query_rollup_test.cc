// Calendar-edge tests for Algorithm 6: segments spanning hour, day, month
// and year boundaries (including a leap February) must split their
// aggregates exactly at the boundaries, matching data-point-level
// bucketing. Every case also runs on indexed stores, where blocks and
// segments inside one bucket fold their summaries and only straddlers
// decode, and must return the same rows as the store that decodes all.

#include <gtest/gtest.h>

#include <map>

#include "core/segment_generator.h"
#include "query/engine.h"

namespace modelardb {
namespace query {
namespace {

const size_t kBlockSizes[] = {1, 256};

class RollupTest : public ::testing::Test {
 protected:
  // Builds an engine over one series sampled every `si` starting at
  // `start`, with values equal to the row index (easy ground truth).
  void Build(Timestamp start, SamplingInterval si, int rows) {
    start_ = start;
    si_ = si;
    rows_ = rows;
    catalog_ = std::make_unique<TimeSeriesCatalog>(std::vector<Dimension>{});
    TimeSeriesMeta meta;
    meta.tid = 1;
    meta.si = si;
    meta.source = "s";
    ASSERT_TRUE(catalog_->AddSeries(meta).ok());
    catalog_->GetMutable(1)->gid = 1;
    groups_ = {{1, {1}, si}};
    registry_ = ModelRegistry::Default();
    // The reference has no registry, so no summaries: every segment
    // decodes.
    stores_.push_back(std::move(*SegmentStore::Open(SegmentStoreOptions{})));
    for (size_t block_size : kBlockSizes) {
      SegmentStoreOptions options;
      options.block_size = block_size;
      options.registry = &registry_;
      options.group_sizes[1] = 1;
      stores_.push_back(std::move(*SegmentStore::Open(options)));
    }
    SegmentGeneratorConfig config;
    config.gid = 1;
    config.si = si;
    config.num_series = 1;
    config.registry = &registry_;
    SegmentGenerator generator(config, {1});
    std::vector<Segment> segments;
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(generator
                      .Ingest(GroupRow(start + static_cast<Timestamp>(i) * si,
                                       {static_cast<Value>(i)}),
                              &segments)
                      .ok());
    }
    ASSERT_TRUE(generator.Flush(&segments).ok());
    for (const auto& store : stores_) {
      ASSERT_TRUE(store->PutBatch(segments).ok());
    }
    engine_ = std::make_unique<QueryEngine>(catalog_.get(), groups_,
                                            &registry_);
  }

  // Runs `sql` on every store and returns the reference's result, after
  // asserting that each indexed store returns the same rows.
  Result<QueryResult> Execute(const std::string& sql) {
    Result<QueryResult> reference = engine_->Execute(sql, {stores_[0].get()});
    for (size_t i = 1; i < stores_.size(); ++i) {
      Result<QueryResult> indexed = engine_->Execute(sql, {stores_[i].get()});
      EXPECT_EQ(indexed.ok(), reference.ok()) << sql;
      if (indexed.ok() && reference.ok()) {
        EXPECT_EQ(indexed->rows, reference->rows)
            << sql << " at block size " << kBlockSizes[i - 1];
      }
    }
    return reference;
  }

  // Ground truth: per-bucket sums of the row-index values.
  std::map<int64_t, double> Bucketize(TimeLevel level) const {
    std::map<int64_t, double> out;
    for (int i = 0; i < rows_; ++i) {
      Timestamp ts = start_ + static_cast<Timestamp>(i) * si_;
      out[TimeBucket(ts, level)] += i;
    }
    return out;
  }

  void CheckCube(const std::string& fn, TimeLevel level) {
    auto result = Execute("SELECT " + fn + "(*) FROM Segment WHERE Tid = 1");
    ASSERT_TRUE(result.ok()) << result.status();
    std::map<int64_t, double> expected = Bucketize(level);
    ASSERT_EQ(result->rows.size(), expected.size());
    for (const auto& row : result->rows) {
      int64_t bucket = std::get<int64_t>(row[0]);
      ASSERT_TRUE(expected.count(bucket)) << bucket;
      EXPECT_NEAR(std::get<double>(row[1]), expected[bucket],
                  std::abs(expected[bucket]) * 1e-6 + 1e-6)
          << TimeLevelName(level) << " bucket " << bucket;
    }
  }

  Timestamp start_ = 0;
  SamplingInterval si_ = 0;
  int rows_ = 0;
  std::unique_ptr<TimeSeriesCatalog> catalog_;
  std::vector<TimeSeriesGroup> groups_;
  ModelRegistry registry_;
  std::vector<std::unique_ptr<SegmentStore>> stores_;  // [0]: reference.
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(RollupTest, HourBucketsMidStart) {
  // Starts at 06:13 like Fig 12's example.
  Build(FromCivil({2016, 4, 12, 6, 13, 0, 0}), 60 * 1000, 300);
  CheckCube("CUBE_SUM_HOUR", TimeLevel::kHour);
}

TEST_F(RollupTest, DayBucketsAcrossMidnight) {
  Build(FromCivil({2016, 4, 12, 22, 0, 0, 0}), 10 * 60 * 1000, 400);
  CheckCube("CUBE_SUM_DAY", TimeLevel::kDay);
}

TEST_F(RollupTest, MonthBucketsAcrossLeapFebruary) {
  // Hourly data from Jan 30 2016 through early March: crosses Feb 29.
  Build(FromCivil({2016, 1, 30, 0, 0, 0, 0}), 3600 * 1000, 24 * 35);
  CheckCube("CUBE_SUM_MONTH", TimeLevel::kMonth);
}

TEST_F(RollupTest, YearBucketsAcrossNewYear) {
  Build(FromCivil({2015, 12, 30, 0, 0, 0, 0}), 3600 * 1000, 24 * 5);
  CheckCube("CUBE_SUM_YEAR", TimeLevel::kYear);
}

TEST_F(RollupTest, MinuteBucketsHighFrequency) {
  Build(FromCivil({2016, 4, 12, 6, 0, 30, 0}), 100, 3000);
  CheckCube("CUBE_SUM_MINUTE", TimeLevel::kMinute);
}

TEST_F(RollupTest, AvgAndCountAgreeWithSum) {
  Build(FromCivil({2016, 4, 12, 6, 13, 0, 0}), 60 * 1000, 300);
  auto result = Execute(
      "SELECT CUBE_SUM_HOUR(*), CUBE_COUNT_HOUR(*), CUBE_AVG_HOUR(*) "
      "FROM Segment WHERE Tid = 1");
  ASSERT_TRUE(result.ok());
  for (const auto& row : result->rows) {
    double sum = std::get<double>(row[1]);
    int64_t count = std::get<int64_t>(row[2]);
    double avg = std::get<double>(row[3]);
    EXPECT_NEAR(avg, sum / count, 1e-9);
  }
}

TEST_F(RollupTest, CubeRespectsTimeRangePredicate) {
  Build(FromCivil({2016, 4, 12, 6, 0, 0, 0}), 60 * 1000, 600);
  Timestamp lo = FromCivil({2016, 4, 12, 8, 0, 0, 0});
  Timestamp hi = FromCivil({2016, 4, 12, 10, 0, 0, 0}) - 1;
  auto result = Execute(
      "SELECT CUBE_COUNT_HOUR(*) FROM Segment WHERE Tid = 1 AND TS >= " +
      std::to_string(lo) + " AND TS <= " + std::to_string(hi));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);  // Exactly hours 8 and 9.
  for (const auto& row : result->rows) {
    EXPECT_EQ(std::get<int64_t>(row[1]), 60);
  }
}

TEST_F(RollupTest, MixedCubeLevelsRejected) {
  Build(FromCivil({2016, 4, 12, 6, 0, 0, 0}), 60 * 1000, 10);
  auto result =
      Execute("SELECT CUBE_SUM_HOUR(*), CUBE_SUM_DAY(*) FROM Segment");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace query
}  // namespace modelardb
