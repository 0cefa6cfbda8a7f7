#include "query/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/group_coordinator.h"
#include "query/parser.h"
#include "util/random.h"

namespace modelardb {
namespace query {
namespace {

constexpr SamplingInterval kSi = 100;

// Test fixture: 4 series in 2 groups with dimensions, ingested losslessly.
//   Group 1 (Aalborg): Tid 1, 2 (Temperature)
//   Group 2 (Farsoe):  Tid 3 (Temperature), Tid 4 (Production, scaling 2)
class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<TimeSeriesCatalog>(std::vector<Dimension>{
        Dimension("Location", {"Country", "Park"}),
        Dimension("Measure", {"Category"})});
    auto add = [&](Tid tid, const char* park, const char* category,
                   double scaling) {
      TimeSeriesMeta meta;
      meta.tid = tid;
      meta.si = kSi;
      meta.scaling = scaling;
      meta.source = "s" + std::to_string(tid);
      meta.members = {{"Denmark", park}, {category}};
      ASSERT_TRUE(catalog_->AddSeries(meta).ok());
    };
    add(1, "Aalborg", "Temperature", 1.0);
    add(2, "Aalborg", "Temperature", 1.0);
    add(3, "Farsoe", "Temperature", 1.0);
    add(4, "Farsoe", "Production", 2.0);

    groups_ = {{1, {1, 2}, kSi}, {2, {3, 4}, kSi}};
    for (const auto& g : groups_) {
      for (Tid tid : g.tids) catalog_->GetMutable(tid)->gid = g.gid;
    }

    registry_ = ModelRegistry::Default();
    store_ = std::move(*SegmentStore::Open(SegmentStoreOptions{}));

    // Ingest 600 rows of known data. Values are chosen so every aggregate
    // has an exact ground truth at a 0% error bound.
    Random rng(1);
    for (const auto& group : groups_) {
      SegmentGeneratorConfig config;
      config.gid = group.gid;
      config.si = kSi;
      config.num_series = static_cast<int>(group.tids.size());
      config.error_bound = ErrorBound::Lossless();
      config.registry = &registry_;
      SegmentGenerator generator(config, group.tids);
      std::vector<Segment> segments;
      for (int i = 0; i < 600; ++i) {
        GroupRow row;
        row.timestamp = start_time_ + i * kSi;
        for (Tid tid : group.tids) {
          // Raw (user-facing) value; stored value is raw * scaling (§3.3).
          float raw = RawValue(tid, i);
          double scaling = catalog_->Get(tid).scaling;
          row.values.push_back(static_cast<Value>(raw * scaling));
          row.present.push_back(true);
          truth_[tid][row.timestamp] = raw;
        }
        ASSERT_TRUE(generator.Ingest(row, &segments).ok());
      }
      ASSERT_TRUE(generator.Flush(&segments).ok());
      ASSERT_TRUE(store_->PutBatch(segments).ok());
    }

    engine_ = std::make_unique<QueryEngine>(catalog_.get(), groups_,
                                            &registry_);
  }

  // Piecewise pattern exercising PMC (constant), Swing (linear), Gorilla.
  static float RawValue(Tid tid, int i) {
    int phase = i / 100;
    switch (phase % 3) {
      case 0:
        return 10.0f * tid;
      case 1:
        return static_cast<float>(2 * (i % 100) + tid);
      default:
        return static_cast<float>(((i * 2654435761u) % 1000) + tid);
    }
  }

  QueryResult Run(const std::string& sql) {
    auto result = engine_->Execute(sql, {store_.get()});
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? *result : QueryResult{};
  }

  // Ground-truth aggregate over `tids` within [min_ts, max_ts].
  struct Truth {
    int64_t count = 0;
    double sum = 0, min = 1e300, max = -1e300;
  };
  Truth TruthFor(std::vector<Tid> tids, Timestamp min_ts = INT64_MIN,
                 Timestamp max_ts = INT64_MAX) const {
    Truth t;
    for (Tid tid : tids) {
      for (const auto& [ts, v] : truth_.at(tid)) {
        if (ts < min_ts || ts > max_ts) continue;
        ++t.count;
        t.sum += v;
        t.min = std::min(t.min, static_cast<double>(v));
        t.max = std::max(t.max, static_cast<double>(v));
      }
    }
    return t;
  }

  Timestamp start_time_ = FromCivil({2016, 4, 12, 6, 13, 0, 0});
  std::unique_ptr<TimeSeriesCatalog> catalog_;
  std::vector<TimeSeriesGroup> groups_;
  ModelRegistry registry_;
  std::unique_ptr<SegmentStore> store_;
  std::unique_ptr<QueryEngine> engine_;
  std::map<Tid, std::map<Timestamp, float>> truth_;
};

TEST_F(QueryEngineTest, GlobalCountMatchesIngestedPoints) {
  QueryResult r = Run("SELECT COUNT_S(*) FROM Segment");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 4 * 600);
}

TEST_F(QueryEngineTest, SumPerTidMatchesGroundTruth) {
  QueryResult r = Run("SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid");
  ASSERT_EQ(r.rows.size(), 4u);
  for (const auto& row : r.rows) {
    Tid tid = static_cast<Tid>(std::get<int64_t>(row[0]));
    Truth t = TruthFor({tid});
    EXPECT_NEAR(std::get<double>(row[1]), t.sum, std::abs(t.sum) * 1e-5)
        << "tid " << tid;
  }
}

TEST_F(QueryEngineTest, MinMaxAvgMatchGroundTruth) {
  QueryResult r = Run(
      "SELECT Tid, MIN_S(*), MAX_S(*), AVG_S(*) FROM Segment GROUP BY Tid");
  for (const auto& row : r.rows) {
    Tid tid = static_cast<Tid>(std::get<int64_t>(row[0]));
    Truth t = TruthFor({tid});
    EXPECT_NEAR(std::get<double>(row[1]), t.min, 1e-3) << tid;
    EXPECT_NEAR(std::get<double>(row[2]), t.max, 1e-3) << tid;
    EXPECT_NEAR(std::get<double>(row[3]), t.sum / t.count,
                std::abs(t.sum / t.count) * 1e-5)
        << tid;
  }
}

TEST_F(QueryEngineTest, SegmentAndDataPointViewsAgree) {
  QueryResult seg = Run("SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid");
  QueryResult dpv = Run("SELECT Tid, SUM(Value) FROM DataPoint GROUP BY Tid");
  ASSERT_EQ(seg.rows.size(), dpv.rows.size());
  for (size_t i = 0; i < seg.rows.size(); ++i) {
    EXPECT_EQ(std::get<int64_t>(seg.rows[i][0]),
              std::get<int64_t>(dpv.rows[i][0]));
    double a = std::get<double>(seg.rows[i][1]);
    double b = std::get<double>(dpv.rows[i][1]);
    EXPECT_NEAR(a, b, std::abs(b) * 1e-5);
  }
}

TEST_F(QueryEngineTest, TidPredicateSelectsWithinGroup) {
  // Tid 1 shares group 1 with Tid 2; only Tid 1 must be aggregated.
  QueryResult r = Run("SELECT SUM_S(*) FROM Segment WHERE Tid = 1");
  Truth t = TruthFor({1});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_NEAR(std::get<double>(r.rows[0][0]), t.sum, std::abs(t.sum) * 1e-5);
}

TEST_F(QueryEngineTest, RewritingPushesDownGids) {
  auto ast = *ParseQuery("SELECT SUM_S(*) FROM Segment WHERE Tid IN (1, 2)");
  auto compiled = *engine_->Compile(ast);
  EXPECT_EQ(compiled.filter.gids, (std::vector<Gid>{1}));
  auto ast2 = *ParseQuery(
      "SELECT SUM_S(*) FROM Segment WHERE Category = 'Production'");
  auto compiled2 = *engine_->Compile(ast2);
  EXPECT_EQ(compiled2.filter.gids, (std::vector<Gid>{2}));
  EXPECT_EQ(compiled2.selected_tids, (std::set<Tid>{4}));
}

TEST_F(QueryEngineTest, ScalingConstantsDivideResults) {
  // Tid 4 was ingested with scaling 2: stored values are raw*2, but query
  // results must be in raw units.
  QueryResult r = Run("SELECT SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment "
                      "WHERE Tid = 4");
  Truth t = TruthFor({4});
  EXPECT_NEAR(std::get<double>(r.rows[0][0]), t.sum, std::abs(t.sum) * 1e-5);
  EXPECT_NEAR(std::get<double>(r.rows[0][1]), t.min, 1e-3);
  EXPECT_NEAR(std::get<double>(r.rows[0][2]), t.max, 1e-3);
}

TEST_F(QueryEngineTest, DimensionPredicateFiltersSeries) {
  QueryResult r = Run(
      "SELECT SUM_S(*) FROM Segment WHERE Category = 'Temperature'");
  Truth t = TruthFor({1, 2, 3});
  EXPECT_NEAR(std::get<double>(r.rows[0][0]), t.sum, std::abs(t.sum) * 1e-5);
}

TEST_F(QueryEngineTest, GroupByDimensionRollsUp) {
  QueryResult r = Run(
      "SELECT Park, COUNT_S(*) FROM Segment GROUP BY Park ORDER BY Park");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(r.rows[0][0]), "Aalborg");
  EXPECT_EQ(std::get<int64_t>(r.rows[0][1]), 2 * 600);
  EXPECT_EQ(std::get<std::string>(r.rows[1][0]), "Farsoe");
  EXPECT_EQ(std::get<int64_t>(r.rows[1][1]), 2 * 600);
}

TEST_F(QueryEngineTest, QualifiedDimensionColumn) {
  QueryResult r = Run(
      "SELECT Location.Park, COUNT_S(*) FROM Segment GROUP BY Location.Park");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(QueryEngineTest, TimeRangeRestrictsAggregation) {
  Timestamp lo = start_time_ + 150 * kSi;
  Timestamp hi = start_time_ + 449 * kSi;
  QueryResult r = Run("SELECT SUM_S(*) FROM Segment WHERE Tid = 2 AND TS >= " +
                      std::to_string(lo) + " AND TS <= " + std::to_string(hi));
  Truth t = TruthFor({2}, lo, hi);
  EXPECT_EQ(t.count, 300);
  EXPECT_NEAR(std::get<double>(r.rows[0][0]), t.sum, std::abs(t.sum) * 1e-5);
}

TEST_F(QueryEngineTest, CubeHourMatchesManualBucketing) {
  QueryResult r = Run(
      "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Tid = 3 GROUP BY Tid");
  // Manual bucketing of the ground truth by hour.
  std::map<int64_t, double> buckets;
  for (const auto& [ts, v] : truth_.at(3)) {
    buckets[TimeBucket(ts, TimeLevel::kHour)] += v;
  }
  ASSERT_EQ(r.rows.size(), buckets.size());
  ASSERT_EQ(r.columns,
            (std::vector<std::string>{"Tid", "HOUR", "CUBE_SUM_HOUR(*)"}));
  for (const auto& row : r.rows) {
    int64_t bucket = std::get<int64_t>(row[1]);
    ASSERT_TRUE(buckets.count(bucket)) << bucket;
    EXPECT_NEAR(std::get<double>(row[2]), buckets[bucket],
                std::abs(buckets[bucket]) * 1e-5);
  }
}

TEST_F(QueryEngineTest, CubeMinuteCountsPerBucket) {
  QueryResult r = Run("SELECT CUBE_COUNT_MINUTE(*) FROM Segment "
                      "WHERE Tid = 1");
  // 600 rows at 100 ms starting at 06:13:00: 60 s / 0.1 s = 600 per minute,
  // so exactly one full bucket.
  int64_t total = 0;
  for (const auto& row : r.rows) {
    total += std::get<int64_t>(row[1]);
  }
  EXPECT_EQ(total, 600);
}

TEST_F(QueryEngineTest, DataPointViewPointQuery) {
  Timestamp ts = start_time_ + 123 * kSi;
  QueryResult r = Run("SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 2 "
                      "AND TS = " + std::to_string(ts));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 2);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][1]), ts);
  EXPECT_FLOAT_EQ(static_cast<float>(std::get<double>(r.rows[0][2])),
                  truth_.at(2).at(ts));
}

TEST_F(QueryEngineTest, DataPointViewRangeQueryOrderedAndExact) {
  Timestamp lo = start_time_ + 100 * kSi;
  Timestamp hi = start_time_ + 199 * kSi;
  QueryResult r = Run("SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 1 "
                      "AND TS BETWEEN " + std::to_string(lo) + " AND " +
                      std::to_string(hi));
  ASSERT_EQ(r.rows.size(), 100u);
  Timestamp expected_ts = lo;
  for (const auto& row : r.rows) {
    EXPECT_EQ(std::get<int64_t>(row[1]), expected_ts);
    EXPECT_FLOAT_EQ(static_cast<float>(std::get<double>(row[2])),
                    truth_.at(1).at(expected_ts));
    expected_ts += kSi;
  }
}

TEST_F(QueryEngineTest, DataPointViewExposesDimensions) {
  QueryResult r = Run("SELECT Tid, Park, Value FROM DataPoint WHERE Tid = 3 "
                      "LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(r.rows[0][1]), "Farsoe");
}

TEST_F(QueryEngineTest, SegmentViewMetadataRows) {
  QueryResult r = Run("SELECT Tid, StartTime, EndTime, Mid FROM Segment "
                      "WHERE Tid = 1 ORDER BY StartTime");
  ASSERT_GT(r.rows.size(), 1u);
  Timestamp previous_end = start_time_ - kSi;
  for (const auto& row : r.rows) {
    EXPECT_EQ(std::get<int64_t>(row[0]), 1);
    // Disconnected segments: each starts one SI after the previous end.
    EXPECT_EQ(std::get<int64_t>(row[1]), previous_end + kSi);
    previous_end = std::get<int64_t>(row[2]);
  }
}

TEST_F(QueryEngineTest, OrderByAndLimitApply) {
  QueryResult r = Run("SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid "
                      "ORDER BY Tid DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 4);
  EXPECT_EQ(std::get<int64_t>(r.rows[1][0]), 3);
}

TEST_F(QueryEngineTest, EmptySelectionYieldsZeroCounts) {
  Timestamp before = start_time_ - 1000000;
  QueryResult r = Run("SELECT COUNT_S(*), SUM_S(*) FROM Segment WHERE TS <= " +
                      std::to_string(before));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 0);
  EXPECT_EQ(std::get<double>(r.rows[0][1]), 0.0);
}

TEST_F(QueryEngineTest, UnknownColumnAndTidErrors) {
  EXPECT_FALSE(engine_->Execute("SELECT SUM_S(*) FROM Segment WHERE "
                                "Altitude = 'High'", {store_.get()}).ok());
  EXPECT_FALSE(engine_->Execute("SELECT SUM_S(*) FROM Segment WHERE Tid = 99",
                                {store_.get()}).ok());
}

TEST_F(QueryEngineTest, PartialMergeEqualsSingleExecution) {
  // Split the store's groups across two stores and verify the distributed
  // path (ExecutePartial per worker + MergeFinalize, in either worker
  // order) and a two-partition Execute match the single-store Execute bit
  // for bit.
  auto store1 = *SegmentStore::Open(SegmentStoreOptions{});
  auto store2 = *SegmentStore::Open(SegmentStoreOptions{});
  SegmentFilter all;
  ASSERT_TRUE(store_
                  ->Scan(all,
                         [&](const Segment& s) {
                           return (s.gid == 1 ? store1 : store2)->Put(s);
                         })
                  .ok());
  auto ast = *ParseQuery("SELECT Tid, SUM_S(*), AVG_S(*) FROM Segment "
                         "GROUP BY Tid");
  auto compiled = *engine_->Compile(ast);
  QueryResult single = Run("SELECT Tid, SUM_S(*), AVG_S(*) FROM Segment "
                           "GROUP BY Tid");
  ASSERT_EQ(single.rows.size(), 4u);
  for (bool reversed : {false, true}) {
    std::vector<PartialResult> partials;
    partials.push_back(*engine_->ExecutePartial(compiled, *store1));
    partials.push_back(*engine_->ExecutePartial(compiled, *store2));
    if (reversed) std::swap(partials[0], partials[1]);
    QueryResult merged =
        *engine_->MergeFinalize(compiled, std::move(partials));
    // Cell equality compares doubles exactly.
    EXPECT_EQ(merged.rows, single.rows) << "reversed=" << reversed;
  }
  QueryResult partitioned = *engine_->Execute(
      "SELECT Tid, SUM_S(*), AVG_S(*) FROM Segment GROUP BY Tid",
      {store1.get(), store2.get()});
  EXPECT_EQ(partitioned.rows, single.rows);
}

// Figure 11: a linear model representing a group of three series; SUM_S is
// evaluated in constant time on the model and divided by each series'
// scaling constant.
TEST(QueryFigure11Test, SumOnLinearModelWithScaling) {
  TimeSeriesCatalog catalog(std::vector<Dimension>{});
  for (Tid tid = 1; tid <= 3; ++tid) {
    TimeSeriesMeta meta;
    meta.tid = tid;
    meta.si = 100;
    meta.scaling = tid == 1 ? 5.0 : (tid == 2 ? 1.0 : 7.0);
    meta.source = "s";
    ASSERT_TRUE(catalog.AddSeries(meta).ok());
  }
  std::vector<TimeSeriesGroup> groups = {{1, {1, 2, 3}, 100}};
  for (Tid tid = 1; tid <= 3; ++tid) catalog.GetMutable(tid)->gid = 1;
  ModelRegistry registry = ModelRegistry::Default();

  // v = -0.0465 t + 186.1 over t in [100, 2300], SI = 100: in row units
  // (row i at t = 100 + 100 i) the intercept is 181.45, slope -4.65.
  Segment segment;
  segment.gid = 1;
  segment.start_time = 100;
  segment.end_time = 2300;
  segment.si = 100;
  segment.mid = kMidSwing;
  BufferWriter params;
  params.WriteDouble(181.45);
  params.WriteDouble(-4.65);
  segment.parameters = params.Finish();

  auto store = *SegmentStore::Open(SegmentStoreOptions{});
  ASSERT_TRUE(store->Put(segment).ok());
  QueryEngine engine(&catalog, groups, &registry);
  auto result = *engine.Execute(
      "SELECT Tid, SUM_S(*) FROM Segment WHERE Tid IN (1, 2, 3) GROUP BY Tid "
      "ORDER BY Tid", {store.get()});
  ASSERT_EQ(result.rows.size(), 3u);
  // The paper's finalize: 2996.9 for scaling 1, divided by 5 and 7.
  EXPECT_NEAR(std::get<double>(result.rows[0][1]), 2996.9 / 5.0, 0.05);
  EXPECT_NEAR(std::get<double>(result.rows[1][1]), 2996.9, 0.05);
  EXPECT_NEAR(std::get<double>(result.rows[2][1]), 2996.9 / 7.0, 0.05);
}

}  // namespace
}  // namespace query
}  // namespace modelardb
