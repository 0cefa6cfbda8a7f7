#include "workload/dataset.h"

#include <gtest/gtest.h>

#include <cmath>

#include "bench/baselines/baseline_query.h"
#include "bench/baselines/row_store.h"
#include "partition/partitioner.h"
#include "workload/queries.h"

namespace modelardb {
namespace workload {
namespace {

TEST(DatasetTest, EpShapeMatchesSpec) {
  SyntheticDataset ds = SyntheticDataset::Ep(4, 1000);
  EXPECT_EQ(ds.num_series(), 24);  // 6 series per entity.
  EXPECT_EQ(ds.si(), 60000);       // 60 s.
  EXPECT_EQ(ds.catalog()->dimensions().size(), 2u);
  EXPECT_EQ(ds.catalog()->dimensions()[0].name(), "Production");
  EXPECT_EQ(ds.catalog()->dimensions()[0].height(), 2);
  EXPECT_EQ(ds.catalog()->dimensions()[1].height(), 2);
}

TEST(DatasetTest, EhShapeMatchesSpec) {
  SyntheticDataset ds = SyntheticDataset::Eh(2, 3, 1000);
  EXPECT_EQ(ds.num_series(), 24);  // 2 parks x 3 entities x 4 series.
  EXPECT_EQ(ds.si(), 100);         // 100 ms.
  EXPECT_EQ(ds.catalog()->dimensions()[0].height(), 3);  // Location.
}

TEST(DatasetTest, ValuesAreDeterministic) {
  SyntheticDataset a = SyntheticDataset::Ep(2, 100, /*seed=*/7);
  SyntheticDataset b = SyntheticDataset::Ep(2, 100, /*seed=*/7);
  SyntheticDataset c = SyntheticDataset::Ep(2, 100, /*seed=*/8);
  bool any_difference = false;
  for (Tid tid = 1; tid <= a.num_series(); ++tid) {
    for (int64_t r = 0; r < 100; ++r) {
      EXPECT_EQ(a.RawValue(tid, r), b.RawValue(tid, r));
      if (a.RawValue(tid, r) != c.RawValue(tid, r)) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);  // Different seeds differ somewhere.
}

TEST(DatasetTest, EpClustersAreStronglyCorrelated) {
  SyntheticDataset ds = SyntheticDataset::Ep(2, 2000);
  // Tids 1 and 3 are ActivePower and PowerSetpoint of entity 0: same
  // cluster, gain 1 -> nearly identical values.
  double max_rel_diff = 0;
  for (int64_t r = 0; r < 2000; ++r) {
    double a = ds.RawValue(1, r);
    double b = ds.RawValue(3, r);
    max_rel_diff = std::max(max_rel_diff,
                            std::abs(a - b) / std::max(1.0, std::abs(a)));
  }
  EXPECT_LT(max_rel_diff, 0.05);
}

TEST(DatasetTest, EpScaledSeriesAlignsAfterScaling) {
  SyntheticDataset ds = SyntheticDataset::Ep(1, 500);
  // Tid 2 is ReactivePower with gain 0.25 and catalog scaling 4.
  EXPECT_DOUBLE_EQ(ds.catalog()->Get(2).scaling, 4.0);
  for (int64_t r = 0; r < 500; ++r) {
    double scaled = ds.RawValue(2, r) * ds.catalog()->Get(2).scaling;
    double reference = ds.RawValue(1, r);
    EXPECT_NEAR(scaled, reference, std::abs(reference) * 0.05 + 0.5);
  }
}

TEST(DatasetTest, EhSeriesAreWeaklyCorrelated) {
  SyntheticDataset ds = SyntheticDataset::Eh(1, 2, 2000);
  // Tids 1 and 5: same park, same concrete (ActivePower) -> same cluster,
  // but only 30% shared signal. Their difference must be substantial.
  double sum_abs_diff = 0;
  int64_t active = 0;
  for (int64_t r = 0; r < 5000; ++r) {
    double a = ds.RawValue(1, r);
    double b = ds.RawValue(5, r);
    if (a == 0.0f && b == 0.0f) continue;  // Co-idle stretch.
    ++active;
    sum_abs_diff += std::abs(a - b);
  }
  ASSERT_GT(active, 0);
  EXPECT_GT(sum_abs_diff / active, 1.0);
}

TEST(DatasetTest, GapsComeInBlocks) {
  SyntheticDataset ds = SyntheticDataset::Ep(4, 10000);
  int64_t transitions = 0;
  int64_t gaps = 0;
  for (Tid tid = 1; tid <= ds.num_series(); ++tid) {
    for (int64_t r = 1; r < 10000; ++r) {
      if (!ds.Present(tid, r)) ++gaps;
      if (ds.Present(tid, r) != ds.Present(tid, r - 1)) ++transitions;
    }
  }
  EXPECT_GT(gaps, 0);
  // Blocks of 200: transitions are rare relative to gap rows.
  EXPECT_LT(transitions * 50, gaps);
}

TEST(DatasetTest, CountDataPointsMatchesIteration) {
  SyntheticDataset ds = SyntheticDataset::Ep(2, 3000);
  int64_t via_scan = 0;
  ASSERT_TRUE(ds.ForEachDataPoint([&](const DataPoint&) {
                  ++via_scan;
                  return Status::OK();
                }).ok());
  EXPECT_EQ(via_scan, ds.CountDataPoints());
}

TEST(DatasetTest, RowMajorAndSeriesMajorCoverTheSamePoints) {
  SyntheticDataset ds = SyntheticDataset::Ep(1, 500);
  int64_t series_major = 0, row_major = 0;
  ASSERT_TRUE(ds.ForEachDataPoint([&](const DataPoint&) {
                  ++series_major;
                  return Status::OK();
                }).ok());
  ASSERT_TRUE(ds.ForEachDataPoint([&](const DataPoint&) {
                  ++row_major;
                  return Status::OK();
                }, /*row_major=*/true).ok());
  EXPECT_EQ(series_major, row_major);
}

TEST(DatasetTest, EpPartitioningGroupsProductionPerEntity) {
  SyntheticDataset ds = SyntheticDataset::Ep(3, 100);
  auto groups = *Partitioner::Partition(ds.catalog(), ds.BestHints());
  // Per entity: one group of 4 ProductionMWh series + 2 singletons.
  int grouped = 0, singleton = 0;
  for (const auto& g : groups) {
    if (g.tids.size() == 4) ++grouped;
    if (g.tids.size() == 1) ++singleton;
  }
  EXPECT_EQ(grouped, 3);
  EXPECT_EQ(singleton, 6);
}

TEST(DatasetTest, EhLowestDistanceGroupsParkAndConcrete) {
  SyntheticDataset ds = SyntheticDataset::Eh(2, 3, 100);
  auto groups = *Partitioner::Partition(ds.catalog(), ds.BestHints());
  // Same park + same concrete: 2 parks x 4 concretes = 8 groups of 3.
  EXPECT_EQ(groups.size(), 8u);
  for (const auto& g : groups) EXPECT_EQ(g.tids.size(), 3u);
}

TEST(QueriesTest, SAggShape) {
  SyntheticDataset ds = SyntheticDataset::Ep(2, 100);
  auto queries = MakeSAgg(ds, QueryTarget::kSegmentView, 10, 1);
  ASSERT_EQ(queries.size(), 10u);
  int group_by = 0;
  for (const auto& q : queries) {
    if (q.find("GROUP BY Tid") != std::string::npos) ++group_by;
    EXPECT_NE(q.find("FROM Segment"), std::string::npos);
  }
  EXPECT_EQ(group_by, 5);
  auto dpv = MakeSAgg(ds, QueryTarget::kDataPointView, 4, 1);
  EXPECT_NE(dpv[0].find("FROM DataPoint"), std::string::npos);
}

TEST(QueriesTest, MAggUsesDimensions) {
  SyntheticDataset ep = SyntheticDataset::Ep(2, 100);
  auto one = MakeMAgg(ep, /*drill_down=*/false);
  ASSERT_FALSE(one.empty());
  EXPECT_NE(one[0].find("Category = 'ProductionMWh'"), std::string::npos);
  EXPECT_NE(one[0].find("CUBE_SUM_MONTH"), std::string::npos);
  auto two = MakeMAgg(ep, /*drill_down=*/true);
  EXPECT_NE(two[0].find("GROUP BY Concrete"), std::string::npos);
  SyntheticDataset eh = SyntheticDataset::Eh(2, 2, 100);
  auto eh_one = MakeMAgg(eh, false);
  EXPECT_NE(eh_one[0].find("GROUP BY Park"), std::string::npos);
}

TEST(QueriesTest, PRShape) {
  SyntheticDataset ds = SyntheticDataset::Ep(2, 100);
  auto queries = MakePR(ds, 9, 3);
  ASSERT_EQ(queries.size(), 9u);
  for (const auto& q : queries) {
    EXPECT_NE(q.find("FROM DataPoint"), std::string::npos);
  }
}

TEST(BaselineQueryTest, AggregatesMatchDirectIteration) {
  SyntheticDataset ds = SyntheticDataset::Ep(1, 1000);
  auto store = *RowStore::Open(RowStoreOptions{});
  ASSERT_TRUE(
      ds.ForEachDataPoint([&](const DataPoint& p) { return store->Append(p); })
          .ok());
  ASSERT_TRUE(store->FinishIngest().ok());

  DataPointFilter filter;
  filter.tids = {1};
  auto agg = *AggregateScan(*store, filter);
  double expected_sum = 0;
  int64_t expected_count = 0;
  for (int64_t r = 0; r < 1000; ++r) {
    if (!ds.Present(1, r)) continue;
    expected_sum += ds.RawValue(1, r);
    ++expected_count;
  }
  EXPECT_EQ(agg.count, expected_count);
  EXPECT_NEAR(agg.sum, expected_sum, std::abs(expected_sum) * 1e-5);

  auto by_tid = *AggregateScanByTid(*store, DataPointFilter{});
  EXPECT_EQ(by_tid.size(), 6u);
  EXPECT_EQ(by_tid[1].count, expected_count);

  auto by_member = *AggregateScanByMemberAndMonth(
      *store, *ds.catalog(), /*dim=*/1, /*level=*/1, DataPointFilter{});
  int64_t member_total = 0;
  for (const auto& [key, a] : by_member) member_total += a.count;
  int64_t all_points = ds.CountDataPoints();
  EXPECT_EQ(member_total, all_points);

  auto points = *CollectPoints(*store, filter);
  EXPECT_EQ(static_cast<int64_t>(points.size()), expected_count);
}

}  // namespace
}  // namespace workload
}  // namespace modelardb
