// Cross-module edge cases: similarity search across gap-separated runs,
// multi-way dynamic splits, and LCA corner cases.

#include <gtest/gtest.h>

#include "core/group_coordinator.h"
#include "core/segment_generator.h"
#include "query/similarity.h"
#include "util/random.h"

namespace modelardb {
namespace {

TEST(SimilarityGapTest, MatchesNeverSpanGaps) {
  // One series with a gap in the middle; the pattern equals the values
  // right around the gap — a match spanning it would be wrong.
  TimeSeriesCatalog catalog(std::vector<Dimension>{});
  TimeSeriesMeta meta;
  meta.tid = 1;
  meta.si = 100;
  meta.source = "s";
  ASSERT_TRUE(catalog.AddSeries(meta).ok());
  catalog.GetMutable(1)->gid = 1;
  std::vector<TimeSeriesGroup> groups = {{1, {1}, 100}};
  ModelRegistry registry = ModelRegistry::Default();
  auto store = *SegmentStore::Open(SegmentStoreOptions{});

  SegmentGeneratorConfig config;
  config.gid = 1;
  config.si = 100;
  config.num_series = 1;
  config.registry = &registry;
  SegmentGenerator generator(config, {1});
  std::vector<Segment> segments;
  auto value_at = [](int i) { return static_cast<Value>(i % 37); };
  for (int i = 0; i < 1000; ++i) {
    GroupRow row;
    row.timestamp = i * 100;
    row.values = {value_at(i)};
    row.present = {!(i >= 500 && i < 520)};  // A 20-instant gap.
    ASSERT_TRUE(generator.Ingest(row, &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  ASSERT_TRUE(store->PutBatch(segments).ok());

  query::QueryEngine engine(&catalog, groups, &registry);
  query::SimilaritySearch search(&engine, &registry, &catalog);

  // A pattern taken from rows 495..524 of the *signal* does not exist in
  // the stored data (the gap removed its middle); the best match must be
  // imperfect and must start where a full window fits inside one run.
  std::vector<Value> pattern;
  for (int i = 495; i < 525; ++i) pattern.push_back(value_at(i));
  auto matches = *search.TopK({store.get()}, 1, pattern, 1);
  ASSERT_EQ(matches.size(), 1u);
  // value_at is periodic with period 37, so an exact copy of the pattern
  // exists elsewhere (495-37k); the search must find one entirely inside
  // a run rather than stitching across the gap.
  EXPECT_NEAR(matches[0].distance, 0.0, 1e-4);
  int64_t start_row = matches[0].start_time / 100;
  bool inside_first_run = start_row + 30 <= 500;
  bool inside_second_run = start_row >= 520 && start_row + 30 <= 1000;
  EXPECT_TRUE(inside_first_run || inside_second_run) << start_row;
  EXPECT_EQ(start_row % 37, 495 % 37);
}

TEST(CoordinatorMultiWaySplitTest, ThreeClustersSeparateAndRejoin) {
  ModelRegistry registry = ModelRegistry::Default();
  GroupCoordinatorConfig config;
  config.generator.gid = 1;
  config.generator.si = 100;
  config.generator.num_series = 6;
  config.generator.error_bound = ErrorBound::Relative(5.0);
  config.generator.registry = &registry;
  GroupCoordinator coordinator(config, {1, 2, 3, 4, 5, 6});
  Random rng(9);
  std::vector<Segment> segments;
  auto feed = [&](int from, int to, bool diverged) {
    for (int i = from; i < to; ++i) {
      GroupRow row;
      row.timestamp = static_cast<Timestamp>(i) * 100;
      for (int c = 0; c < 6; ++c) {
        double base = 100.0;
        if (diverged) base = 100.0 + 80.0 * (c / 2);  // 3 value clusters.
        row.values.push_back(
            static_cast<Value>(base + rng.Uniform(-0.5, 0.5)));
        row.present.push_back(true);
      }
      ASSERT_TRUE(coordinator.Ingest(row, &segments).ok());
    }
  };
  feed(0, 2000, false);
  feed(2000, 12000, true);
  EXPECT_GE(coordinator.coordinator_stats().splits, 1);
  EXPECT_GE(coordinator.NumSubgroups(), 3);
  feed(12000, 40000, false);
  EXPECT_GE(coordinator.coordinator_stats().joins, 1);
  EXPECT_EQ(coordinator.NumSubgroups(), 1);
  // Full coverage regardless of the split history.
  ASSERT_TRUE(coordinator.Flush(&segments).ok());
  int64_t covered = 0;
  for (const Segment& s : segments) covered += s.Length() * s.RepresentedSeries(6);
  EXPECT_EQ(covered, 6 * 40000);
}

TEST(LcaEdgeTest, EmptyAndSingleton) {
  TimeSeriesCatalog catalog({Dimension("Location", {"Country", "Park"})});
  TimeSeriesMeta meta{1, 1000, 1.0, 0, "s", {{"DK", "Aalborg"}}};
  ASSERT_TRUE(catalog.AddSeries(meta).ok());
  EXPECT_EQ(catalog.LcaLevel({}, 0), 0);
  EXPECT_EQ(catalog.LcaLevel({1}, 0), 2);
}

}  // namespace
}  // namespace modelardb
