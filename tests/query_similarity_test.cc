#include "query/similarity.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster.h"
#include "core/segment_generator.h"
#include "query/parser.h"
#include "util/random.h"

namespace modelardb {
namespace query {
namespace {

constexpr SamplingInterval kSi = 100;

// A fixture with one series whose values embed a distinctive spike pattern
// at a known offset inside otherwise smooth data.
class SimilarityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<TimeSeriesCatalog>(std::vector<Dimension>{});
    for (Tid tid = 1; tid <= 2; ++tid) {
      TimeSeriesMeta meta;
      meta.tid = tid;
      meta.si = kSi;
      meta.scaling = tid == 2 ? 2.0 : 1.0;
      meta.source = "s" + std::to_string(tid);
      ASSERT_TRUE(catalog_->AddSeries(meta).ok());
      catalog_->GetMutable(tid)->gid = tid;
    }
    groups_ = {{1, {1}, kSi}, {2, {2}, kSi}};
    registry_ = ModelRegistry::Default();
    store_ = std::move(*SegmentStore::Open(SegmentStoreOptions{}));

    for (Tid tid = 1; tid <= 2; ++tid) {
      SegmentGeneratorConfig config;
      config.gid = tid;
      config.si = kSi;
      config.num_series = 1;
      config.registry = &registry_;
      SegmentGenerator generator(config, {tid});
      std::vector<Segment> segments;
      double scale = catalog_->Get(tid).scaling;
      for (int i = 0; i < 2000; ++i) {
        raw_[tid - 1].push_back(RawValue(tid, i));
        Value stored = static_cast<Value>(raw_[tid - 1].back() * scale);
        ASSERT_TRUE(
            generator.Ingest(GroupRow(i * kSi, {stored}), &segments).ok());
      }
      ASSERT_TRUE(generator.Flush(&segments).ok());
      ASSERT_TRUE(store_->PutBatch(segments).ok());
    }
    partitions_ = {store_.get()};
    engine_ = std::make_unique<QueryEngine>(catalog_.get(), groups_,
                                            &registry_);
    search_ = std::make_unique<SimilaritySearch>(engine_.get(), &registry_,
                                                 catalog_.get());
  }

  // Smooth base with an exact copy of kPattern at row 700 of series 1.
  static Value RawValue(Tid tid, int i) {
    if (tid == 1 && i >= 700 && i < 700 + 8) {
      return kPattern[i - 700];
    }
    return static_cast<Value>(20.0 + 2.0 * std::sin(i * 0.01) + tid);
  }

  static constexpr Value kPattern[8] = {100, 120, 90, 130, 80, 140, 70, 150};

  std::unique_ptr<TimeSeriesCatalog> catalog_;
  std::vector<TimeSeriesGroup> groups_;
  ModelRegistry registry_;
  std::unique_ptr<SegmentStore> store_;
  Partitions partitions_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<SimilaritySearch> search_;
  std::vector<Value> raw_[2];
};

TEST_F(SimilarityTest, FindsEmbeddedPatternExactly) {
  std::vector<Value> pattern(std::begin(kPattern), std::end(kPattern));
  auto matches = *search_->TopK(partitions_, 1, pattern, 1);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].start_time, 700 * kSi);
  EXPECT_NEAR(matches[0].distance, 0.0, 1e-4);
}

TEST_F(SimilarityTest, StatisticsPruneFarWindows) {
  // The spike values (70-150) are far outside the smooth base (~17-23), so
  // almost every window is pruned without decoding.
  std::vector<Value> pattern(std::begin(kPattern), std::end(kPattern));
  SimilarityStats stats;
  auto matches = *search_->TopK(partitions_, 1, pattern, 1, &stats);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_GT(stats.windows_pruned, 0);
  EXPECT_GT(stats.windows_considered, stats.windows_pruned);
}

TEST_F(SimilarityTest, MatchesBruteForce) {
  // Property: TopK with pruning equals a brute-force scan on raw values.
  Random rng(3);
  std::vector<Value> pattern;
  for (int j = 0; j < 12; ++j) {
    pattern.push_back(static_cast<Value>(20 + rng.Uniform(-3, 3)));
  }
  const int k = 5;
  auto matches = *search_->TopK(partitions_, 1, pattern, k);

  std::vector<std::pair<double, int>> brute;
  for (size_t t = 0; t + pattern.size() <= raw_[0].size(); ++t) {
    double d2 = 0;
    for (size_t j = 0; j < pattern.size(); ++j) {
      double diff = raw_[0][t + j] - pattern[j];
      d2 += diff * diff;
    }
    brute.emplace_back(std::sqrt(d2), static_cast<int>(t));
  }
  std::sort(brute.begin(), brute.end());
  ASSERT_EQ(matches.size(), static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(matches[i].distance, brute[i].first, 1e-3) << i;
  }
}

TEST_F(SimilarityTest, ScalingIsDescaledBeforeMatching) {
  // Series 2 is stored with scaling 2 but searched in raw units.
  std::vector<Value> pattern;
  for (int i = 400; i < 410; ++i) pattern.push_back(RawValue(2, i));
  auto matches = *search_->TopK(partitions_, 2, pattern, 1);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_NEAR(matches[0].distance, 0.0, 1e-3);
  EXPECT_EQ(matches[0].start_time, 400 * kSi);
}

TEST_F(SimilarityTest, TopKAllSearchesEverySeries) {
  std::vector<Value> pattern(std::begin(kPattern), std::end(kPattern));
  auto matches = *search_->TopKAll(partitions_, pattern, 3);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].tid, 1);  // The spike lives in series 1.
  EXPECT_NEAR(matches[0].distance, 0.0, 1e-4);
}

TEST_F(SimilarityTest, InvalidArguments) {
  EXPECT_FALSE(search_->TopK(partitions_, 1, {}, 1).ok());
  EXPECT_FALSE(search_->TopK(partitions_, 1, {1.0f}, 0).ok());
  EXPECT_FALSE(search_->TopK(partitions_, 99, {1.0f}, 1).ok());
}

TEST_F(SimilarityTest, UnknownTidIsInvalidArgument) {
  for (Tid tid : {0, catalog_->NumSeries() + 1}) {
    EXPECT_EQ(search_->TopK(partitions_, tid, {1.0f}, 1).status().code(),
              StatusCode::kInvalidArgument)
        << tid;
  }
}

TEST_F(SimilarityTest, TwoWorkerClusterMatchesOneWorker) {
  // The same rows ingested into a 1-worker and a 2-worker cluster: the
  // search runs over the cluster's stores and finds the same windows.
  std::vector<std::unique_ptr<cluster::ClusterEngine>> clusters;
  for (int workers : {1, 2}) {
    cluster::ClusterConfig config;
    config.num_workers = workers;
    config.parallelism = 1;
    auto engine = cluster::ClusterEngine::Create(catalog_.get(), groups_,
                                                 &registry_, config);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (Tid tid = 1; tid <= 2; ++tid) {
      double scale = catalog_->Get(tid).scaling;
      for (size_t i = 0; i < raw_[tid - 1].size(); ++i) {
        Value stored = static_cast<Value>(raw_[tid - 1][i] * scale);
        ASSERT_TRUE((*engine)
                        ->Ingest(tid, GroupRow(static_cast<Timestamp>(i) * kSi,
                                               {stored}))
                        .ok());
      }
    }
    ASSERT_TRUE((*engine)->FlushAll().ok());
    clusters.push_back(std::move(*engine));
  }
  ASSERT_NE(clusters[1]->WorkerOf(1), clusters[1]->WorkerOf(2));

  std::vector<Value> spike(std::begin(kPattern), std::end(kPattern));
  std::vector<Value> smooth;
  for (int i = 400; i < 410; ++i) smooth.push_back(RawValue(2, i));
  auto one = search_->TopKAll(clusters[0]->partitions(), spike, 3);
  auto two = search_->TopKAll(clusters[1]->partitions(), spike, 3);
  ASSERT_TRUE(one.ok() && two.ok());
  ASSERT_EQ(one->size(), 3u);
  EXPECT_EQ(*one, *two);
  one = search_->TopK(clusters[0]->partitions(), 2, smooth, 2);
  two = search_->TopK(clusters[1]->partitions(), 2, smooth, 2);
  ASSERT_TRUE(one.ok() && two.ok());
  ASSERT_EQ(one->size(), 2u);
  EXPECT_EQ(*one, *two);
}

TEST_F(SimilarityTest, PatternLongerThanDataYieldsNothing) {
  std::vector<Value> pattern(5000, 1.0f);
  auto matches = *search_->TopK(partitions_, 1, pattern, 3);
  EXPECT_TRUE(matches.empty());
}

}  // namespace
}  // namespace query
}  // namespace modelardb
