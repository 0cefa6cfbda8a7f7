// Absolute error bounds: Definition 4's error function is pluggable, and
// ModelarDB++ supports |approx - real| <= d in addition to the paper's
// relative percentage bounds. These tests cover the absolute path through
// the bound itself, every bundled lossy model and the segment generator.

#include <gtest/gtest.h>

#include <map>

#include "bench/baselines/polynomial.h"
#include "core/models/pmc_mean.h"
#include "core/models/swing.h"
#include "core/segment_generator.h"
#include "util/random.h"

namespace modelardb {
namespace {

TEST(AbsoluteBoundTest, WithinSemantics) {
  ErrorBound bound = ErrorBound::Absolute(0.5);
  EXPECT_TRUE(bound.is_absolute());
  EXPECT_TRUE(bound.Within(10.5, 10.0f));
  EXPECT_TRUE(bound.Within(9.5, 10.0f));
  EXPECT_FALSE(bound.Within(10.51, 10.0f));
  // Near zero an absolute bound still allows deviation (the relative
  // bound's weakness on EH-like data).
  EXPECT_TRUE(bound.Within(0.4, 0.0f));
  EXPECT_DOUBLE_EQ(bound.LowerAllowed(10.0f), 9.5);
  EXPECT_DOUBLE_EQ(bound.UpperAllowed(10.0f), 10.5);
}

TEST(AbsoluteBoundTest, PmcAcceptsWithinWindow) {
  ModelConfig config;
  config.num_series = 1;
  config.error_bound = ErrorBound::Absolute(1.0);
  PmcMeanModel model(config);
  // Values within a window of total width 2.0 fit one constant.
  for (Value v : {10.0f, 10.8f, 9.2f, 10.5f}) {
    EXPECT_TRUE(model.Append(&v)) << v;
  }
  Value outside = 12.1f;  // Needs a constant in [11.1, ...] vs [.., 10.2].
  EXPECT_FALSE(model.Append(&outside));
}

TEST(AbsoluteBoundTest, SwingTracksLineWithSlack) {
  ModelConfig config;
  config.num_series = 1;
  config.error_bound = ErrorBound::Absolute(0.5);
  SwingModel model(config);
  Random rng(1);
  for (int i = 0; i < 50; ++i) {
    Value v = static_cast<Value>(2.0 * i + rng.Uniform(-0.4, 0.4));
    ASSERT_TRUE(model.Append(&v)) << i;
  }
}

TEST(AbsoluteBoundTest, GeneratorReconstructsWithinAbsoluteBound) {
  ModelRegistry registry = ExtendedRegistry();
  SegmentGeneratorConfig config;
  config.gid = 1;
  config.si = 100;
  config.num_series = 2;
  config.error_bound = ErrorBound::Absolute(0.25);
  config.registry = &registry;
  SegmentGenerator generator(config, {1, 2});
  Random rng(7);
  std::map<int64_t, std::pair<Value, Value>> original;
  std::vector<Segment> segments;
  // Values near zero: a relative bound would be useless here, the
  // absolute bound is not.
  double base = 0.0;
  for (int i = 0; i < 2000; ++i) {
    base += rng.Uniform(-0.05, 0.05);
    Value a = static_cast<Value>(base);
    Value b = static_cast<Value>(base + rng.Uniform(-0.1, 0.1));
    original[i] = {a, b};
    ASSERT_TRUE(generator.Ingest(GroupRow(i * 100, {a, b}), &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  ErrorBound bound = ErrorBound::Absolute(0.25);
  int64_t covered = 0;
  for (const Segment& segment : segments) {
    auto decoder = *registry.CreateDecoder(segment.mid, segment.parameters,
                                           2,
                                           static_cast<int>(segment.Length()));
    for (int r = 0; r < segment.Length(); ++r) {
      int64_t i = (segment.start_time + r * 100) / 100;
      EXPECT_TRUE(bound.Within(decoder->ValueAt(r, 0), original[i].first));
      EXPECT_TRUE(bound.Within(decoder->ValueAt(r, 1), original[i].second));
      ++covered;
    }
  }
  EXPECT_EQ(covered, 2000);
  // The lossy models must actually engage (the data is smooth enough).
  const IngestStats& stats = generator.stats();
  int64_t lossy = 0;
  for (const auto& [mid, n] : stats.values_per_model) {
    if (mid != kMidGorilla && mid != kMidRawFallback) lossy += n;
  }
  EXPECT_GT(lossy, 0);
}

TEST(AbsoluteBoundTest, PolynomialHonorsAbsoluteBound) {
  ModelConfig config;
  config.num_series = 1;
  config.error_bound = ErrorBound::Absolute(0.2);
  PolynomialModel model(config);
  for (int i = 0; i < 30; ++i) {
    Value v = static_cast<Value>(0.01 * i * i - 0.1 * i);
    ASSERT_TRUE(model.Append(&v)) << i;
  }
  auto decoder =
      *PolynomialModel::Decode(model.SerializeParameters(30), 1, 30);
  for (int i = 0; i < 30; ++i) {
    Value expected = static_cast<Value>(0.01 * i * i - 0.1 * i);
    EXPECT_TRUE(config.error_bound.Within(decoder->ValueAt(i, 0), expected));
  }
}

}  // namespace
}  // namespace modelardb
