#include "bench/baselines/polynomial.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/models/swing.h"
#include "core/segment_generator.h"
#include "util/random.h"

namespace modelardb {
namespace {

ModelConfig Config(int num_series, double pct, int limit = 50) {
  ModelConfig config;
  config.num_series = num_series;
  config.error_bound = ErrorBound::Relative(pct);
  config.length_limit = limit;
  return config;
}

TEST(PolynomialTest, FitsExactQuadratic) {
  ModelConfig config = Config(1, 1.0);
  PolynomialModel model(config);
  for (int i = 0; i < 50; ++i) {
    Value v = static_cast<Value>(100.0 + 3.0 * i - 0.05 * i * i);
    ASSERT_TRUE(model.Append(&v)) << i;
  }
  auto decoder = *PolynomialModel::Decode(model.SerializeParameters(50), 1,
                                          50);
  for (int i = 0; i < 50; ++i) {
    Value expected = static_cast<Value>(100.0 + 3.0 * i - 0.05 * i * i);
    EXPECT_TRUE(config.error_bound.Within(decoder->ValueAt(i, 0), expected))
        << i;
  }
}

TEST(PolynomialTest, FitsWhereSwingFails) {
  // A parabola over 30 rows: within 2%, Swing (linear) breaks early while
  // the quadratic holds the whole window.
  ModelConfig config = Config(1, 2.0, 30);
  PolynomialModel poly(config);
  SwingModel swing(config);
  int poly_len = 0, swing_len = 0;
  for (int i = 0; i < 30; ++i) {
    Value v = static_cast<Value>(200.0 - 0.8 * (i - 15) * (i - 15));
    if (poly.Append(&v)) ++poly_len;
    if (swing.Append(&v)) ++swing_len;
  }
  EXPECT_EQ(poly_len, 30);
  EXPECT_LT(swing_len, 30);
}

TEST(PolynomialTest, GroupRowsUseIntervalIntersection) {
  ModelConfig config = Config(3, 5.0);
  PolynomialModel model(config);
  for (int i = 0; i < 20; ++i) {
    Value base = static_cast<Value>(100.0 + i + 0.1 * i * i);
    Value row[3] = {base, base + 1.0f, base - 1.0f};
    ASSERT_TRUE(model.Append(row)) << i;
  }
  auto decoder =
      *PolynomialModel::Decode(model.SerializeParameters(20), 3, 20);
  ErrorBound bound = ErrorBound::Relative(5.0);
  for (int i = 0; i < 20; ++i) {
    Value base = static_cast<Value>(100.0 + i + 0.1 * i * i);
    EXPECT_TRUE(bound.Within(decoder->ValueAt(i, 0), base));
    EXPECT_TRUE(bound.Within(decoder->ValueAt(i, 1), base + 1.0f));
    EXPECT_TRUE(bound.Within(decoder->ValueAt(i, 2), base - 1.0f));
  }
}

TEST(PolynomialTest, RejectsNonQuadraticJump) {
  ModelConfig config = Config(1, 1.0);
  PolynomialModel model(config);
  for (int i = 0; i < 10; ++i) {
    Value v = static_cast<Value>(100.0 + i);
    ASSERT_TRUE(model.Append(&v));
  }
  Value jump = 500.0f;
  EXPECT_FALSE(model.Append(&jump));
  EXPECT_EQ(model.length(), 10);  // Rolled back cleanly.
  // And it keeps accepting compatible rows afterwards.
  Value next = 110.0f;
  EXPECT_TRUE(model.Append(&next));
}

TEST(PolynomialTest, SumAggregateMatchesPointwise) {
  PolynomialDecoder decoder(10.0, 0.5, -0.01, 1, 100);
  AggregateSummary agg = decoder.AggregateRange(5, 80, 0);
  double sum = 0, mn = 1e300, mx = -1e300;
  for (int i = 5; i <= 80; ++i) {
    double v = decoder.ValueAt(i, 0);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_NEAR(agg.sum, sum, std::abs(sum) * 1e-6);
  EXPECT_NEAR(agg.min, mn, 1e-4);
  EXPECT_NEAR(agg.max, mx, 1e-4);
  EXPECT_EQ(agg.count, 76);
  EXPECT_TRUE(decoder.HasConstantTimeAggregates());
}

TEST(PolynomialTest, VertexInsideRangeIsExtremum) {
  // Downward parabola peaking at row 50.
  PolynomialDecoder decoder(0.0, 10.0, -0.1, 1, 101);
  AggregateSummary agg = decoder.AggregateRange(0, 100, 0);
  EXPECT_NEAR(agg.max, decoder.ValueAt(50, 0), 1e-4);
  EXPECT_NEAR(agg.min, decoder.ValueAt(0, 0), 1e-4);
}

TEST(PolynomialTest, ExtendedRegistryUsesItInTheGenerator) {
  ModelRegistry registry = ExtendedRegistry();
  EXPECT_EQ(registry.fitting_sequence(),
            (std::vector<Mid>{kMidPmcMean, kMidSwing, kMidGorilla,
                              kMidPolynomial}));
  SegmentGeneratorConfig config;
  config.gid = 1;
  config.si = 100;
  config.num_series = 1;
  config.error_bound = ErrorBound::Relative(2.0);
  config.registry = &registry;
  SegmentGenerator generator(config, {1});
  std::vector<Segment> segments;
  // A slow sine: locally quadratic, not linear over 50-row windows.
  for (int i = 0; i < 500; ++i) {
    Value v = static_cast<Value>(100.0 + 50.0 * std::sin(i * 0.05));
    ASSERT_TRUE(generator.Ingest(GroupRow(i * 100, {v}), &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  const IngestStats& stats = generator.stats();
  auto it = stats.segments_per_model.find(kMidPolynomial);
  ASSERT_NE(it, stats.segments_per_model.end())
      << "polynomial never chosen";
  EXPECT_GT(it->second, 0);
  // All reconstructions stay within bound (generator verifies on emit, so
  // just decode and spot-check).
  ErrorBound bound = ErrorBound::Relative(2.0);
  for (const Segment& segment : segments) {
    auto decoder = *registry.CreateDecoder(segment.mid, segment.parameters,
                                           1,
                                           static_cast<int>(segment.Length()));
    for (int r = 0; r < segment.Length(); ++r) {
      int64_t i = (segment.start_time + r * 100) / 100;
      Value expected =
          static_cast<Value>(100.0 + 50.0 * std::sin(i * 0.05));
      EXPECT_TRUE(bound.Within(decoder->ValueAt(r, 0), expected));
    }
  }
}

TEST(PolynomialTest, DecodeRejectsShortParameters) {
  std::vector<uint8_t> params(16, 0);
  EXPECT_FALSE(PolynomialModel::Decode(params, 1, 10).ok());
}

}  // namespace
}  // namespace modelardb
