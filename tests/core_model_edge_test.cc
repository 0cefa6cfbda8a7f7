// Edge cases across the bundled models: Reset reuse, Gorilla's control-bit
// paths, float-precision corners of PMC/Swing, and generator behaviour
// with degenerate configurations.

#include <gtest/gtest.h>

#include <cmath>

#include "bench/baselines/polynomial.h"
#include "core/models/gorilla.h"
#include "core/models/pmc_mean.h"
#include "core/models/swing.h"
#include "core/segment_generator.h"
#include "util/random.h"

namespace modelardb {
namespace {

TEST(ModelResetTest, AllBundledModelsAreReusableAfterReset) {
  ModelConfig config;
  config.num_series = 2;
  config.error_bound = ErrorBound::Relative(1.0);
  ModelRegistry registry = ExtendedRegistry();
  for (Mid mid : registry.fitting_sequence()) {
    auto model = *registry.CreateModel(mid, config);
    Value row[2] = {10.0f, 10.05f};
    ASSERT_TRUE(model->Append(row)) << *registry.ModelName(mid);
    model->Reset();
    EXPECT_EQ(model->length(), 0) << *registry.ModelName(mid);
    Value other[2] = {-3.0f, -3.01f};
    EXPECT_TRUE(model->Append(other)) << *registry.ModelName(mid);
    EXPECT_EQ(model->length(), 1);
  }
}

TEST(GorillaControlBitsTest, ReusedWindowPath) {
  // Values whose XORs share the same leading/trailing window exercise the
  // '10' control path; a final wide change forces a '11' re-window.
  std::vector<Value> values = {100.0f, 100.5f, 100.25f, 100.75f,
                               100.125f, -5.0e30f, -5.1e30f};
  GorillaEncoder encoder;
  for (Value v : values) encoder.Append(v);
  std::vector<uint8_t> bytes = encoder.Finish();
  auto decoded = *GorillaDecodeStream(bytes, values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(FloatToBits(decoded[i]), FloatToBits(values[i])) << i;
  }
}

TEST(GorillaControlBitsTest, AlternatingEqualValues) {
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) values.push_back(i % 2 ? 1.0f : 1.0f);
  GorillaEncoder encoder;
  for (Value v : values) encoder.Append(v);
  // First value 32 bits + 99 zero bits = 131 bits -> 17 bytes.
  EXPECT_EQ(encoder.SizeBytes(), 17u);
}

TEST(PmcFloatEdgeTest, TightIntervalWithoutRepresentableFloat) {
  // An absolute bound so small around a non-representable midpoint that
  // the model must either find a representable float or reject.
  ModelConfig config;
  config.num_series = 2;
  config.error_bound = ErrorBound::Absolute(1e-12);
  PmcMeanModel model(config);
  Value row[2] = {1.0f, 1.0f};
  EXPECT_TRUE(model.Append(row));  // Identical values: representable.
  Value row2[2] = {std::nextafterf(1.0f, 2.0f), 1.0f};
  // The two adjacent floats are ~1.2e-7 apart, far beyond 2e-12: reject.
  EXPECT_FALSE(model.Append(row2));
}

TEST(SwingEdgeTest, VerticalishDataRejectedNotCrashed) {
  ModelConfig config;
  config.num_series = 1;
  config.error_bound = ErrorBound::Relative(0.1);
  SwingModel model(config);
  Value v0 = 1e30f;
  ASSERT_TRUE(model.Append(&v0));
  Value v1 = -1e30f;
  EXPECT_TRUE(model.Append(&v1));  // A line can swing this far...
  Value v2 = 1e30f;
  EXPECT_FALSE(model.Append(&v2));  // ...but not back up again.
}

TEST(SwingEdgeTest, SingleRowSegmentSerializes) {
  ModelConfig config;
  config.num_series = 1;
  config.error_bound = ErrorBound::Relative(0.0);
  SwingModel model(config);
  Value v = 42.0f;
  ASSERT_TRUE(model.Append(&v));
  auto decoder = *SwingModel::Decode(model.SerializeParameters(1), 1, 1);
  EXPECT_EQ(decoder->ValueAt(0, 0), 42.0f);
}

TEST(GeneratorEdgeTest, LengthLimitOneStillProgresses) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGeneratorConfig config;
  config.gid = 1;
  config.si = 100;
  config.num_series = 1;
  config.length_limit = 1;
  config.registry = &registry;
  SegmentGenerator generator(config, {1});
  std::vector<Segment> segments;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(generator
                    .Ingest(GroupRow(i * 100, {static_cast<Value>(i)}),
                            &segments)
                    .ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  int64_t covered = 0;
  for (const Segment& s : segments) covered += s.Length();
  EXPECT_EQ(covered, 10);
}

TEST(GeneratorEdgeTest, EmptyFittingSequenceFallsBackToRaw) {
  ModelRegistry registry;  // Decode-only: no fitting sequence.
  SegmentGeneratorConfig config;
  config.gid = 1;
  config.si = 100;
  config.num_series = 2;
  config.registry = &registry;
  SegmentGenerator generator(config, {1, 2});
  std::vector<Segment> segments;
  Random rng(1);
  for (int i = 0; i < 120; ++i) {
    Value a = static_cast<Value>(rng.NextDouble());
    Value b = static_cast<Value>(rng.NextDouble());
    ASSERT_TRUE(generator.Ingest(GroupRow(i * 100, {a, b}), &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  int64_t covered = 0;
  for (const Segment& s : segments) {
    EXPECT_EQ(s.mid, kMidRawFallback);
    covered += s.Length();
  }
  EXPECT_EQ(covered, 120);
}

TEST(GeneratorEdgeTest, SixtyFourSeriesGroup) {
  // The Gaps bitmask caps groups at 64 members; the largest size must work.
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGeneratorConfig config;
  config.gid = 1;
  config.si = 100;
  config.num_series = 64;
  config.error_bound = ErrorBound::Relative(5.0);
  config.registry = &registry;
  std::vector<Tid> tids(64);
  for (int i = 0; i < 64; ++i) tids[i] = i + 1;
  SegmentGenerator generator(config, tids);
  std::vector<Segment> segments;
  for (int i = 0; i < 100; ++i) {
    GroupRow row;
    row.timestamp = i * 100;
    for (int c = 0; c < 64; ++c) {
      row.values.push_back(static_cast<Value>(100.0 + 0.01 * c));
      row.present.push_back(!(c == 63 && i >= 50));  // Last one drops out.
    }
    ASSERT_TRUE(generator.Ingest(row, &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  int64_t covered = 0;
  for (const Segment& s : segments) covered += s.Length() * s.RepresentedSeries(64);
  EXPECT_EQ(covered, 64 * 50 + 63 * 50);
}

}  // namespace
}  // namespace modelardb
