#include "core/segment_generator.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bench/baselines/per_series.h"
#include "util/random.h"

namespace modelardb {
namespace {

constexpr SamplingInterval kSi = 100;

SegmentGeneratorConfig Config(const ModelRegistry* registry, int num_series,
                              double pct, int limit = 50) {
  SegmentGeneratorConfig config;
  config.gid = 1;
  config.si = kSi;
  config.num_series = num_series;
  config.error_bound = ErrorBound::Relative(pct);
  config.length_limit = limit;
  config.registry = registry;
  return config;
}

GroupRow Row(Timestamp ts, std::vector<Value> values) {
  return GroupRow(ts, std::move(values));
}

// Decodes all segments and checks every reconstructed value against the
// original data, also verifying complete, gap-free coverage per series.
void VerifyReconstruction(
    const ModelRegistry& registry, const std::vector<Segment>& segments,
    const std::vector<Tid>& tids, int group_size,
    const std::map<Tid, std::map<Timestamp, Value>>& original,
    const ErrorBound& bound) {
  std::map<Tid, std::map<Timestamp, Value>> reconstructed;
  for (const Segment& segment : segments) {
    int represented = segment.RepresentedSeries(group_size);
    ASSERT_GT(represented, 0);
    auto decoder_result = registry.CreateDecoder(
        segment.mid, segment.parameters, represented,
        static_cast<int>(segment.Length()));
    ASSERT_TRUE(decoder_result.ok()) << decoder_result.status();
    const SegmentDecoder& decoder = **decoder_result;
    int col = 0;
    for (int pos = 0; pos < group_size; ++pos) {
      if (segment.SeriesInGap(pos)) continue;
      for (int r = 0; r < segment.Length(); ++r) {
        Timestamp ts = segment.start_time + r * segment.si;
        Value v = decoder.ValueAt(r, col);
        auto [it, inserted] = reconstructed[tids[pos]].emplace(ts, v);
        ASSERT_TRUE(inserted) << "duplicate coverage of tid " << tids[pos]
                              << " at " << ts;
      }
      ++col;
    }
  }
  // Every original value must be covered exactly once and within bound.
  for (const auto& [tid, points] : original) {
    auto rec_it = reconstructed.find(tid);
    ASSERT_NE(rec_it, reconstructed.end()) << "tid " << tid << " missing";
    EXPECT_EQ(rec_it->second.size(), points.size()) << "tid " << tid;
    for (const auto& [ts, v] : points) {
      auto it = rec_it->second.find(ts);
      ASSERT_NE(it, rec_it->second.end())
          << "tid " << tid << " missing ts " << ts;
      EXPECT_TRUE(bound.Within(it->second, v))
          << "tid " << tid << " ts " << ts << " got " << it->second
          << " want " << v;
    }
  }
}

TEST(SegmentGeneratorTest, ConstantSeriesProducesPmcSegments) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 1, 0.0), {1});
  std::vector<Segment> segments;
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(generator.Ingest(Row(i * kSi, {42.0f}), &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  ASSERT_FALSE(segments.empty());
  int64_t covered = 0;
  for (const Segment& segment : segments) {
    EXPECT_EQ(segment.mid, kMidPmcMean);
    EXPECT_LE(segment.Length(), 50);
    covered += segment.Length();
  }
  EXPECT_EQ(covered, 120);
}

TEST(SegmentGeneratorTest, LinearSeriesPrefersSwing) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 1, 0.0), {1});
  std::vector<Segment> segments;
  for (int i = 0; i < 100; ++i) {
    Value v = static_cast<Value>(3 * i);
    ASSERT_TRUE(generator.Ingest(Row(i * kSi, {v}), &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  ASSERT_FALSE(segments.empty());
  for (const Segment& segment : segments) {
    EXPECT_EQ(segment.mid, kMidSwing) << "at " << segment.start_time;
  }
}

TEST(SegmentGeneratorTest, SegmentMetadataIsConsistent) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 2, 1.0), {1, 2});
  std::vector<Segment> segments;
  Random rng(2);
  Timestamp start = 1000000;
  for (int i = 0; i < 300; ++i) {
    Value v = static_cast<Value>(100 + rng.Uniform(-5, 5));
    ASSERT_TRUE(
        generator.Ingest(Row(start + i * kSi, {v, v + 0.5f}), &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  Timestamp expected_start = start;
  for (const Segment& segment : segments) {
    EXPECT_EQ(segment.gid, 1);
    EXPECT_EQ(segment.si, kSi);
    EXPECT_EQ(segment.start_time, expected_start);
    EXPECT_EQ((segment.end_time - segment.start_time) % kSi, 0);
    EXPECT_GE(segment.Length(), 1);
    expected_start = segment.end_time + kSi;  // Disconnected segments.
  }
  EXPECT_EQ(expected_start, start + 300 * kSi);
}

TEST(SegmentGeneratorTest, GapStartsNewSegmentWithMask) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 2, 0.0), {7, 9});
  std::vector<Segment> segments;
  // Rows 0-9 both series; rows 10-19 only series 0; rows 20-29 both again.
  for (int i = 0; i < 30; ++i) {
    GroupRow row;
    row.timestamp = i * kSi;
    row.values = {1.0f, 2.0f};
    row.present = {true, !(i >= 10 && i < 20)};
    ASSERT_TRUE(generator.Ingest(row, &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  // Three windows with distinct masks, in time order.
  ASSERT_GE(segments.size(), 3u);
  std::vector<uint64_t> masks;
  for (const Segment& s : segments) {
    if (masks.empty() || masks.back() != s.gap_mask) {
      masks.push_back(s.gap_mask);
    }
  }
  EXPECT_EQ(masks, (std::vector<uint64_t>{0, 2, 0}));
}

TEST(SegmentGeneratorTest, TimeHoleSplitsSegments) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 1, 0.0), {1});
  std::vector<Segment> segments;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(generator.Ingest(Row(i * kSi, {5.0f}), &segments).ok());
  }
  // Jump of 5 sampling intervals: a gap per Definition 5.
  for (int i = 15; i < 25; ++i) {
    ASSERT_TRUE(generator.Ingest(Row(i * kSi, {5.0f}), &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  // No segment may span the hole.
  for (const Segment& segment : segments) {
    bool spans = segment.start_time < 10 * kSi && segment.end_time >= 15 * kSi;
    EXPECT_FALSE(spans);
  }
}

TEST(SegmentGeneratorTest, OutOfOrderTimestampRejected) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 1, 0.0), {1});
  std::vector<Segment> segments;
  ASSERT_TRUE(generator.Ingest(Row(1000, {1.0f}), &segments).ok());
  EXPECT_EQ(generator.Ingest(Row(900, {1.0f}), &segments).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(generator.Ingest(Row(1000, {1.0f}), &segments).code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentGeneratorTest, WrongArityRejected) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 2, 0.0), {1, 2});
  std::vector<Segment> segments;
  EXPECT_EQ(generator.Ingest(Row(0, {1.0f}), &segments).code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentGeneratorTest, StatsCountRowsValuesAndSegments) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 3, 0.0), {1, 2, 3});
  std::vector<Segment> segments;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        generator.Ingest(Row(i * kSi, {1.0f, 1.0f, 1.0f}), &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  const IngestStats& stats = generator.stats();
  EXPECT_EQ(stats.rows_ingested, 60);
  EXPECT_EQ(stats.values_ingested, 180);
  EXPECT_EQ(stats.segments_emitted, static_cast<int64_t>(segments.size()));
  int64_t values_represented = 0;
  for (const auto& [mid, n] : stats.values_per_model) values_represented += n;
  EXPECT_EQ(values_represented, 180);
}

TEST(SegmentGeneratorTest, EmptyFlushIsNoop) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 1, 0.0), {1});
  std::vector<Segment> segments;
  EXPECT_TRUE(generator.Flush(&segments).ok());
  EXPECT_TRUE(segments.empty());
}

TEST(SegmentGeneratorTest, AllAbsentRowActsAsGap) {
  ModelRegistry registry = ModelRegistry::Default();
  SegmentGenerator generator(Config(&registry, 1, 0.0), {1});
  std::vector<Segment> segments;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(generator.Ingest(Row(i * kSi, {3.0f}), &segments).ok());
  }
  GroupRow absent;
  absent.timestamp = 5 * kSi;
  absent.values = {0.0f};
  absent.present = {false};
  ASSERT_TRUE(generator.Ingest(absent, &segments).ok());
  // The buffered window must have been flushed.
  int64_t covered = 0;
  for (const Segment& s : segments) covered += s.Length();
  EXPECT_EQ(covered, 5);
}

// End-to-end reconstruction property over bounds and workload shapes.
struct SweepCase {
  double pct;
  int num_series;
  double gap_probability;
  uint64_t seed;
};

class GeneratorSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GeneratorSweep, LosslessCoverageWithinBound) {
  const SweepCase& param = GetParam();
  ModelRegistry registry = ModelRegistry::Default();
  std::vector<Tid> tids;
  for (int i = 0; i < param.num_series; ++i) tids.push_back(i + 1);
  SegmentGenerator generator(
      Config(&registry, param.num_series, param.pct), tids);

  Random rng(param.seed);
  std::map<Tid, std::map<Timestamp, Value>> original;
  std::vector<Segment> segments;
  double base = 200.0;
  std::vector<bool> in_gap(param.num_series, false);
  for (int i = 0; i < 500; ++i) {
    base += rng.Uniform(-2.0, 2.0);
    GroupRow row;
    row.timestamp = i * kSi;
    for (int c = 0; c < param.num_series; ++c) {
      if (rng.Bernoulli(param.gap_probability)) in_gap[c] = !in_gap[c];
      Value v = static_cast<Value>(base + rng.Uniform(-1.0, 1.0));
      row.values.push_back(v);
      row.present.push_back(!in_gap[c]);
      if (!in_gap[c]) original[tids[c]][row.timestamp] = v;
    }
    ASSERT_TRUE(generator.Ingest(row, &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  VerifyReconstruction(registry, segments, tids, param.num_series, original,
                       ErrorBound::Relative(param.pct));
}

INSTANTIATE_TEST_SUITE_P(
    BoundsAndShapes, GeneratorSweep,
    ::testing::Values(SweepCase{0.0, 1, 0.0, 1}, SweepCase{0.0, 4, 0.0, 2},
                      SweepCase{1.0, 4, 0.0, 3}, SweepCase{5.0, 8, 0.0, 4},
                      SweepCase{10.0, 4, 0.0, 5}, SweepCase{0.0, 3, 0.01, 6},
                      SweepCase{5.0, 3, 0.02, 7}, SweepCase{10.0, 6, 0.01, 8}));

// The §5.1 registry must satisfy the same reconstruction property.
TEST(GeneratorMultiModelTest, MultiModelRegistryWithinBound) {
  ModelRegistry registry = MultiModelPerSegmentRegistry();
  std::vector<Tid> tids = {1, 2, 3};
  SegmentGenerator generator(Config(&registry, 3, 5.0), tids);
  Random rng(42);
  std::map<Tid, std::map<Timestamp, Value>> original;
  std::vector<Segment> segments;
  for (int i = 0; i < 300; ++i) {
    GroupRow row;
    row.timestamp = i * kSi;
    for (int c = 0; c < 3; ++c) {
      // Per-series offsets: bad for group models, fine for per-series ones.
      Value v = static_cast<Value>(100 * (c + 1) + rng.Uniform(-1.0, 1.0));
      row.values.push_back(v);
      row.present.push_back(true);
      original[tids[c]][row.timestamp] = v;
    }
    ASSERT_TRUE(generator.Ingest(row, &segments).ok());
  }
  ASSERT_TRUE(generator.Flush(&segments).ok());
  VerifyReconstruction(registry, segments, tids, 3, original,
                       ErrorBound::Relative(5.0));
}

TEST(GeneratorCompressionTest, HigherBoundNeverMuchWorse) {
  // Compression (bytes emitted) should improve monotonically-ish with the
  // error bound on smooth data.
  ModelRegistry registry = ModelRegistry::Default();
  std::vector<double> bounds = {0.0, 1.0, 5.0, 10.0};
  std::vector<int64_t> bytes;
  for (double pct : bounds) {
    SegmentGenerator generator(Config(&registry, 2, pct), {1, 2});
    Random rng(9);
    std::vector<Segment> segments;
    double base = 300.0;
    for (int i = 0; i < 1000; ++i) {
      base += rng.Uniform(-0.5, 0.5);
      ASSERT_TRUE(generator
                      .Ingest(Row(i * kSi,
                                  {static_cast<Value>(base),
                                   static_cast<Value>(base + 1.0)}),
                              &segments)
                      .ok());
    }
    ASSERT_TRUE(generator.Flush(&segments).ok());
    bytes.push_back(generator.stats().bytes_emitted);
  }
  EXPECT_LT(bytes[3], bytes[0]);  // 10% must beat lossless on smooth data.
  EXPECT_LT(bytes[1], bytes[0]);
}

}  // namespace
}  // namespace modelardb
