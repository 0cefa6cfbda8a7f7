#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "core/model.h"
#include "bench/baselines/per_series.h"
#include "bench/baselines/polynomial.h"
#include "core/models/gorilla.h"
#include "core/models/pmc_mean.h"
#include "core/models/raw_fallback.h"
#include "core/models/swing.h"
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

// --- PMC-Mean ---------------------------------------------------------------

TEST(PmcMeanTest, AcceptsConstantSeriesLossless) {
  PmcMeanModel model(Config(1, 0.0));
  Value v = 42.5f;
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(model.Append(&v));
  EXPECT_FALSE(model.Append(&v));  // Length limit.
  EXPECT_EQ(model.length(), 50);
  EXPECT_EQ(model.ParameterSizeBytes(), sizeof(float));
}

TEST(PmcMeanTest, RejectsChangeAtLossless) {
  PmcMeanModel model(Config(1, 0.0));
  Value a = 1.0f;
  Value b = 1.0001f;
  EXPECT_TRUE(model.Append(&a));
  EXPECT_FALSE(model.Append(&b));
  EXPECT_EQ(model.length(), 1);
}

TEST(PmcMeanTest, AcceptsDriftWithinRelativeBound) {
  PmcMeanModel model(Config(1, 10.0));
  Value a = 100.0f;
  Value b = 105.0f;  // Within 10% of both 100 and 105 for a mid constant.
  EXPECT_TRUE(model.Append(&a));
  EXPECT_TRUE(model.Append(&b));
  Value c = 150.0f;  // No constant fits {100, 150} at 10%.
  EXPECT_FALSE(model.Append(&c));
}

TEST(PmcMeanTest, GroupRowRejectedWhenSpreadExceedsTwiceBound) {
  // §5.2: max(V) - min(V) = 2ε is the maximum representable range.
  PmcMeanModel model(Config(2, 5.0));
  Value ok[2] = {100.0f, 108.0f};   // Spread 8 < 5 + 5.4.
  EXPECT_TRUE(model.Append(ok));
  PmcMeanModel model2(Config(2, 5.0));
  Value bad[2] = {100.0f, 120.0f};  // Spread 20 > 5 + 6: infeasible.
  EXPECT_FALSE(model2.Append(bad));
}

TEST(PmcMeanTest, DecodedValueWithinBoundOfAllInputs) {
  ModelConfig config = Config(3, 5.0);
  PmcMeanModel model(config);
  std::vector<std::array<Value, 3>> rows = {
      {100.0f, 101.5f, 99.0f}, {102.0f, 100.0f, 98.5f}, {99.5f, 100.5f, 101.0f}};
  for (auto& row : rows) ASSERT_TRUE(model.Append(row.data()));
  auto decoder = *PmcMeanModel::Decode(model.SerializeParameters(3), 3, 3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_TRUE(config.error_bound.Within(decoder->ValueAt(r, c),
                                            rows[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

TEST(PmcMeanTest, ConstantTimeAggregates) {
  PmcMeanDecoder decoder(10.0f, 2, 100);
  EXPECT_TRUE(decoder.HasConstantTimeAggregates());
  AggregateSummary agg = decoder.AggregateRange(10, 19, 0);
  EXPECT_EQ(agg.count, 10);
  EXPECT_DOUBLE_EQ(agg.sum, 100.0);
  EXPECT_DOUBLE_EQ(agg.min, 10.0);
  EXPECT_DOUBLE_EQ(agg.max, 10.0);
}

TEST(PmcMeanTest, ResetClearsState) {
  PmcMeanModel model(Config(1, 0.0));
  Value a = 5.0f;
  ASSERT_TRUE(model.Append(&a));
  Value b = 9.0f;
  ASSERT_FALSE(model.Append(&b));
  model.Reset();
  EXPECT_EQ(model.length(), 0);
  EXPECT_TRUE(model.Append(&b));  // Fresh state accepts a new constant.
}

// --- Swing ------------------------------------------------------------------

TEST(SwingTest, FitsExactLinearSeriesLosslessly) {
  ModelConfig config = Config(1, 0.0);
  SwingModel model(config);
  // Values exactly representable as floats on a line: v = 2*i + 10.
  for (int i = 0; i < 50; ++i) {
    Value v = static_cast<Value>(2 * i + 10);
    ASSERT_TRUE(model.Append(&v)) << i;
  }
  auto decoder = *SwingModel::Decode(model.SerializeParameters(50), 1, 50);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(decoder->ValueAt(i, 0), static_cast<Value>(2 * i + 10));
  }
}

TEST(SwingTest, RejectsNonLinearAtLossless) {
  SwingModel model(Config(1, 0.0));
  Value v0 = 0.0f, v1 = 1.0f, v2 = 5.0f;
  EXPECT_TRUE(model.Append(&v0));
  EXPECT_TRUE(model.Append(&v1));
  EXPECT_FALSE(model.Append(&v2));  // Line through (0,0),(1,1) gives 2 at i=2.
  EXPECT_EQ(model.length(), 2);
}

TEST(SwingTest, AcceptsNoisyLinearWithinBound) {
  ModelConfig config = Config(1, 5.0);
  SwingModel model(config);
  Random rng(3);
  std::vector<Value> values;
  for (int i = 0; i < 50; ++i) {
    double v = 100.0 + 0.5 * i + rng.Uniform(-1.0, 1.0);
    values.push_back(static_cast<Value>(v));
  }
  int accepted = 0;
  for (Value v : values) {
    if (!model.Append(&v)) break;
    ++accepted;
  }
  ASSERT_GT(accepted, 10);  // Small noise vs 5% of ~100: long fits.
  auto decoder =
      *SwingModel::Decode(model.SerializeParameters(accepted), 1, accepted);
  for (int i = 0; i < accepted; ++i) {
    EXPECT_TRUE(config.error_bound.Within(decoder->ValueAt(i, 0), values[i]))
        << i;
  }
}

TEST(SwingTest, GroupLineWithinBoundOfAllSeries) {
  ModelConfig config = Config(2, 10.0);
  SwingModel model(config);
  std::vector<std::array<Value, 2>> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({static_cast<Value>(100 + i), static_cast<Value>(103 + i)});
  }
  for (auto& row : rows) ASSERT_TRUE(model.Append(row.data()));
  auto decoder = *SwingModel::Decode(model.SerializeParameters(20), 2, 20);
  for (int r = 0; r < 20; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_TRUE(config.error_bound.Within(decoder->ValueAt(r, c),
                                            rows[r][c]));
    }
  }
}

TEST(SwingTest, SumAggregateMatchesPointwiseSum) {
  SwingDecoder decoder(/*intercept=*/10.0, /*slope=*/0.5, 1, 100);
  AggregateSummary agg = decoder.AggregateRange(0, 99, 0);
  double expected = 0;
  for (int i = 0; i < 100; ++i) expected += 10.0 + 0.5 * i;
  EXPECT_NEAR(agg.sum, expected, 1e-6);
  EXPECT_EQ(agg.count, 100);
  EXPECT_FLOAT_EQ(agg.min, 10.0f);
  EXPECT_FLOAT_EQ(agg.max, 10.0f + 0.5f * 99);
  EXPECT_TRUE(decoder.HasConstantTimeAggregates());
}

TEST(SwingTest, DecreasingSlopeMinMaxSwapped) {
  SwingDecoder decoder(/*intercept=*/50.0, /*slope=*/-1.0, 1, 10);
  AggregateSummary agg = decoder.AggregateRange(0, 9, 0);
  EXPECT_FLOAT_EQ(agg.min, 41.0f);
  EXPECT_FLOAT_EQ(agg.max, 50.0f);
}

// --- Gorilla ----------------------------------------------------------------

TEST(GorillaStreamTest, RoundTripsArbitraryFloats) {
  Random rng(11);
  std::vector<Value> values;
  GorillaEncoder encoder;
  for (int i = 0; i < 1000; ++i) {
    Value v = static_cast<Value>(rng.Uniform(-1e6, 1e6));
    values.push_back(v);
    encoder.Append(v);
  }
  auto decoded = *GorillaDecodeStream(encoder.Finish(), values.size());
  EXPECT_EQ(decoded, values);
}

TEST(GorillaStreamTest, RepeatedValueUsesOneBit) {
  GorillaEncoder encoder;
  encoder.Append(12.5f);
  size_t first = encoder.bit_count();
  for (int i = 0; i < 100; ++i) encoder.Append(12.5f);
  EXPECT_EQ(encoder.bit_count(), first + 100);  // One bit per repeat.
}

TEST(GorillaStreamTest, SpecialFloats) {
  std::vector<Value> values = {0.0f,
                               -0.0f,
                               std::numeric_limits<Value>::infinity(),
                               -std::numeric_limits<Value>::infinity(),
                               std::numeric_limits<Value>::denorm_min(),
                               std::numeric_limits<Value>::max()};
  GorillaEncoder encoder;
  for (Value v : values) encoder.Append(v);
  auto decoded = *GorillaDecodeStream(encoder.Finish(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(FloatToBits(decoded[i]), FloatToBits(values[i]));
  }
}

TEST(GorillaModelTest, GroupRoundTripIsLossless) {
  ModelConfig config = Config(3, 0.0, 50);
  GorillaModel model(config);
  Random rng(5);
  std::vector<std::array<Value, 3>> rows;
  for (int i = 0; i < 50; ++i) {
    std::array<Value, 3> row;
    Value base = static_cast<Value>(rng.Uniform(50, 150));
    for (int c = 0; c < 3; ++c) {
      row[c] = base + static_cast<Value>(rng.Uniform(-0.5, 0.5));
    }
    rows.push_back(row);
    ASSERT_TRUE(model.Append(row.data()));
  }
  EXPECT_FALSE(model.Append(rows[0].data()));  // Limit reached.
  auto decoder = *GorillaModel::Decode(model.SerializeParameters(50), 3, 50);
  for (int r = 0; r < 50; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(decoder->ValueAt(r, c), rows[r][c]);
    }
  }
}

TEST(GorillaModelTest, CorrelatedGroupCompressesBetterThanUncorrelated) {
  ModelConfig config = Config(8, 0.0, 50);
  Random rng(17);
  GorillaModel correlated(config);
  GorillaModel uncorrelated(config);
  for (int i = 0; i < 50; ++i) {
    Value base = static_cast<Value>(100.0 + i * 0.25);
    std::array<Value, 8> close;
    std::array<Value, 8> apart;
    for (int c = 0; c < 8; ++c) {
      close[c] = base;  // Identical across the group: XOR deltas vanish.
      apart[c] = static_cast<Value>(rng.Uniform(-1e6, 1e6));
    }
    ASSERT_TRUE(correlated.Append(close.data()));
    ASSERT_TRUE(uncorrelated.Append(apart.data()));
  }
  EXPECT_LT(correlated.ParameterSizeBytes(),
            uncorrelated.ParameterSizeBytes() / 2);
}

TEST(GorillaModelTest, PrefixSerializationMatchesPrefixData) {
  ModelConfig config = Config(2, 0.0, 50);
  GorillaModel model(config);
  std::vector<std::array<Value, 2>> rows;
  Random rng(23);
  for (int i = 0; i < 20; ++i) {
    std::array<Value, 2> row = {static_cast<Value>(rng.NextDouble()),
                                static_cast<Value>(rng.NextDouble())};
    rows.push_back(row);
    ASSERT_TRUE(model.Append(row.data()));
  }
  auto decoder = *GorillaModel::Decode(model.SerializeParameters(7), 2, 7);
  for (int r = 0; r < 7; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(decoder->ValueAt(r, c), rows[r][c]);
    }
  }
}

// --- Raw fallback -----------------------------------------------------------

TEST(RawFallbackTest, RoundTrips) {
  ModelConfig config = Config(2, 0.0, 50);
  RawFallbackModel model(config);
  Value row0[2] = {1.5f, -2.5f};
  Value row1[2] = {3.25f, 4.75f};
  ASSERT_TRUE(model.Append(row0));
  ASSERT_TRUE(model.Append(row1));
  auto decoder = *RawFallbackModel::Decode(model.SerializeParameters(2), 2, 2);
  EXPECT_EQ(decoder->ValueAt(0, 0), 1.5f);
  EXPECT_EQ(decoder->ValueAt(0, 1), -2.5f);
  EXPECT_EQ(decoder->ValueAt(1, 0), 3.25f);
  EXPECT_EQ(decoder->ValueAt(1, 1), 4.75f);
}

TEST(RawFallbackTest, SizeMismatchIsCorruption) {
  std::vector<uint8_t> params(7, 0);  // Not a multiple of 4.
  EXPECT_EQ(RawFallbackModel::Decode(params, 1, 2).status().code(),
            StatusCode::kCorruption);
}

// --- Multiple models per segment (§5.1) --------------------------------------

TEST(PerSeriesTest, IndependentConstantsPerSeries) {
  // Two series with different constants: the group-aware PMC rejects them
  // at 0%, but the per-series wrapper fits each with its own constant.
  ModelConfig config = Config(2, 0.0, 50);
  PmcMeanModel group_model(config);
  Value row[2] = {10.0f, 20.0f};
  EXPECT_FALSE(group_model.Append(row));

  auto wrapper = PerSeriesModel::CreateMultiPmc(config);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(wrapper->Append(row));
  auto decoder = *PerSeriesModel::DecodeMultiPmc(
      wrapper->SerializeParameters(10), 2, 10);
  EXPECT_EQ(decoder->ValueAt(5, 0), 10.0f);
  EXPECT_EQ(decoder->ValueAt(5, 1), 20.0f);
  EXPECT_TRUE(decoder->HasConstantTimeAggregates());
}

TEST(PerSeriesTest, CaseThreeKeepsCommonPrefix) {
  // Fig 9 case III: series 0 stays constant, series 1 breaks. The wrapper
  // must stop at the shared prefix and serialize a consistent segment.
  ModelConfig config = Config(2, 0.0, 50);
  auto wrapper = PerSeriesModel::CreateMultiPmc(config);
  Value rows[4][2] = {{1.0f, 5.0f}, {1.0f, 5.0f}, {1.0f, 5.0f}, {1.0f, 9.0f}};
  EXPECT_TRUE(wrapper->Append(rows[0]));
  EXPECT_TRUE(wrapper->Append(rows[1]));
  EXPECT_TRUE(wrapper->Append(rows[2]));
  EXPECT_FALSE(wrapper->Append(rows[3]));
  EXPECT_EQ(wrapper->length(), 3);
  auto decoder =
      *PerSeriesModel::DecodeMultiPmc(wrapper->SerializeParameters(3), 2, 3);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(decoder->ValueAt(r, 0), 1.0f);
    EXPECT_EQ(decoder->ValueAt(r, 1), 5.0f);
  }
}

TEST(PerSeriesTest, GorillaWrapperIsLossless) {
  ModelConfig config = Config(3, 0.0, 50);
  auto wrapper = PerSeriesModel::CreateMultiGorilla(config);
  Random rng(31);
  std::vector<std::array<Value, 3>> rows;
  for (int i = 0; i < 30; ++i) {
    std::array<Value, 3> row = {static_cast<Value>(rng.NextDouble()),
                                static_cast<Value>(rng.NextDouble()),
                                static_cast<Value>(rng.NextDouble())};
    rows.push_back(row);
    ASSERT_TRUE(wrapper->Append(row.data()));
  }
  auto decoder = *PerSeriesModel::DecodeMultiGorilla(
      wrapper->SerializeParameters(30), 3, 30);
  for (int r = 0; r < 30; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(decoder->ValueAt(r, c), rows[r][c]);
  }
}

// --- Registry ---------------------------------------------------------------

TEST(ModelRegistryTest, DefaultSequenceIsPmcSwingGorilla) {
  ModelRegistry registry = ModelRegistry::Default();
  EXPECT_EQ(registry.fitting_sequence(),
            (std::vector<Mid>{kMidPmcMean, kMidSwing, kMidGorilla}));
  EXPECT_EQ(*registry.ModelName(kMidPmcMean), "PMC-Mean");
  EXPECT_EQ(*registry.ModelName(kMidSwing), "Swing");
  EXPECT_EQ(*registry.ModelName(kMidGorilla), "Gorilla");
}

TEST(ModelRegistryTest, UserModelMidMustBeHigh) {
  ModelRegistry registry = ModelRegistry::Default();
  Status s = registry.RegisterModel(
      5, "bad", PmcMeanModel::Create, PmcMeanModel::Decode);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(registry
                  .RegisterModel(100, "mine", PmcMeanModel::Create,
                                 PmcMeanModel::Decode)
                  .ok());
  EXPECT_EQ(registry.fitting_sequence().back(), 100);
}

TEST(ModelRegistryTest, DuplicateRegistrationRejected) {
  ModelRegistry registry = ModelRegistry::Default();
  ASSERT_TRUE(registry
                  .RegisterModel(100, "mine", PmcMeanModel::Create,
                                 PmcMeanModel::Decode)
                  .ok());
  EXPECT_EQ(registry
                .RegisterModel(100, "mine2", PmcMeanModel::Create,
                               PmcMeanModel::Decode)
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(ModelRegistryTest, UnknownMidIsNotFound) {
  ModelRegistry registry = ModelRegistry::Default();
  EXPECT_EQ(registry.CreateModel(999, ModelConfig{}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.CreateDecoder(999, {}, 1, 1).status().code(),
            StatusCode::kNotFound);
}

TEST(ModelRegistryTest, LibraryRegistriesKnowExactlyTheBundledMids) {
  // The library decodes PMC-Mean, Swing, Gorilla and the raw fallback and
  // nothing else: the ablation models are user models, registered only by
  // the registries that fit them.
  for (const ModelRegistry& registry :
       {ModelRegistry(), ModelRegistry::Default()}) {
    std::vector<Mid> known;
    for (Mid mid = 0; mid < 1024; ++mid) {
      if (registry.Contains(mid)) known.push_back(mid);
    }
    EXPECT_EQ(known, (std::vector<Mid>{kMidPmcMean, kMidSwing, kMidGorilla,
                                       kMidRawFallback}));
    for (Mid ablation : {kMidPolynomial, kMidMultiPmcMean, kMidMultiSwing,
                         kMidMultiGorilla}) {
      EXPECT_EQ(registry.CreateDecoder(ablation, {}, 1, 1).status().code(),
                StatusCode::kNotFound)
          << ablation;
      EXPECT_EQ(registry.ModelName(ablation).status().code(),
                StatusCode::kNotFound);
    }
  }
  EXPECT_TRUE(ExtendedRegistry().Contains(kMidPolynomial));
  EXPECT_TRUE(MultiModelPerSegmentRegistry().Contains(kMidMultiGorilla));
}

TEST(ModelRegistryTest, MultiModelRegistryDecodesSingleModelSegments) {
  // Data written under one registry must stay readable under another.
  ModelRegistry writer = ModelRegistry::Default();
  ModelConfig config = Config(1, 0.0);
  auto model = *writer.CreateModel(kMidPmcMean, config);
  Value v = 7.0f;
  ASSERT_TRUE(model->Append(&v));
  ModelRegistry reader = MultiModelPerSegmentRegistry();
  auto decoder =
      *reader.CreateDecoder(kMidPmcMean, model->SerializeParameters(1), 1, 1);
  EXPECT_EQ(decoder->ValueAt(0, 0), 7.0f);
}

// --- Error-bound property sweep ---------------------------------------------

struct BoundCase {
  double pct;
};

class ModelBoundSweep : public ::testing::TestWithParam<double> {};

TEST_P(ModelBoundSweep, AllModelsRespectBoundOnRandomWalk) {
  double pct = GetParam();
  ModelConfig config = Config(4, pct, 50);
  Random rng(static_cast<uint64_t>(pct * 100) + 1);
  // A correlated random-walk group.
  std::vector<std::array<Value, 4>> rows;
  double base = 500.0;
  for (int i = 0; i < 200; ++i) {
    base += rng.Uniform(-1.0, 1.0);
    std::array<Value, 4> row;
    for (int c = 0; c < 4; ++c) {
      row[c] = static_cast<Value>(base + rng.Uniform(-0.2, 0.2));
    }
    rows.push_back(row);
  }
  ModelRegistry registry = ModelRegistry::Default();
  for (Mid mid : registry.fitting_sequence()) {
    auto model = *registry.CreateModel(mid, config);
    int accepted = 0;
    for (auto& row : rows) {
      if (!model->Append(row.data())) break;
      ++accepted;
    }
    if (accepted == 0) continue;
    auto decoder = *registry.CreateDecoder(
        mid, model->SerializeParameters(accepted), 4, accepted);
    for (int r = 0; r < accepted; ++r) {
      for (int c = 0; c < 4; ++c) {
        EXPECT_TRUE(config.error_bound.Within(decoder->ValueAt(r, c),
                                              rows[r][c]))
            << *registry.ModelName(mid) << " row " << r << " col " << c
            << " bound " << pct;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, ModelBoundSweep,
                         ::testing::Values(0.0, 1.0, 5.0, 10.0));

}  // namespace
}  // namespace modelardb
