// Multiple models per segment (paper §5.1): the baseline MGC scheme that
// wraps one single-series model per group member and stores them together
// in one segment, sharing the segment metadata but not the parameters.
//
// Case III of Fig 9 (some sub-models accept a value, others reject it) is
// handled exactly as the paper prescribes: the wrapper's end time is simply
// not advanced, and leftover parameters of the sub-models that accepted the
// value are dropped because serialization always re-derives the parameters
// for the wrapper's (shorter) accepted length.
//
// Not part of the library: the wrappers are ordinary user models that
// MultiModelPerSegmentRegistry() adds through the public RegisterModel
// extension path (§3.1), for the §5.1-vs-§5.2 ablation.

#ifndef MODELARDB_BENCH_BASELINES_PER_SERIES_H_
#define MODELARDB_BENCH_BASELINES_PER_SERIES_H_

#include <memory>
#include <string>
#include <vector>

#include "core/model.h"

namespace modelardb {

// User Mids (>= kMinUserMid) of the wrappers around the bundled models.
inline constexpr Mid kMidMultiPmcMean = 111;
inline constexpr Mid kMidMultiSwing = 112;
inline constexpr Mid kMidMultiGorilla = 113;

class PerSeriesModel : public Model {
 public:
  // `base_factory` creates the per-series sub-model (with num_series == 1).
  PerSeriesModel(Mid mid, std::string name, const ModelConfig& config,
                 ModelFactory base_factory);

  Mid mid() const override { return mid_; }
  const char* name() const override { return name_.c_str(); }
  bool Append(const Value* values) override;
  int length() const override { return length_; }
  size_t ParameterSizeBytes() const override;
  std::vector<uint8_t> SerializeParameters(int prefix_length) const override;
  void Reset() override;

  // Factory/decoder pairs for wrappers around the bundled models.
  static std::unique_ptr<Model> CreateMultiPmc(const ModelConfig& config);
  static std::unique_ptr<Model> CreateMultiSwing(const ModelConfig& config);
  static std::unique_ptr<Model> CreateMultiGorilla(const ModelConfig& config);
  static Result<std::unique_ptr<SegmentDecoder>> DecodeMultiPmc(
      ByteSpan params, int num_series, int length);
  static Result<std::unique_ptr<SegmentDecoder>> DecodeMultiSwing(
      ByteSpan params, int num_series, int length);
  static Result<std::unique_ptr<SegmentDecoder>> DecodeMultiGorilla(
      ByteSpan params, int num_series, int length);

 private:
  Mid mid_;
  std::string name_;
  ModelConfig config_;
  ModelFactory base_factory_;
  std::vector<std::unique_ptr<Model>> sub_models_;
  int length_ = 0;
  bool failed_ = false;
};

// Decoder delegating to one sub-decoder per series.
class PerSeriesDecoder : public SegmentDecoder {
 public:
  PerSeriesDecoder(std::vector<std::unique_ptr<SegmentDecoder>> subs,
                   int length)
      : subs_(std::move(subs)), length_(length) {}

  int num_series() const override { return static_cast<int>(subs_.size()); }
  int length() const override { return length_; }
  Value ValueAt(int row, int col) const override {
    return subs_[col]->ValueAt(row, 0);
  }
  void CopyColumn(int from_row, int to_row, int col,
                  Value* out) const override {
    subs_[col]->CopyColumn(from_row, to_row, 0, out);
  }
  AggregateSummary AggregateRange(int from_row, int to_row,
                                  int col) const override {
    return subs_[col]->AggregateRange(from_row, to_row, 0);
  }
  bool HasConstantTimeAggregates() const override {
    for (const auto& s : subs_) {
      if (!s->HasConstantTimeAggregates()) return false;
    }
    return true;
  }

 private:
  std::vector<std::unique_ptr<SegmentDecoder>> subs_;
  int length_;
};

// A registry whose fitting sequence is the §5.1 per-series wrappers
// (Multi-PMC-Mean -> Multi-Swing -> Multi-Gorilla) instead of the
// group-aware §5.2 models; it still decodes the bundled models.
ModelRegistry MultiModelPerSegmentRegistry();

}  // namespace modelardb

#endif  // MODELARDB_BENCH_BASELINES_PER_SERIES_H_
