#include "bench/baselines/per_series.h"

#include <cstdlib>

#include "core/models/gorilla.h"
#include "core/models/pmc_mean.h"
#include "core/models/swing.h"
#include "util/buffer.h"

namespace modelardb {
namespace {

ModelConfig SingleSeriesConfig(const ModelConfig& config) {
  ModelConfig sub = config;
  sub.num_series = 1;
  return sub;
}

Result<std::unique_ptr<SegmentDecoder>> DecodeWith(
    ByteSpan params, int num_series, int length,
    const DecoderFactory& sub_decoder) {
  BufferReader reader(params);
  std::vector<std::unique_ptr<SegmentDecoder>> subs;
  subs.reserve(num_series);
  for (int i = 0; i < num_series; ++i) {
    // Borrow the sub-model bytes in place: the sub-decoders materialize
    // their state during construction, so the view need not outlive it.
    MODELARDB_ASSIGN_OR_RETURN(auto sub_params, reader.ReadBytesView());
    MODELARDB_ASSIGN_OR_RETURN(
        std::unique_ptr<SegmentDecoder> sub,
        sub_decoder(ByteSpan(sub_params.first, sub_params.second), 1, length));
    subs.push_back(std::move(sub));
  }
  return std::unique_ptr<SegmentDecoder>(
      new PerSeriesDecoder(std::move(subs), length));
}

}  // namespace

PerSeriesModel::PerSeriesModel(Mid mid, std::string name,
                               const ModelConfig& config,
                               ModelFactory base_factory)
    : mid_(mid),
      name_(std::move(name)),
      config_(config),
      base_factory_(std::move(base_factory)) {
  ModelConfig sub_config = SingleSeriesConfig(config_);
  sub_models_.reserve(config_.num_series);
  for (int i = 0; i < config_.num_series; ++i) {
    sub_models_.push_back(base_factory_(sub_config));
  }
}

bool PerSeriesModel::Append(const Value* values) {
  if (failed_ || length_ >= config_.length_limit) return false;
  // Feed every sub-model its series' value. If any rejects, this is case
  // (II)/(III) of Fig 9: the wrapper's length stays put and the wrapper is
  // done. Sub-models that accepted the value remain valid for the shorter
  // prefix, which is what gets serialized.
  bool all_accepted = true;
  for (int i = 0; i < config_.num_series; ++i) {
    if (!sub_models_[i]->Append(&values[i])) {
      all_accepted = false;
      // Keep feeding the rest? No: one rejection already caps the segment,
      // and skipping avoids tightening the remaining models needlessly.
      break;
    }
  }
  if (!all_accepted) {
    failed_ = true;
    return false;
  }
  ++length_;
  return true;
}

size_t PerSeriesModel::ParameterSizeBytes() const {
  size_t total = 0;
  for (const auto& sub : sub_models_) {
    size_t n = sub->ParameterSizeBytes();
    total += n + 1 + (n >= 128 ? 1 : 0);  // Varint length prefix estimate.
  }
  return total;
}

std::vector<uint8_t> PerSeriesModel::SerializeParameters(
    int prefix_length) const {
  BufferWriter writer;
  for (const auto& sub : sub_models_) {
    writer.WriteBytes(sub->SerializeParameters(prefix_length));
  }
  return writer.Finish();
}

void PerSeriesModel::Reset() {
  for (auto& sub : sub_models_) sub->Reset();
  length_ = 0;
  failed_ = false;
}

std::unique_ptr<Model> PerSeriesModel::CreateMultiPmc(
    const ModelConfig& config) {
  return std::make_unique<PerSeriesModel>(kMidMultiPmcMean, "Multi-PMC-Mean",
                                          config, PmcMeanModel::Create);
}
std::unique_ptr<Model> PerSeriesModel::CreateMultiSwing(
    const ModelConfig& config) {
  return std::make_unique<PerSeriesModel>(kMidMultiSwing, "Multi-Swing",
                                          config, SwingModel::Create);
}
std::unique_ptr<Model> PerSeriesModel::CreateMultiGorilla(
    const ModelConfig& config) {
  return std::make_unique<PerSeriesModel>(kMidMultiGorilla, "Multi-Gorilla",
                                          config, GorillaModel::Create);
}

Result<std::unique_ptr<SegmentDecoder>> PerSeriesModel::DecodeMultiPmc(
    ByteSpan params, int num_series, int length) {
  return DecodeWith(params, num_series, length, PmcMeanModel::Decode);
}
Result<std::unique_ptr<SegmentDecoder>> PerSeriesModel::DecodeMultiSwing(
    ByteSpan params, int num_series, int length) {
  return DecodeWith(params, num_series, length, SwingModel::Decode);
}
Result<std::unique_ptr<SegmentDecoder>> PerSeriesModel::DecodeMultiGorilla(
    ByteSpan params, int num_series, int length) {
  return DecodeWith(params, num_series, length, GorillaModel::Decode);
}

ModelRegistry MultiModelPerSegmentRegistry() {
  ModelRegistry registry;
  const struct {
    Mid mid;
    const char* name;
    ModelFactory create;
    DecoderFactory decode;
  } wrappers[] = {
      {kMidMultiPmcMean, "Multi-PMC-Mean", PerSeriesModel::CreateMultiPmc,
       PerSeriesModel::DecodeMultiPmc},
      {kMidMultiSwing, "Multi-Swing", PerSeriesModel::CreateMultiSwing,
       PerSeriesModel::DecodeMultiSwing},
      {kMidMultiGorilla, "Multi-Gorilla", PerSeriesModel::CreateMultiGorilla,
       PerSeriesModel::DecodeMultiGorilla},
  };
  for (const auto& w : wrappers) {
    // Fresh user Mids on a fresh registry: registration cannot fail.
    if (!registry.RegisterModel(w.mid, w.name, w.create, w.decode).ok()) {
      std::abort();
    }
  }
  return registry;
}

}  // namespace modelardb
