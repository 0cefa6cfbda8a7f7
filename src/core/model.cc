#include "core/model.h"

#include <algorithm>

#include "util/simd/kernels.h"

#include "core/models/gorilla.h"
#include "core/models/pmc_mean.h"
#include "core/models/raw_fallback.h"
#include "core/models/swing.h"

namespace modelardb {

void SegmentDecoder::CopyColumn(int from_row, int to_row, int col,
                                Value* out) const {
  for (int row = from_row; row <= to_row; ++row) {
    *out++ = ValueAt(row, col);
  }
}

AggregateSummary SegmentDecoder::AggregateRange(int from_row, int to_row,
                                                int col) const {
  return AggregateRangeScaled(from_row, to_row, col, /*scaling=*/1.0);
}

AggregateSummary SegmentDecoder::AggregateRangeScaled(int from_row,
                                                      int to_row, int col,
                                                      double scaling) const {
  // The canonical fold: chunked CopyColumn spans through the dispatched
  // kernels. Chunks are a multiple of kFoldLanes (except the last) so the
  // element-to-lane mapping is continuous across chunks — byte-identical
  // results whatever the chunk size or kernel tier (DESIGN.md §3f).
  simd::FoldAccum accum;
  simd::FoldInit(&accum);
  constexpr int kChunkRows = 512;
  static_assert(kChunkRows % simd::kFoldLanes == 0,
                "chunks must preserve the fold lane mapping");
  Value buffer[kChunkRows];
  const int64_t n = static_cast<int64_t>(to_row) - from_row + 1;
  for (int64_t at = 0; at < n; at += kChunkRows) {
    int len = static_cast<int>(std::min<int64_t>(kChunkRows, n - at));
    int row = from_row + static_cast<int>(at);
    CopyColumn(row, row + len - 1, col, buffer);
    simd::Active().fold_span(buffer, static_cast<size_t>(len), scaling,
                             &accum);
  }
  simd::NoteSpanFolded(static_cast<size_t>(n));
  simd::FoldResult folded = simd::FoldFinalize(accum);
  AggregateSummary out;
  out.sum = folded.sum;
  out.min = folded.min;
  out.max = folded.max;
  out.count = n;
  return out;
}

ModelRegistry::ModelRegistry() {
  // Every registry can decode the bundled models so that stored data stays
  // readable regardless of the configured fitting sequence.
  auto add_decoder = [this](Mid mid, const char* name,
                            DecoderFactory decoder) {
    entries_[mid] = Entry{name, nullptr, std::move(decoder)};
  };
  add_decoder(kMidPmcMean, "PMC-Mean", PmcMeanModel::Decode);
  add_decoder(kMidSwing, "Swing", SwingModel::Decode);
  add_decoder(kMidGorilla, "Gorilla", GorillaModel::Decode);
  add_decoder(kMidRawFallback, "Raw", RawFallbackModel::Decode);
}

ModelRegistry ModelRegistry::Default() {
  ModelRegistry registry;
  registry.entries_[kMidPmcMean].model_factory = PmcMeanModel::Create;
  registry.entries_[kMidSwing].model_factory = SwingModel::Create;
  registry.entries_[kMidGorilla].model_factory = GorillaModel::Create;
  registry.entries_[kMidRawFallback].model_factory = RawFallbackModel::Create;
  // The paper's fitting order (§3.2/§7.1): constant, then linear, then
  // lossless. The raw fallback is not part of the sequence; the generator
  // only uses it when no sequence model accepted any row.
  registry.fitting_sequence_ = {kMidPmcMean, kMidSwing, kMidGorilla};
  return registry;
}

Status ModelRegistry::RegisterModel(Mid mid, std::string name,
                                    ModelFactory model_factory,
                                    DecoderFactory decoder_factory,
                                    bool in_fitting_sequence) {
  if (mid < kMinUserMid) {
    return Status::InvalidArgument("user model Mids must be >= " +
                                   std::to_string(kMinUserMid));
  }
  if (entries_.count(mid) > 0) {
    return Status::AlreadyExists("Mid already registered: " +
                                 std::to_string(mid));
  }
  entries_[mid] = Entry{std::move(name), std::move(model_factory),
                        std::move(decoder_factory)};
  if (in_fitting_sequence) fitting_sequence_.push_back(mid);
  return Status::OK();
}

Result<std::unique_ptr<Model>> ModelRegistry::CreateModel(
    Mid mid, const ModelConfig& config) const {
  auto it = entries_.find(mid);
  if (it == entries_.end()) {
    return Status::NotFound("unknown Mid: " + std::to_string(mid));
  }
  if (!it->second.model_factory) {
    return Status::InvalidArgument("Mid is decode-only: " +
                                   std::to_string(mid));
  }
  return it->second.model_factory(config);
}

Result<std::unique_ptr<SegmentDecoder>> ModelRegistry::CreateDecoder(
    Mid mid, ByteSpan params, int num_series, int length) const {
  auto it = entries_.find(mid);
  if (it == entries_.end()) {
    return Status::NotFound("unknown Mid: " + std::to_string(mid));
  }
  return it->second.decoder_factory(params, num_series, length);
}

Result<std::string> ModelRegistry::ModelName(Mid mid) const {
  auto it = entries_.find(mid);
  if (it == entries_.end()) {
    return Status::NotFound("unknown Mid: " + std::to_string(mid));
  }
  return it->second.name;
}

}  // namespace modelardb
