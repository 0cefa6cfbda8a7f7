#include "core/segment_generator.h"

#include <algorithm>

#include "core/models/raw_fallback.h"

namespace modelardb {

SegmentGenerator::SegmentGenerator(const SegmentGeneratorConfig& config,
                                   std::vector<Tid> tids)
    : config_(config), tids_(std::move(tids)) {
  assert(config_.registry != nullptr);
  assert(config_.num_series == static_cast<int>(tids_.size()));
  assert(config_.num_series >= 1 && config_.num_series <= 64);
}

uint64_t SegmentGenerator::GapMaskFromRow(const GroupRow& row) const {
  uint64_t mask = 0;
  for (int i = 0; i < config_.num_series; ++i) {
    if (!row.present[i]) mask |= uint64_t{1} << i;
  }
  return mask;
}

std::vector<int> SegmentGenerator::ActivePositions() const {
  std::vector<int> positions;
  for (int i = 0; i < config_.num_series; ++i) {
    if ((gap_mask_ & (uint64_t{1} << i)) == 0) positions.push_back(i);
  }
  return positions;
}

std::vector<Value> SegmentGenerator::BufferedValues(int pos) const {
  std::vector<Value> out;
  if ((gap_mask_ & (uint64_t{1} << pos)) != 0) return out;
  // Dense index of `pos` among the active positions.
  int dense = 0;
  for (int i = 0; i < pos; ++i) {
    if ((gap_mask_ & (uint64_t{1} << i)) == 0) ++dense;
  }
  out.reserve(buffer_.size());
  for (const BufferedRow& row : buffer_) out.push_back(row.values[dense]);
  return out;
}

std::vector<Timestamp> SegmentGenerator::BufferedTimestamps() const {
  std::vector<Timestamp> out;
  out.reserve(buffer_.size());
  for (const BufferedRow& row : buffer_) out.push_back(row.timestamp);
  return out;
}

Status SegmentGenerator::Ingest(const GroupRow& row,
                                std::vector<Segment>* out) {
  if (static_cast<int>(row.values.size()) != config_.num_series ||
      static_cast<int>(row.present.size()) != config_.num_series) {
    return Status::InvalidArgument("row arity does not match group size");
  }
  if (window_open_ && row.timestamp <= last_timestamp_) {
    return Status::InvalidArgument("out-of-order timestamp");
  }

  uint64_t mask = GapMaskFromRow(row);
  bool all_absent = (row.PresentCount() == 0);

  // A change in the set of present series, or a hole in the regular time
  // axis, terminates the current segment window (§3.2, Fig 5).
  bool boundary =
      window_open_ &&
      (mask != gap_mask_ || row.timestamp != last_timestamp_ + config_.si);
  if (boundary || all_absent) {
    MODELARDB_RETURN_NOT_OK(Flush(out));
  }
  last_timestamp_ = row.timestamp;
  if (all_absent) return Status::OK();

  if (!window_open_) {
    gap_mask_ = mask;
    active_count_ = row.PresentCount();
    window_open_ = true;
    MODELARDB_RETURN_NOT_OK(RestartFitting());
  }

  BufferedRow buffered;
  buffered.timestamp = row.timestamp;
  buffered.values.reserve(active_count_);
  for (int i = 0; i < config_.num_series; ++i) {
    if (row.present[i]) buffered.values.push_back(row.values[i]);
  }
  buffer_.push_back(std::move(buffered));
  ++stats_.rows_ingested;
  stats_.values_ingested += active_count_;

  return Advance(out);
}

Status SegmentGenerator::EnsureCurrentModel() {
  const std::vector<Mid>& sequence = config_.registry->fitting_sequence();
  if (sequence.empty()) {
    current_model_ = nullptr;
    return Status::OK();
  }
  ModelConfig model_config;
  model_config.num_series = active_count_;
  model_config.error_bound = config_.error_bound;
  model_config.length_limit = config_.length_limit;
  MODELARDB_ASSIGN_OR_RETURN(
      current_model_,
      config_.registry->CreateModel(sequence[sequence_index_], model_config));
  return Status::OK();
}

Status SegmentGenerator::RestartFitting() {
  candidates_.clear();
  sequence_index_ = 0;
  rows_fed_ = 0;
  return EnsureCurrentModel();
}

Status SegmentGenerator::Advance(std::vector<Segment>* out) {
  const std::vector<Mid>& sequence = config_.registry->fitting_sequence();
  while (rows_fed_ < static_cast<int>(buffer_.size())) {
    if (sequence.empty()) {
      // No models configured: emit raw segments directly.
      MODELARDB_RETURN_NOT_OK(EmitBest(out));
      continue;
    }
    const BufferedRow& row = buffer_[rows_fed_];
    if (current_model_->Append(row.values.data())) {
      ++rows_fed_;
      continue;
    }
    // The model can fit no more rows: snapshot it as a candidate and move
    // to the next model, which replays the buffer from the start (§3.2).
    int accepted = current_model_->length();
    candidates_.push_back(Candidate{std::move(current_model_), accepted});
    ++sequence_index_;
    if (sequence_index_ >= sequence.size()) {
      MODELARDB_RETURN_NOT_OK(EmitBest(out));
    } else {
      MODELARDB_RETURN_NOT_OK(EnsureCurrentModel());
      rows_fed_ = 0;
    }
  }
  return Status::OK();
}

Status SegmentGenerator::EmitBest(std::vector<Segment>* out) {
  // Gather every tried model plus the one currently being fitted.
  struct Choice {
    Model* model;
    int length;
  };
  std::vector<Choice> choices;
  for (const Candidate& c : candidates_) {
    if (c.length > 0) choices.push_back({c.model.get(), c.length});
  }
  if (current_model_ && current_model_->length() > 0) {
    choices.push_back({current_model_.get(), current_model_->length()});
  }

  // Best compression ratio: bytes of raw data points represented per byte
  // of segment (§3.2 step iii).
  const double bytes_per_row =
      static_cast<double>(active_count_) * sizeof(Value);
  Model* best = nullptr;
  int best_length = 0;
  double best_ratio = -1.0;
  for (const Choice& c : choices) {
    double segment_bytes = static_cast<double>(Segment::kHeaderBytes) +
                           static_cast<double>(c.model->ParameterSizeBytes());
    double ratio = (c.length * bytes_per_row) / segment_bytes;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best = c.model;
      best_length = c.length;
    }
  }

  Mid mid;
  int length;
  std::vector<uint8_t> params;
  if (best == nullptr) {
    // Nothing could represent even the first row (possible with exotic
    // user-defined sequences): fall back to a raw segment so ingestion
    // always progresses.
    ModelConfig raw_config;
    raw_config.num_series = active_count_;
    raw_config.error_bound = config_.error_bound;
    // When no fitting sequence exists at all, batch raw rows; otherwise
    // take one row so the real models get to retry immediately after.
    raw_config.length_limit =
        config_.registry->fitting_sequence().empty() ? config_.length_limit : 1;
    RawFallbackModel raw(raw_config);
    int raw_rows = std::min<int>(raw_config.length_limit,
                                 static_cast<int>(buffer_.size()));
    for (int i = 0; i < raw_rows; ++i) raw.Append(buffer_[i].values.data());
    mid = raw.mid();
    length = raw.length();
    params = raw.SerializeParameters(length);
  } else {
    mid = best->mid();
    length = best_length;
    params = best->SerializeParameters(length);
    // Decode and verify every reconstructed value against the originals;
    // trim the segment at the first violation (safety net for float
    // rounding and user-defined models).
    auto decoder_result =
        config_.registry->CreateDecoder(mid, params, active_count_, length);
    if (!decoder_result.ok()) return decoder_result.status();
    const SegmentDecoder& decoder = **decoder_result;
    int verified = 0;
    for (int r = 0; r < length; ++r) {
      bool row_ok = true;
      for (int j = 0; j < active_count_; ++j) {
        if (!config_.error_bound.Within(decoder.ValueAt(r, j),
                                        buffer_[r].values[j])) {
          row_ok = false;
          break;
        }
      }
      if (!row_ok) break;
      ++verified;
    }
    if (verified == 0) {
      // The chosen model is unusable; retry with the raw fallback.
      ModelConfig raw_config;
      raw_config.num_series = active_count_;
      raw_config.error_bound = config_.error_bound;
      raw_config.length_limit = 1;
      RawFallbackModel raw(raw_config);
      raw.Append(buffer_[0].values.data());
      mid = raw.mid();
      length = 1;
      params = raw.SerializeParameters(1);
    } else if (verified < length) {
      length = verified;
      params = best->SerializeParameters(length);
    }
  }

  Segment segment;
  segment.gid = config_.gid;
  segment.start_time = buffer_.front().timestamp;
  segment.end_time = buffer_[length - 1].timestamp;
  segment.si = config_.si;
  segment.gap_mask = gap_mask_;
  segment.mid = mid;
  segment.parameters = std::move(params);
  // Value statistics over the represented window (from the original
  // buffered values, so they are exact even under a lossy bound).
  segment.min_value = buffer_.front().values.front();
  segment.max_value = segment.min_value;
  for (int r = 0; r < length; ++r) {
    for (Value v : buffer_[r].values) {
      segment.min_value = std::min(segment.min_value, v);
      segment.max_value = std::max(segment.max_value, v);
    }
  }
  segment.error_bound_pct = static_cast<float>(
      config_.error_bound.is_absolute() ? 0.0 : config_.error_bound.percent());

  ++stats_.segments_emitted;
  stats_.bytes_emitted += static_cast<int64_t>(segment.StorageBytes());
  stats_.segments_per_model[mid] += 1;
  stats_.values_per_model[mid] +=
      static_cast<int64_t>(length) * active_count_;
  out->push_back(std::move(segment));

  buffer_.erase(buffer_.begin(), buffer_.begin() + length);
  return RestartFitting();
}

Status SegmentGenerator::Flush(std::vector<Segment>* out) {
  while (!buffer_.empty()) {
    MODELARDB_RETURN_NOT_OK(Advance(out));
    if (buffer_.empty()) break;
    MODELARDB_RETURN_NOT_OK(EmitBest(out));
  }
  window_open_ = false;
  return Status::OK();
}

}  // namespace modelardb
