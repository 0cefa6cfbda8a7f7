// SegmentGenerator: the online ingestion state machine of §3.2.
//
// Per sampling interval the generator receives one row with the values of
// the group's series (some possibly absent, i.e. in a gap). It fits the
// registry's models to the buffered rows in sequence; when the last model
// can fit no more rows, the snapshot with the best compression ratio is
// emitted as a segment, the represented rows are dropped, and fitting
// restarts (§3.2 steps i-iv). Any change in which series are present ends
// the current segment and starts one whose Gaps mask lists the absent
// series (§3.2, Fig 5).
//
// Before a segment is emitted the generator decodes it and verifies every
// reconstructed value against the buffered originals, trimming the segment
// at the first violation. This makes the error-bound invariant hold
// unconditionally, including for user-defined models and for float-rounding
// edge cases at tight bounds.

#ifndef MODELARDB_CORE_SEGMENT_GENERATOR_H_
#define MODELARDB_CORE_SEGMENT_GENERATOR_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/model.h"
#include "core/segment.h"
#include "core/types.h"
#include "util/status.h"

namespace modelardb {

struct SegmentGeneratorConfig {
  Gid gid = 0;
  SamplingInterval si = 1000;
  int num_series = 1;  // Size of the full group (max 64: Gaps is a bitmask).
  ErrorBound error_bound = ErrorBound::Lossless();
  int length_limit = 50;              // Model Length Limit (Table 1).
  const ModelRegistry* registry = nullptr;  // Must outlive the generator.
};

// Counters for the evaluation (Figs 16-17 report model usage).
struct IngestStats {
  int64_t rows_ingested = 0;          // Sampling instants received.
  int64_t values_ingested = 0;        // Individual data points received.
  int64_t segments_emitted = 0;
  int64_t bytes_emitted = 0;          // Sum of Segment::StorageBytes().
  std::map<Mid, int64_t> segments_per_model;
  std::map<Mid, int64_t> values_per_model;  // Data points represented.
};

class SegmentGenerator {
 public:
  // `tids` lists the group members; position i of every row and of the
  // Gaps bitmask refers to tids[i].
  SegmentGenerator(const SegmentGeneratorConfig& config,
                   std::vector<Tid> tids);

  SegmentGenerator(const SegmentGenerator&) = delete;
  SegmentGenerator& operator=(const SegmentGenerator&) = delete;

  // Ingests the row for one sampling instant. Emitted segments (possibly
  // none) are appended to `out`.
  Status Ingest(const GroupRow& row, std::vector<Segment>* out);

  // Emits segments for all still-buffered rows (end of stream or a forced
  // cut, e.g. before a dynamic split).
  Status Flush(std::vector<Segment>* out);

  const IngestStats& stats() const { return stats_; }
  const std::vector<Tid>& tids() const { return tids_; }
  const SegmentGeneratorConfig& config() const { return config_; }

  // Rows currently buffered (not yet covered by an emitted segment).
  int64_t BufferedRows() const { return static_cast<int64_t>(buffer_.size()); }

  // Series present in the current window (0 when no window is open).
  int ActiveSeriesCount() const { return window_open_ ? active_count_ : 0; }

  // Buffered values of the series at group position `pos`, oldest first.
  // Empty when the series is absent from the current window. Used by the
  // dynamic split/join heuristics (Algorithms 3-4), which compare buffered
  // data points across series.
  std::vector<Value> BufferedValues(int pos) const;
  std::vector<Timestamp> BufferedTimestamps() const;

 private:
  struct BufferedRow {
    Timestamp timestamp;
    std::vector<Value> values;  // Only the active series, in position order.
  };

  // Positions (into tids_) of the currently active (non-gap) series.
  std::vector<int> ActivePositions() const;

  // Feeds buffered rows to the model sequence; may emit segments.
  Status Advance(std::vector<Segment>* out);

  // Chooses the best candidate, verifies it, emits a segment covering a
  // prefix of the buffer and restarts fitting on the remainder.
  Status EmitBest(std::vector<Segment>* out);

  // Restarts the fitting pipeline (fresh first model, empty candidates).
  Status RestartFitting();

  Status EnsureCurrentModel();

  uint64_t GapMaskFromRow(const GroupRow& row) const;

  SegmentGeneratorConfig config_;
  std::vector<Tid> tids_;

  std::deque<BufferedRow> buffer_;
  uint64_t gap_mask_ = 0;           // Bit i set: tids_[i] absent this window.
  int active_count_ = 0;            // Series present in the current window.
  bool window_open_ = false;        // True once a row has been buffered.
  Timestamp last_timestamp_ = 0;

  // Fitting pipeline state.
  size_t sequence_index_ = 0;                  // Into registry fitting seq.
  std::unique_ptr<Model> current_model_;
  int rows_fed_ = 0;                            // Buffer rows consumed.
  struct Candidate {
    std::unique_ptr<Model> model;
    int length;
  };
  std::vector<Candidate> candidates_;

  IngestStats stats_;
};

}  // namespace modelardb

#endif  // MODELARDB_CORE_SEGMENT_GENERATOR_H_
