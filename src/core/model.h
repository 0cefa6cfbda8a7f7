// The group-aware model interface of Multi-Model Group Compression (MMGC).
//
// A model (paper §2 Definition 4, §5) represents the values of *all* series
// of a time series group over a window of consecutive sampling instants,
// within a user-defined error bound. Models are black boxes behind this
// interface (§3.2): ModelarDB++ ships PMC-Mean, Swing and Gorilla extended
// for group compression (§5.2), and users can register additional models at
// runtime through ModelRegistry without recompiling the library.

#ifndef MODELARDB_CORE_MODEL_H_
#define MODELARDB_CORE_MODEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/error_bound.h"
#include "core/types.h"
#include "util/status.h"

namespace modelardb {

// Configuration handed to a model when fitting starts.
struct ModelConfig {
  int num_series = 1;            // Series in the group segment being built.
  ErrorBound error_bound = ErrorBound::Lossless();
  int length_limit = 50;         // Max sampling instants per model (Table 1).
};

// An online model being fitted during ingestion. Timestamps are implicit:
// the i-th accepted row is at start_time + i * SI (gaps never reach a model;
// the SegmentGenerator starts a new segment instead, §3.2).
class Model {
 public:
  virtual ~Model() = default;

  // Model-type id as stored in the Model table (Fig 6).
  virtual Mid mid() const = 0;
  virtual const char* name() const = 0;

  // Tries to extend the model to also represent `values[0..num_series)` at
  // the next sampling instant. Returns false when the model can no longer
  // stay within the error bound (or hit its length limit); the model then
  // still represents exactly the rows accepted so far.
  virtual bool Append(const Value* values) = 0;

  // Number of sampling instants represented so far.
  virtual int length() const = 0;

  // Size in bytes of SerializeParameters(length()). Kept O(1) so the
  // generator can compare compression ratios cheaply.
  virtual size_t ParameterSizeBytes() const = 0;

  // Serializes the parameters representing the first `prefix_length` rows
  // (1 <= prefix_length <= length()). All bundled models support prefix
  // serialization because the multi-model-per-segment scheme (§5.1, case
  // III) and best-candidate selection both shorten models after fitting.
  virtual std::vector<uint8_t> SerializeParameters(int prefix_length) const = 0;

  // Clears all state so fitting can restart.
  virtual void Reset() = 0;
};

// Per-series aggregate summary over a row range of a decoded segment.
struct AggregateSummary {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t count = 0;
};

// Read-side counterpart of Model: reconstructs values (and computes
// aggregates, in constant time where the model type allows, §6.1) from
// serialized parameters.
class SegmentDecoder {
 public:
  virtual ~SegmentDecoder() = default;

  virtual int num_series() const = 0;
  virtual int length() const = 0;

  // Reconstructed value of series `col` (position in group order) at row
  // `row` (0-based sampling instant within the segment).
  virtual Value ValueAt(int row, int col) const = 0;

  // Copies the reconstructed values of series `col` over rows
  // [from_row, to_row] into out[0..to_row - from_row]. The default walks
  // ValueAt; decoders whose storage is contiguous (Gorilla) override with
  // memcpy/strided copies. This is the contiguous-span contract the
  // query-engine fold kernels rely on (DESIGN.md §3f).
  virtual void CopyColumn(int from_row, int to_row, int col,
                          Value* out) const;

  // Aggregates series `col` over rows [from_row, to_row] (inclusive).
  // The default folds CopyColumn spans through the dispatched SIMD
  // kernels; constant/linear models override with O(1) closed forms,
  // which is what makes aggregate queries on models fast.
  virtual AggregateSummary AggregateRange(int from_row, int to_row,
                                          int col) const;

  // AggregateRange with each value divided by `scaling` before it enters
  // the reduction tree — the Data Point View fold, where predicates and
  // aggregates see raw (de-scaled) values per point (§6.1). Not virtual:
  // always the canonical kernel fold over CopyColumn spans, so results
  // are byte-identical at any parallelism and any kernel tier.
  AggregateSummary AggregateRangeScaled(int from_row, int to_row, int col,
                                        double scaling) const;

  // True when AggregateRange runs in O(1) (used by tests and EXPLAIN output).
  virtual bool HasConstantTimeAggregates() const { return false; }
};

using ModelFactory =
    std::function<std::unique_ptr<Model>(const ModelConfig&)>;
// Decoders take a non-owning view: the zero-copy slab path hands decoders
// slices of the mapped file directly (pinned for the decoder's lifetime),
// and owned vectors convert implicitly. A decoder that must retain the
// parameter bytes beyond construction copies what it needs.
using DecoderFactory = std::function<Result<std::unique_ptr<SegmentDecoder>>(
    ByteSpan params, int num_series, int length)>;

// Well-known Mids of the bundled models. User models must use Mids >= 100.
inline constexpr Mid kMidPmcMean = 1;
inline constexpr Mid kMidSwing = 2;
inline constexpr Mid kMidGorilla = 3;
inline constexpr Mid kMidRawFallback = 4;
inline constexpr Mid kMinUserMid = 100;

// Registry mapping Mids to model/decoder factories. This is the paper's
// extension API (§3.1): registering a model makes it usable for both
// ingestion and querying without recompiling ModelarDB++ Core.
class ModelRegistry {
 public:
  // Registry with PMC-Mean, Swing, Gorilla and the raw fallback, in the
  // fitting order PMC -> Swing -> Gorilla used throughout the paper.
  static ModelRegistry Default();

  // Registry with no fitting sequence (decode-only registries still know
  // the bundled decoders, Mids 1-4).
  ModelRegistry();

  // Registers a model type. `in_fitting_sequence` controls whether the
  // SegmentGenerator tries the model during ingestion (decoder-only
  // registrations support reading foreign data).
  Status RegisterModel(Mid mid, std::string name, ModelFactory model_factory,
                       DecoderFactory decoder_factory,
                       bool in_fitting_sequence = true);

  // The ordered fitting sequence (paper §3.2 step ii tries these in order).
  const std::vector<Mid>& fitting_sequence() const {
    return fitting_sequence_;
  }

  Result<std::unique_ptr<Model>> CreateModel(Mid mid,
                                             const ModelConfig& config) const;
  Result<std::unique_ptr<SegmentDecoder>> CreateDecoder(
      Mid mid, ByteSpan params, int num_series, int length) const;

  Result<std::string> ModelName(Mid mid) const;
  bool Contains(Mid mid) const { return entries_.count(mid) > 0; }

 private:
  struct Entry {
    std::string name;
    ModelFactory model_factory;
    DecoderFactory decoder_factory;
  };

  std::map<Mid, Entry> entries_;
  std::vector<Mid> fitting_sequence_;
};

}  // namespace modelardb

#endif  // MODELARDB_CORE_MODEL_H_
