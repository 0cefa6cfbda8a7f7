// Gorilla lossless floating-point compression (Pelkonen et al., VLDB 2015)
// extended for group compression (paper §5.2): the values of all series are
// XOR-chained in time-ordered blocks, so at each sampling instant the n-1
// values after the first differ only slightly from it and encode in few
// bits when the group is correlated.

#ifndef MODELARDB_CORE_MODELS_GORILLA_H_
#define MODELARDB_CORE_MODELS_GORILLA_H_

#include <cstring>
#include <memory>
#include <vector>

#include "core/model.h"
#include "util/bits.h"
#include "util/simd/kernels.h"

namespace modelardb {

// Streaming XOR encoder for a sequence of floats (shared by the model and
// the TSM/columnar baselines).
class GorillaEncoder {
 public:
  void Append(Value v);
  size_t bit_count() const { return writer_.bit_count(); }
  size_t SizeBytes() const { return writer_.SizeBytes(); }
  std::vector<uint8_t> Finish() { return writer_.Finish(); }

 private:
  BitWriter writer_;
  bool first_ = true;
  uint32_t previous_ = 0;
  int prev_leading_ = -1;  // <0: no reusable window yet.
  int prev_trailing_ = 0;
};

// Decodes a stream produced by GorillaEncoder. `count` values are read.
// Runs GorillaDecodeStreamWithKernels on the active kernel table
// (DESIGN.md §3f); a stream too short to hold `count` values is
// Corruption ("truncated stream"), distinguished from legitimate trailing
// zero bits by overrun tracking.
Result<std::vector<Value>> GorillaDecodeStream(
    ByteSpan bytes, size_t count);

// The portable one-pass reference decoder (bit-at-a-time BitReader walk):
// not on the production path, it is the baseline the parity tests,
// storage_corruption_test and bench_decode_kernels compare against.
Result<std::vector<Value>> GorillaDecodeStreamScalar(
    ByteSpan bytes, size_t count);

// The two-pass kernel decoder: pass 1 gulps the stream into big-endian
// words via BitReader::ReadBitsBulk and parses the control fields into an
// XOR-delta array; pass 2 reconstructs all values with one
// kernels.xor_prefix32 sweep. Byte-identical to the scalar reference for
// every input (integer-only operations); exposed with an explicit kernel
// table so tests can pin a tier regardless of dispatch.
Result<std::vector<Value>> GorillaDecodeStreamWithKernels(
    ByteSpan bytes, size_t count,
    const simd::Kernels& kernels);

class GorillaModel : public Model {
 public:
  explicit GorillaModel(const ModelConfig& config);

  Mid mid() const override { return kMidGorilla; }
  const char* name() const override { return "Gorilla"; }
  // Always accepts until the length limit: the encoding is lossless.
  bool Append(const Value* values) override;
  int length() const override { return length_; }
  size_t ParameterSizeBytes() const override { return encoder_.SizeBytes(); }
  std::vector<uint8_t> SerializeParameters(int prefix_length) const override;
  void Reset() override;

  static std::unique_ptr<Model> Create(const ModelConfig& config);
  static Result<std::unique_ptr<SegmentDecoder>> Decode(
      ByteSpan params, int num_series, int length);

 private:
  ModelConfig config_;
  int length_ = 0;
  GorillaEncoder encoder_;       // Incremental, for O(1) size queries.
  std::vector<Value> raw_;       // Row-major copy for prefix serialization.
};

// Materializes the decoded grid; aggregates scan (no closed form exists for
// lossless data).
class GorillaDecoder : public SegmentDecoder {
 public:
  GorillaDecoder(std::vector<Value> grid, int num_series, int length)
      : grid_(std::move(grid)), num_series_(num_series), length_(length) {}

  int num_series() const override { return num_series_; }
  int length() const override { return length_; }
  Value ValueAt(int row, int col) const override {
    return grid_[static_cast<size_t>(row) * num_series_ + col];
  }
  // The grid is contiguous for single-series segments, so the span folds
  // get a straight memcpy instead of the ValueAt-per-row default.
  void CopyColumn(int from_row, int to_row, int col,
                  Value* out) const override {
    size_t n = static_cast<size_t>(to_row - from_row + 1);
    if (num_series_ == 1) {
      std::memcpy(out, grid_.data() + from_row, n * sizeof(Value));
      return;
    }
    const Value* in =
        grid_.data() + static_cast<size_t>(from_row) * num_series_ + col;
    for (size_t i = 0; i < n; ++i, in += num_series_) out[i] = *in;
  }

 private:
  std::vector<Value> grid_;
  int num_series_;
  int length_;
};

}  // namespace modelardb

#endif  // MODELARDB_CORE_MODELS_GORILLA_H_
