#include "core/models/gorilla.h"

#include <cstring>

namespace modelardb {
namespace {

// Bit widths of the control fields for 32-bit floats. The original Gorilla
// paper compresses 64-bit values with 5 leading-zero bits and 6 length bits;
// ModelarDB stores 32-bit floats, which need 5 bits for leading zeros
// (0-31) and 6 bits for the meaningful-bit count (1-32).
constexpr int kLeadingBits = 5;
constexpr int kLengthBits = 6;

// Bit cursor over the big-endian word array produced by pass 1 of the
// kernel decoder. Field extraction is a couple of shifts instead of
// BitReader's per-byte loop; past-the-end reads zero-fill and latch
// overran(), bit-identical to BitReader.
class WordCursor {
 public:
  WordCursor(const uint64_t* words, size_t size_bits)
      : words_(words), size_bits_(size_bits) {}

  uint64_t Read(int k) {
    if (k <= 0) return 0;
    if (pos_ + static_cast<size_t>(k) > size_bits_) {
      overran_ = true;
      int avail =
          pos_ < size_bits_ ? static_cast<int>(size_bits_ - pos_) : 0;
      uint64_t value = avail > 0 ? ReadInBounds(avail) : 0;
      pos_ += static_cast<size_t>(k - avail);
      // k - avail == 64 only when nothing was read (value is 0); guard
      // it anyway — a 64-bit shift by 64 is UB. Mirrors BitReader.
      return k - avail < 64 ? value << (k - avail) : 0;
    }
    return ReadInBounds(k);
  }

  bool ReadBit() { return Read(1) != 0; }
  bool overran() const { return overran_; }

 private:
  uint64_t ReadInBounds(int k) {
    size_t word = pos_ / 64;
    int offset = static_cast<int>(pos_ % 64);
    uint64_t hi = words_[word] << offset;
    uint64_t value = hi >> (64 - k);
    if (offset + k > 64) {
      value |= words_[word + 1] >> (128 - offset - k);
    }
    pos_ += static_cast<size_t>(k);
    return value;
  }

  const uint64_t* words_;
  size_t size_bits_;
  size_t pos_ = 0;
  bool overran_ = false;
};

}  // namespace

void GorillaEncoder::Append(Value v) {
  uint32_t bits = FloatToBits(v);
  if (first_) {
    writer_.WriteBits(bits, 32);
    previous_ = bits;
    first_ = false;
    return;
  }
  uint32_t x = bits ^ previous_;
  previous_ = bits;
  if (x == 0) {
    writer_.WriteBit(false);
    return;
  }
  int leading = CountLeadingZeros64(x) - 32;  // Leading zeros of the u32.
  int trailing = CountTrailingZeros64(x);
  if (leading > 31) leading = 31;
  if (prev_leading_ >= 0 && leading >= prev_leading_ &&
      trailing >= prev_trailing_) {
    // Control '10': reuse the previous meaningful-bit window.
    writer_.WriteBits(0b10, 2);
    int meaningful = 32 - prev_leading_ - prev_trailing_;
    writer_.WriteBits(x >> prev_trailing_, meaningful);
  } else {
    // Control '11': store a new window.
    writer_.WriteBits(0b11, 2);
    int meaningful = 32 - leading - trailing;
    writer_.WriteBits(static_cast<uint64_t>(leading), kLeadingBits);
    // meaningful is in [1, 32]; store meaningful - 1 in 6 bits.
    writer_.WriteBits(static_cast<uint64_t>(meaningful - 1), kLengthBits);
    writer_.WriteBits(x >> trailing, meaningful);
    prev_leading_ = leading;
    prev_trailing_ = trailing;
  }
}

Result<std::vector<Value>> GorillaDecodeStream(
    ByteSpan bytes, size_t count) {
  // One decoder for every tier: the active kernel table (the scalar table
  // under MODELARDB_FORCE_SCALAR=1) drives the two-pass decoder.
  return GorillaDecodeStreamWithKernels(bytes, count, simd::Active());
}

Result<std::vector<Value>> GorillaDecodeStreamScalar(
    ByteSpan bytes, size_t count) {
  std::vector<Value> out;
  out.reserve(count);
  BitReader reader(bytes);
  uint32_t previous = 0;
  int prev_leading = 0;
  int prev_trailing = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i == 0) {
      previous = static_cast<uint32_t>(reader.ReadBits(32));
      out.push_back(BitsToFloat(previous));
      continue;
    }
    if (!reader.ReadBit()) {
      out.push_back(BitsToFloat(previous));
      continue;
    }
    if (reader.ReadBit()) {
      // '11': new window.
      prev_leading = static_cast<int>(reader.ReadBits(kLeadingBits));
      int meaningful = static_cast<int>(reader.ReadBits(kLengthBits)) + 1;
      prev_trailing = 32 - prev_leading - meaningful;
      if (prev_trailing < 0) {
        return Status::Corruption("gorilla: invalid bit window");
      }
      uint32_t x = static_cast<uint32_t>(reader.ReadBits(meaningful))
                   << prev_trailing;
      previous ^= x;
    } else {
      // '10': previous window.
      int meaningful = 32 - prev_leading - prev_trailing;
      uint32_t x = static_cast<uint32_t>(reader.ReadBits(meaningful))
                   << prev_trailing;
      previous ^= x;
    }
    out.push_back(BitsToFloat(previous));
  }
  if (reader.overran()) {
    return Status::Corruption("gorilla: truncated stream");
  }
  simd::NoteValuesDecoded(count);
  return out;
}

Result<std::vector<Value>> GorillaDecodeStreamWithKernels(
    ByteSpan bytes, size_t count,
    const simd::Kernels& kernels) {
  // Pass 1: gulp the byte stream into big-endian uint64 words (the
  // ReadBitsBulk fast path) and parse the control fields into the XOR
  // deltas. The parse is branchy but touches words, not bits.
  const size_t size_bits = bytes.size() * 8;
  std::vector<uint64_t> words((size_bits + 63) / 64);
  BitReader reader(bytes);
  reader.ReadBitsBulk(64, words.size(), words.data());
  WordCursor cursor(words.data(), size_bits);

  std::vector<uint32_t> deltas(count);
  int prev_leading = 0;
  int prev_trailing = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i == 0) {
      deltas[0] = static_cast<uint32_t>(cursor.Read(32));
      continue;
    }
    if (!cursor.ReadBit()) {
      deltas[i] = 0;
      continue;
    }
    if (cursor.ReadBit()) {
      // '11': new window.
      prev_leading = static_cast<int>(cursor.Read(kLeadingBits));
      int meaningful = static_cast<int>(cursor.Read(kLengthBits)) + 1;
      prev_trailing = 32 - prev_leading - meaningful;
      if (prev_trailing < 0) {
        return Status::Corruption("gorilla: invalid bit window");
      }
      deltas[i] = static_cast<uint32_t>(cursor.Read(meaningful))
                  << prev_trailing;
    } else {
      // '10': previous window.
      int meaningful = 32 - prev_leading - prev_trailing;
      deltas[i] = static_cast<uint32_t>(cursor.Read(meaningful))
                  << prev_trailing;
    }
  }
  if (cursor.overran()) {
    return Status::Corruption("gorilla: truncated stream");
  }

  // Pass 2: one prefix-XOR sweep turns the deltas into the value bits;
  // the array is then memcpy'd into floats (exactly BitsToFloat per
  // element, without the per-element call).
  kernels.xor_prefix32(deltas.data(), count, 0);
  std::vector<Value> out(count);
  static_assert(sizeof(Value) == sizeof(uint32_t),
                "Gorilla decodes 32-bit floats");
  if (count > 0) {
    std::memcpy(out.data(), deltas.data(), count * sizeof(Value));
  }
  simd::NoteValuesDecoded(count);
  return out;
}

GorillaModel::GorillaModel(const ModelConfig& config) : config_(config) {
  raw_.reserve(static_cast<size_t>(config.length_limit) * config.num_series);
}

std::unique_ptr<Model> GorillaModel::Create(const ModelConfig& config) {
  return std::make_unique<GorillaModel>(config);
}

bool GorillaModel::Append(const Value* values) {
  if (length_ >= config_.length_limit) return false;
  for (int i = 0; i < config_.num_series; ++i) {
    encoder_.Append(values[i]);
    raw_.push_back(values[i]);
  }
  ++length_;
  return true;
}

std::vector<uint8_t> GorillaModel::SerializeParameters(
    int prefix_length) const {
  // Re-encode the prefix from the raw copy; the incremental encoder only
  // serves O(1) size queries during fitting.
  GorillaEncoder encoder;
  size_t n = static_cast<size_t>(prefix_length) * config_.num_series;
  for (size_t i = 0; i < n; ++i) encoder.Append(raw_[i]);
  return encoder.Finish();
}

void GorillaModel::Reset() {
  length_ = 0;
  encoder_ = GorillaEncoder();
  raw_.clear();
}

Result<std::unique_ptr<SegmentDecoder>> GorillaModel::Decode(
    ByteSpan params, int num_series, int length) {
  MODELARDB_ASSIGN_OR_RETURN(
      std::vector<Value> grid,
      GorillaDecodeStream(params,
                          static_cast<size_t>(num_series) * length));
  return std::unique_ptr<SegmentDecoder>(
      new GorillaDecoder(std::move(grid), num_series, length));
}

}  // namespace modelardb
