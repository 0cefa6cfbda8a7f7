// Fundamental identifiers and value types (paper §2, Definitions 1-3, 8).

#ifndef MODELARDB_CORE_TYPES_H_
#define MODELARDB_CORE_TYPES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/time_util.h"

namespace modelardb {

// Non-owning view of encoded bytes. Decode entry points take a ByteSpan so
// the zero-copy slab path can hand out borrowed slices of the mmap region;
// std::vector<uint8_t> converts implicitly, so owned buffers keep working.
// Borrowed spans are only valid while the backing mapping is pinned.
using ByteSpan = std::span<const uint8_t>;

// Identifies a single time series. Tids start at 1 (the paper relies on this
// for its array-based dimension hash-join, §6.1).
using Tid = int32_t;

// Identifies a time series group produced by the Partitioner.
using Gid = int32_t;

// Identifies a model type in the model registry (Model table, Fig 6).
using Mid = int32_t;

// Sensor values are 32-bit floats, as in ModelarDB's schema (Fig 6).
using Value = float;

// Sampling interval in milliseconds (§2, Definition 3).
using SamplingInterval = int64_t;

// One (time stamp, value) pair of a specific series (§2, Definition 1).
struct DataPoint {
  Tid tid;
  Timestamp timestamp;
  Value value;

  bool operator==(const DataPoint&) const = default;
};

// The values of every series of a group at one sampling instant. A series
// currently in a gap has present=false (its value slot is ignored); this is
// the ⊥ of Definition 6.
struct GroupRow {
  Timestamp timestamp = 0;
  std::vector<Value> values;    // Indexed by position within the group.
  std::vector<bool> present;    // Same indexing; false marks a gap (⊥).

  // Convenience constructor for fully-present rows.
  GroupRow() = default;
  GroupRow(Timestamp ts, std::vector<Value> vals)
      : timestamp(ts),
        values(std::move(vals)),
        present(values.size(), true) {}

  int PresentCount() const {
    int n = 0;
    for (bool p : present) n += p ? 1 : 0;
    return n;
  }
};

}  // namespace modelardb

#endif  // MODELARDB_CORE_TYPES_H_
