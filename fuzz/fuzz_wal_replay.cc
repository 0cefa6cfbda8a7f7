// libFuzzer harness for the WAL reader (tools/ci.sh "fuzz smoke" stage).
//
// ReadWalBlocks is the recovery entry point: after a crash it consumes
// whatever bytes the disk happens to hold, so it must classify arbitrary
// input as {clean, torn tail, interior corruption, refused v1 format}
// without ever crashing, over-reading, or looping. The harness
// additionally deserializes every payload the reader accepts exactly the
// way SegmentStore::ReplayLog does (varint count + Segment::Deserialize),
// so a block whose CRC validates but whose payload trips the decoder is
// exercised too. Build with
//   cmake -B build-fuzz -DCMAKE_CXX_COMPILER=clang++ -DMODELARDB_FUZZ=ON
//   ./build-fuzz/fuzz/fuzz_wal_replay fuzz/corpus_wal -max_total_time=30
// The seed corpus under fuzz/corpus_wal/ holds real v2 and torn logs, and
// v1 logs the reader must refuse.

#include <cstddef>
#include <cstdint>

#include "core/segment.h"
#include "storage/wal.h"
#include "util/buffer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace modelardb;

  Result<WalReadResult> result = ReadWalBlocks(data, size, "fuzz.log");
  if (!result.ok()) {
    volatile size_t sink = result.status().message().size();
    (void)sink;
    return 0;
  }

  // Invariants the recovery path relies on.
  if (result->valid_bytes > size) __builtin_trap();
  size_t previous_end = 0;
  for (const WalBlockRef& block : result->blocks) {
    if (block.offset != previous_end) __builtin_trap();
    if (block.payload_offset + block.payload_size > result->valid_bytes) {
      __builtin_trap();
    }
    previous_end = block.payload_offset + block.payload_size;

    // Replay the payload like SegmentStore does; failures are Status
    // results, never crashes.
    BufferReader reader(data + block.payload_offset, block.payload_size);
    Result<uint64_t> count = reader.ReadVarint();
    if (!count.ok()) continue;
    for (uint64_t i = 0; i < *count && i < 4096; ++i) {
      Result<Segment> segment = Segment::Deserialize(&reader);
      if (!segment.ok()) break;
      volatile int64_t sink = segment->Length();
      (void)sink;
    }
  }
  if (previous_end != result->valid_bytes) __builtin_trap();
  return 0;
}
