// The write-ahead-log block format shared by every store (DESIGN.md §3g).
//
// v2 block (what writers emit):
//
//   +---------+---------+---------+------------------+
//   | magic   | length  | crc32c  | payload          |
//   | "MDB2"  | u32 LE  | u32 LE  | `length` bytes   |
//   +---------+---------+---------+------------------+
//
// The CRC covers magic+length+payload (everything but the CRC field
// itself), so a bit flip anywhere in the block — including its header — is
// detected. A block in the unchecksummed v1 format ("MDBS" + length) is
// refused with Status::NotImplemented naming the format, never salvaged.
//
// Reading classifies damage by *where* it sits:
//
//   torn tail  — the damaged region extends to end-of-file with no valid
//                block after it: the artifact of a crash mid-append.
//                ReadWalBlocks returns the valid prefix and reports the
//                tail so the caller can quarantine + truncate it; Open
//                succeeds (graceful degradation).
//   interior   — a valid block exists after the damage: the file did not
//                just stop, it rotted. That is real corruption and
//                replaying past it would serve wrong data, so the read
//                fails with Status::Corruption.
//
// WalWriter appends v2 blocks with group commit: a block is buffered into
// the file with one Append and made durable by Sync according to the
// policy (every block / every N blocks / never — callers force with
// Sync()). After any append or sync error the writer poisons itself: the
// file tail is undefined, and appending more blocks after a torn one would
// turn a salvageable tail into interior corruption.

#ifndef MODELARDB_STORAGE_WAL_H_
#define MODELARDB_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/status.h"

namespace modelardb {

inline constexpr uint32_t kWalMagicV1 = 0x4d444253;  // "MDBS": refused.
inline constexpr uint32_t kWalMagicV2 = 0x3242444d;  // "MDB2" LE.
inline constexpr size_t kWalHeaderV2 = 12;           // magic + length + crc.

// When WalWriter::AppendBlock actually issues the fdatasync.
enum class WalSyncPolicy {
  kEveryBlock,    // Durable before AppendBlock returns (default).
  kEveryNBlocks,  // Group commit: one fsync amortized over N blocks.
  kNone,          // Only explicit Sync() / Close() sync.
};

struct WalWriterOptions {
  WalSyncPolicy sync_policy = WalSyncPolicy::kEveryBlock;
  size_t sync_every_n_blocks = 8;  // Only for kEveryNBlocks.
};

// Serializes `payload` as a v2 block into `out` (appended).
void EncodeWalBlockV2(const uint8_t* payload, size_t size,
                      std::vector<uint8_t>* out);

// One parsed block of a log file; payload points into the caller's buffer.
struct WalBlockRef {
  size_t offset = 0;          // Block start within the file.
  size_t payload_offset = 0;  // Payload start within the file.
  uint32_t payload_size = 0;
};

struct WalReadResult {
  std::vector<WalBlockRef> blocks;  // The valid prefix, in file order.
  size_t valid_bytes = 0;  // End of the last valid block (== size if clean).
  bool torn_tail = false;  // Bytes past valid_bytes are crash debris.
  std::string torn_reason;
};

// Parses `data[0, size)` as a sequence of v2 blocks. Damage with a valid
// block after it returns Status::Corruption; damage extending to EOF
// returns OK with torn_tail set (see the file comment); a v1 block returns
// Status::NotImplemented. Never throws, never crashes on arbitrary bytes —
// the fuzz target.
Result<WalReadResult> ReadWalBlocks(const uint8_t* data, size_t size,
                                    const std::string& path_for_errors);

// Append-side of the WAL. Not thread-safe: callers serialize (the stores
// append under their own mutex).
class WalWriter {
 public:
  // Opens `path` for appending through `env`.
  static Result<std::unique_ptr<WalWriter>> Open(Env* env, std::string path,
                                                 WalWriterOptions options);

  // Appends one v2 block and syncs per policy. On OK under kEveryBlock the
  // block is durable; under the other policies it is durable after the
  // next Sync() that returns OK.
  Status AppendBlock(const uint8_t* payload, size_t size);

  // Forces the durability barrier for every block appended so far.
  Status Sync();

  // Syncs pending blocks, then closes the file.
  Status Close();

  int64_t blocks_appended() const { return blocks_appended_; }
  int64_t bytes_appended() const { return bytes_appended_; }

 private:
  WalWriter(std::unique_ptr<WritableLog> log, std::string path,
            WalWriterOptions options);

  Status SyncInternal();

  std::unique_ptr<WritableLog> log_;
  std::string path_;
  WalWriterOptions options_;
  std::vector<uint8_t> scratch_;  // Reused block-encoding buffer.
  size_t unsynced_blocks_ = 0;
  int64_t blocks_appended_ = 0;
  int64_t bytes_appended_ = 0;
  bool poisoned_ = false;
};

}  // namespace modelardb

#endif  // MODELARDB_STORAGE_WAL_H_
