// Env: the file-I/O boundary between the storage layer and the operating
// system. Every byte the stores persist flows through an Env, so durability
// semantics live in exactly one place — and tests/the crash harness can
// substitute a FaultInjectionEnv (util/fault_env.h) to fail, short-write or
// drop syscalls deterministically without touching store code.
//
// The contract mirrors what the storage engine actually needs and nothing
// more: append-only logs with explicit Append/Sync/Close Status results
// (an `ofstream` that "looks good" proves nothing about the disk), whole-
// file reads for replay, truncation for torn-tail repair, and — for the
// mmap slab layer (storage/slab_file.h) — positional-write files plus
// read-only memory mappings. Sync() is a real barrier: on return-OK the
// preceding writes have been handed to the device (fdatasync), which is
// the acknowledgement boundary crash recovery verifies against.

#ifndef MODELARDB_UTIL_ENV_H_
#define MODELARDB_UTIL_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace modelardb {

// An append-only log file. Not thread-safe: callers serialize access (the
// stores append under their own mutex).
class WritableLog {
 public:
  virtual ~WritableLog() = default;

  // Appends `size` bytes at the end of the file. On a non-OK return the
  // file tail is undefined (a short write may have landed), so callers
  // must stop appending to the file — recovery salvages up to the last
  // fully synced block.
  virtual Status Append(const uint8_t* data, size_t size) = 0;

  // Durability barrier: OK means every byte appended so far has been
  // flushed through the OS to the device (fdatasync semantics).
  virtual Status Sync() = 0;

  // Closes the file. Does NOT imply Sync.
  virtual Status Close() = 0;
};

// A positional-write file (pwrite semantics): the slab layer writes block
// payloads, tables and root headers at explicit offsets and separates
// "written" from "durable" with an explicit Sync barrier. Writing past the
// current end extends the file (sparse in between). Not thread-safe:
// callers serialize access.
class RandomRWFile {
 public:
  virtual ~RandomRWFile() = default;

  // Writes `size` bytes at `offset`. On a non-OK return the affected byte
  // range is undefined (a short write may have landed).
  virtual Status WriteAt(uint64_t offset, const uint8_t* data,
                         size_t size) = 0;

  // Durability barrier: OK means every WriteAt so far has been flushed
  // through the OS to the device (fdatasync semantics).
  virtual Status Sync() = 0;

  // Closes the file. Does NOT imply Sync.
  virtual Status Close() = 0;
};

// A read-only (or, opt-in, shared-writable) memory mapping of one file.
// The mapping is immutable in extent: growing a file needs a NEW mapping
// (Env::NewMmapFile again); the old object stays valid — and its pages
// stay mapped — until destroyed, which is what the slab layer's pin
// protocol relies on (readers hold a shared_ptr to the mapping they
// scan, so remap-on-grow never invalidates an in-flight morsel).
class MmapFile {
 public:
  virtual ~MmapFile() = default;

  virtual const uint8_t* data() const = 0;
  virtual size_t size() const = 0;

  // msync barrier for writable mappings: flushes dirty pages in
  // [offset, offset + length) to the file. InvalidArgument on read-only
  // mappings (write-through is not how the slab commits; see slab_file).
  virtual Status Sync(size_t offset, size_t length) = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  // The production POSIX environment (process-wide singleton, stateless).
  static Env* Default();

  // Opens `path` for appending, creating it if absent.
  virtual Result<std::unique_ptr<WritableLog>> NewWritableLog(
      const std::string& path) = 0;

  // Opens `path` for positional writes, creating it if absent.
  virtual Result<std::unique_ptr<RandomRWFile>> NewRandomRWFile(
      const std::string& path) = 0;

  // Memory-maps the current extent of `path`. Empty files yield a valid
  // zero-length mapping. `writable` maps MAP_SHARED with PROT_WRITE so
  // MmapFile::Sync (msync) works; the slab layer itself maps read-only.
  virtual Result<std::unique_ptr<MmapFile>> NewMmapFile(
      const std::string& path, bool writable = false) = 0;

  // Reads the whole file into memory (WAL replay reads logs once, forward).
  virtual Result<std::vector<uint8_t>> ReadFileBytes(
      const std::string& path) = 0;

  // Reads [offset, EOF) — the post-checkpoint WAL suffix replay, which is
  // what makes a checkpointed Open cheap. offset past EOF reads empty.
  virtual Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                                     uint64_t offset) = 0;

  virtual Result<int64_t> FileSize(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;

  // Shrinks `path` to `size` bytes (torn-tail repair after salvage).
  virtual Status TruncateFile(const std::string& path, int64_t size) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
};

}  // namespace modelardb

#endif  // MODELARDB_UTIL_ENV_H_
