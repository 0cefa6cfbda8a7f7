// Flight recorder: a lock-free bounded ring of structured events
// (DESIGN.md §3i).
//
// Metrics say *how many* flushes and checkpoints happened; the event ring
// says *when*, in what order, and how long each one took — the last few
// thousand interesting moments of the process, cheap enough to leave on in
// production and readable from a fatal-signal handler. Storage, WAL,
// ingest and pool code call Record() at the moments that matter (flush,
// checkpoint phases, WAL sync, recovery, quarantine, COW rebuild, pool
// saturation, slow query); the bundle writer (obs/bundle.h) and the
// watchdog (obs/watchdog.h) read it back.
//
// Concurrency contract: Record() takes one relaxed ticket fetch_add, claims
// the ticket's slot by CAS on a per-slot seqlock (odd = mid-write) and
// stores the payload with relaxed atomics. Only one writer stores into a
// slot at a time, and a slot never goes back to an older ticket: a writer
// waits only while an older writer (lapped by a whole ring) is mid-write
// in its slot, and drops its record when a newer ticket already holds it.
// Snapshot() validates each slot's sequence before and after copying and
// drops records that changed mid-copy, so readers never block writers and
// never observe a torn record as stable. Every field is an atomic, so the
// ring is exactly as safe to read from a signal handler as it is from a
// thread (lock-free atomics are async-signal-safe); the only caveat is
// that a writer lapped mid-copy yields a dropped record, never a blocked
// reader.

#ifndef MODELARDB_OBS_EVENT_RING_H_
#define MODELARDB_OBS_EVENT_RING_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace modelardb {
namespace obs {

enum class EventKind : uint8_t {
  kFlush = 0,            // a = segments flushed, b = duration ns
  kCheckpointBegin = 1,  // a = groups to stage
  kCheckpointPhase = 2,  // a = gid (or -1 for cold index), detail = phase
  kCheckpointEnd = 3,    // a = groups staged, b = duration ns
  kWalSync = 4,          // a = blocks committed, b = duration ns
  kRecovery = 5,         // a = blocks replayed, b = segments replayed
  kQuarantine = 6,       // a = bytes quarantined
  kBlockRebuild = 7,     // a = gid, b = segments rebuilt over
  kPoolSaturated = 8,    // a = queue depth at the crossing
  kSlowQuery = 9,        // a = latency ns, b = rows returned
  kSlabRemap = 10,       // a = new mapped bytes
  kIngestRun = 11,       // a = rows delivered, b = duration ns
  kBundleDump = 12,      // a = signal number (0 for on-demand dumps)
};

// Stable short name for rendering ("flush", "checkpoint_phase", ...).
const char* EventKindName(EventKind kind);

// One stable record as returned by Snapshot(). `detail` is a short
// NUL-terminated tag (phase name, source name); kinds document a/b.
struct EventRecord {
  int64_t seq = 0;      // Ticket number: globally ordered, never reused.
  int64_t mono_ns = 0;  // MonotonicNanos() at Record() time.
  EventKind kind = EventKind::kFlush;
  int64_t a = 0;
  int64_t b = 0;
  char detail[24] = {0};
};

class EventRing {
 public:
  static constexpr size_t kDefaultCapacity = 1024;
  // Process-wide ring every subsystem records into. Leaked like
  // MetricsRegistry; capacity comes from MODELARDB_EVENT_RING when set.
  static EventRing& Global();

  explicit EventRing(size_t capacity = kDefaultCapacity);
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  // Never blocks on readers; old records are overwritten, and a record
  // whose slot a newer ticket already holds is dropped. No-op when
  // obs::SetEnabled(false). `detail` is truncated to 23 chars.
  void Record(EventKind kind, int64_t a = 0, int64_t b = 0,
              const char* detail = "");

  // Stable records oldest → newest. Skips slots that were mid-write.
  std::vector<EventRecord> Snapshot() const;

  // Copies up to `max` stable records into `out` (oldest → newest) without
  // allocating — the signal-handler path. When `max` is smaller than the
  // ring the NEWEST records win. Returns the count written.
  size_t SnapshotInto(EventRecord* out, size_t max) const;

  // Total Record() calls accepted since construction / reset.
  int64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

  void ResetForTest();

 private:
  // Seqlock per slot: seq == 2*ticket+1 while the owning writer stores the
  // payload, 2*ticket+2 once stable, 0 never written. Payload fields are
  // relaxed atomics so concurrent Record/Snapshot are data-race-free; the
  // release store of the final seq publishes the payload to acquire
  // readers.
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> mono_ns{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<uint64_t> detail[3] = {};
  };

  bool ReadSlot(const Slot& slot, EventRecord* out) const;

  const size_t capacity_;
  std::atomic<int64_t> next_{0};
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace obs
}  // namespace modelardb

#endif  // MODELARDB_OBS_EVENT_RING_H_
