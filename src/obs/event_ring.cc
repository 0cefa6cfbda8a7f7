#include "obs/event_ring.h"

#include <cstdlib>
#include <thread>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace modelardb {
namespace obs {

namespace {

obs::Counter& EventRecords() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kEventRecordsTotal);
  return counter;
}

size_t GlobalCapacityFromEnv() {
  const char* env = std::getenv("MODELARDB_EVENT_RING");  // modelarlint:allow(determinism) one-time ring-size config read at startup
  if (env != nullptr) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return EventRing::kDefaultCapacity;
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kFlush:
      return "flush";
    case EventKind::kCheckpointBegin:
      return "checkpoint_begin";
    case EventKind::kCheckpointPhase:
      return "checkpoint_phase";
    case EventKind::kCheckpointEnd:
      return "checkpoint_end";
    case EventKind::kWalSync:
      return "wal_sync";
    case EventKind::kRecovery:
      return "recovery";
    case EventKind::kQuarantine:
      return "quarantine";
    case EventKind::kBlockRebuild:
      return "block_rebuild";
    case EventKind::kPoolSaturated:
      return "pool_saturated";
    case EventKind::kSlowQuery:
      return "slow_query";
    case EventKind::kSlabRemap:
      return "slab_remap";
    case EventKind::kIngestRun:
      return "ingest_run";
    case EventKind::kBundleDump:
      return "bundle_dump";
  }
  return "unknown";
}

EventRing& EventRing::Global() {
  static EventRing* global = new EventRing(GlobalCapacityFromEnv());
  return *global;
}

EventRing::EventRing(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity),
      slots_(new Slot[capacity < 1 ? 1 : capacity]) {}

void EventRing::Record(EventKind kind, int64_t a, int64_t b,
                       const char* detail) {
  if (!Enabled()) return;
  const int64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  EventRecords().Add();
  Slot& slot = slots_[static_cast<size_t>(ticket) % capacity_];
  const uint64_t writing = 2 * static_cast<uint64_t>(ticket) + 1;
  // Claim the slot by CAS, only from a settled (even) seq of an older
  // ticket: one writer at a time stores the payload, and the slot never
  // goes back to an older ticket. An older writer still mid-write is
  // waited for; a newer ticket's seq means a writer that lapped this one
  // already owns the slot, so this record is dropped (it would have been
  // overwritten anyway).
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  for (;;) {
    if (seq >= writing) return;
    if ((seq & 1) != 0) {
      std::this_thread::yield();
      seq = slot.seq.load(std::memory_order_relaxed);
      continue;
    }
    if (slot.seq.compare_exchange_weak(seq, writing,
                                       std::memory_order_relaxed)) {
      break;
    }
  }
  // Release fence: the payload stores below may not sink above the odd
  // mark, so a reader that missed the mark cannot accept mixed payloads.
  std::atomic_thread_fence(std::memory_order_release);
  slot.mono_ns.store(MonotonicNanos(), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  uint64_t words[3] = {0, 0, 0};
  if (detail != nullptr) {
    char bytes[24] = {0};
    for (int i = 0; i < 23 && detail[i] != '\0'; ++i) bytes[i] = detail[i];
    std::memcpy(words, bytes, sizeof(bytes));
  }
  for (int i = 0; i < 3; ++i) {
    slot.detail[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(writing + 1, std::memory_order_release);
}

bool EventRing::ReadSlot(const Slot& slot, EventRecord* out) const {
  const uint64_t before = slot.seq.load(std::memory_order_acquire);
  if (before == 0 || (before & 1) != 0) return false;  // Empty or mid-write.
  EventRecord record;
  record.seq = static_cast<int64_t>((before - 2) / 2);
  record.mono_ns = slot.mono_ns.load(std::memory_order_relaxed);
  record.a = slot.a.load(std::memory_order_relaxed);
  record.b = slot.b.load(std::memory_order_relaxed);
  record.kind =
      static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
  uint64_t words[3];
  for (int i = 0; i < 3; ++i) {
    words[i] = slot.detail[i].load(std::memory_order_relaxed);
  }
  std::memcpy(record.detail, words, sizeof(words));
  record.detail[23] = '\0';
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != before) return false;
  *out = record;
  return true;
}

size_t EventRing::SnapshotInto(EventRecord* out, size_t max) const {
  const int64_t next = next_.load(std::memory_order_acquire);
  int64_t first = next - static_cast<int64_t>(capacity_);
  // A buffer smaller than the ring keeps the NEWEST records — the ones a
  // crash bundle needs.
  const int64_t window = next - static_cast<int64_t>(max);
  if (window > first) first = window;
  if (first < 0) first = 0;
  size_t count = 0;
  for (int64_t ticket = first; ticket < next && count < max; ++ticket) {
    const Slot& slot = slots_[static_cast<size_t>(ticket) % capacity_];
    EventRecord record;
    if (!ReadSlot(slot, &record)) continue;
    // A slot overwritten since `next` was sampled holds a newer ticket;
    // keep it only if it still belongs to the window we advertised.
    if (record.seq < first || record.seq >= next) continue;
    out[count++] = record;
  }
  return count;
}

std::vector<EventRecord> EventRing::Snapshot() const {
  std::vector<EventRecord> records(capacity_);
  records.resize(SnapshotInto(records.data(), records.size()));
  return records;
}

void EventRing::ResetForTest() {
  // Not concurrency-safe; tests quiesce writers first (same contract as
  // MetricsRegistry::ResetForTest).
  next_.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace modelardb
