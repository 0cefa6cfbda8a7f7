// Stall-detecting health watchdog (DESIGN.md §3i).
//
// Long-running operations (flush, checkpoint, recovery, pipeline runs)
// register a heartbeat and beat it as they make progress; the watchdog
// samples those heartbeats plus the pool queue depth and the flight
// recorder's recent flush/checkpoint/WAL-sync durations, and folds them
// into a verdict: ok, degraded (slow but moving), or stalled (a live
// operation has not beaten within the stall threshold). The verdict is
// queryable on demand (SELECT * FROM HEALTH(), CLI \health) and exported
// continuously (modelardb_health_status gauge) by the background thread,
// which also refreshes the crash-bundle snapshot each tick.
//
// Check() works without Start(): the verdict is computed from shared
// state, so in-process embedders and tests get health reports without a
// background thread.

#ifndef MODELARDB_OBS_WATCHDOG_H_
#define MODELARDB_OBS_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace modelardb {
namespace obs {

enum class HealthStatus { kOk = 0, kDegraded = 1, kStalled = 2 };
const char* HealthStatusName(HealthStatus status);

// Slow-query log threshold. Queries slower than this are logged with their
// resource breakdown, recorded as kSlowQuery flight-recorder events and
// counted by modelardb_query_slow_total. Seeded from MODELARDB_SLOW_QUERY_MS
// (default 1000); SetSlowQueryThresholdMs overrides it. <= 0 disables the
// log. Thread-safe.
int64_t SlowQueryThresholdNs();
void SetSlowQueryThresholdMs(int64_t ms);

struct HealthReport {
  HealthStatus status = HealthStatus::kOk;
  std::vector<std::string> reasons;  // Empty when ok.
  double queue_depth = 0.0;          // Pool queue depth at check time.
  int64_t inflight_ops = 0;          // Registered heartbeats.
  int64_t checks = 0;                // Cumulative verdicts computed.
  int64_t last_checkpoint_ns = -1;   // Duration of the newest finished
  int64_t last_wal_sync_ns = -1;     // checkpoint / WAL sync, -1 if none.
};

struct WatchdogOptions {
  int64_t poll_interval_ms = 250;   // Background sampling period.
  int64_t degraded_after_ms = 1000;  // Heartbeat older than this: degraded.
  int64_t stalled_after_ms = 5000;   // Heartbeat older than this: stalled.
  double queue_depth_degraded = 1024;  // Pool backlog beyond this: degraded.
  int64_t checkpoint_warn_ms = 2000;  // Last checkpoint slower: degraded.
  int64_t wal_sync_warn_ms = 500;     // Last WAL sync slower: degraded.
};

class Watchdog {
 public:
  // Process-wide instance, leaked like MetricsRegistry. The background
  // thread is NOT started automatically; ClusterEngine::Create (and the
  // CLI) call Start().
  static Watchdog& Global();

  Watchdog() = default;
  ~Watchdog() { Stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Starts the background sampling thread (idempotent; new options win).
  void Start(const WatchdogOptions& options = {});
  // Stops and joins the thread (idempotent). Heartbeats stay registered.
  void Stop();
  bool running() const;

  // Heartbeat registry — use HeartbeatScope rather than these directly.
  // The returned handle stays valid until Unregister (shared ownership,
  // so a concurrent Check() never races a teardown).
  struct Operation {
    std::string name;
    int64_t start_ns = 0;
    // Lock-free by design: Beat() runs inside flush/checkpoint loops and
    // must not take the registry mutex; a relaxed store is enough because
    // the watchdog only compares the value against now().
    std::atomic<int64_t> last_beat_ns{0};
  };
  std::shared_ptr<Operation> RegisterOperation(std::string name);
  void UnregisterOperation(const std::shared_ptr<Operation>& op);

  // Computes the verdict now, updates modelardb_health_status /
  // modelardb_health_checks_total. Thread-safe.
  HealthReport Check();

  const WatchdogOptions& options() const { return options_; }
  void SetOptions(const WatchdogOptions& options) { options_ = options; }

  void ResetForTest();  // Stops the thread, drops heartbeats.

 private:
  void Run();

  // options_ is written before the thread starts (Start) or by tests and
  // read concurrently by Check(); fields are plain ints sampled once per
  // check, so a racy update only shifts one verdict. Kept simple on
  // purpose.
  WatchdogOptions options_;

  mutable Mutex mutex_;
  CondVar wake_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  std::thread thread_ GUARDED_BY(mutex_);
  int64_t next_op_id_ GUARDED_BY(mutex_) = 1;
  std::map<int64_t, std::shared_ptr<Operation>> ops_ GUARDED_BY(mutex_);
  std::map<const Operation*, int64_t> op_ids_ GUARDED_BY(mutex_);
  std::atomic<int64_t> checks_{0};
};

// RAII heartbeat: registers on construction, beats on Beat(), and
// unregisters on destruction. Copy-free.
class HeartbeatScope {
 public:
  explicit HeartbeatScope(std::string name)
      : op_(Watchdog::Global().RegisterOperation(std::move(name))) {}
  ~HeartbeatScope() { Watchdog::Global().UnregisterOperation(op_); }
  HeartbeatScope(const HeartbeatScope&) = delete;
  HeartbeatScope& operator=(const HeartbeatScope&) = delete;

  void Beat();

 private:
  std::shared_ptr<Watchdog::Operation> op_;
};

}  // namespace obs
}  // namespace modelardb

#endif  // MODELARDB_OBS_WATCHDOG_H_
