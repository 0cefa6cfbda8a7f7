// Process-wide metrics: named counters, gauges and fixed-bucket latency
// histograms (DESIGN.md "Observability").
//
// Hot-path cost is the design driver: counters and histograms are sharded
// by thread over cache-line-aligned relaxed atomics, so an instrumented
// path pays one relaxed fetch_add on a line it almost always owns — a few
// nanoseconds, and no false sharing between pool workers. Snapshot reads
// sum the shards; they take the registry mutex only to walk the name map
// (writers never touch that mutex after the first lookup), so readers are
// wait-free with respect to writers and writers are lock-free always.
//
// The process-wide kill switch SetEnabled(false) turns every Add/Observe
// into a relaxed load + branch; the overhead benchmark compares the two
// modes (bench_obs_deep).

#ifndef MODELARDB_OBS_METRICS_H_
#define MODELARDB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metric_names.h"
#include "util/sync.h"

namespace modelardb {
namespace obs {

namespace internal {
// Lock-free by design: the kill switch is a relaxed atomic so Enabled()
// costs one load on every instrumented path; a racy toggle only affects
// which in-flight observations are dropped, never memory safety.
inline std::atomic<bool> g_enabled{true};
// Stable small id per thread; maps threads onto metric shards.
unsigned ThreadShard();
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

// Shards per hot metric. A power of two comfortably above the typical
// core count of the target machines; threads hash onto shards, so two
// writers only contend when they collide mod kMetricShards.
inline constexpr unsigned kMetricShards = 16;

// Monotonically increasing counter (use Gauge for values that go down).
//
// Lock-free by design: shard values are relaxed atomics, not GUARDED_BY
// the registry mutex — writers are hot-path pool workers and must never
// contend; Value() sums the shards and tolerates torn totals (a snapshot
// concurrent with writers is approximate by contract, DESIGN.md §3d).
class Counter {
 public:
  void Add(int64_t delta = 1) {
    if (!Enabled()) return;
    shards_[internal::ThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void ResetForTest() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

// Point-in-time value (queue depth, rates, ratios). Not sharded: gauges
// are Set from cold paths; Add is available for up/down tracking.
class Gauge {
 public:
  void Set(double value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket latency histogram over seconds. Bucket bounds are
// compile-time constants (1µs .. 10s, roughly 1-2.5-5 per decade) so every
// histogram in the process is comparable and the exporter needs no
// per-histogram metadata. Observe() is one relaxed fetch_add on the
// bucket plus one on the nanosecond sum, sharded like Counter.
class Histogram {
 public:
  static constexpr int kNumBounds = 22;
  // Upper bounds in seconds; observations above the last bound land in the
  // implicit +Inf bucket (index kNumBounds).
  static const std::array<double, kNumBounds>& Bounds();

  void Observe(double seconds);

  struct Snapshot {
    std::array<int64_t, kNumBounds + 1> buckets{};  // Non-cumulative.
    int64_t count = 0;
    double sum_seconds = 0.0;
  };
  Snapshot Read() const;

  void ResetForTest();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<int64_t>, kNumBounds + 1> buckets{};
    std::atomic<int64_t> sum_ns{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

// One sample of the registry snapshot. `label` is empty or a single
// rendered Prometheus label pair, e.g. `model="pmc_mean"`.
struct MetricSample {
  std::string name;
  std::string label;
  MetricKind kind = MetricKind::kCounter;
  bool in_catalog = false;
  int64_t counter_value = 0;            // kCounter.
  double gauge_value = 0.0;             // kGauge.
  Histogram::Snapshot histogram;        // kHistogram.
};

// Name → metric map. Lookups (GetCounter/GetGauge/GetHistogram) take a
// mutex, so instrumented code caches the returned reference (typically in
// a function-local static); references stay valid for the registry's
// lifetime — entries are never removed, and ResetForTest zeroes values in
// place instead of replacing objects.
class MetricsRegistry {
 public:
  // The process-wide registry every subsystem reports into. Intentionally
  // leaked (like ThreadPool::Shared) so instrumentation is safe during
  // static destruction.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name, std::string_view label_key = {},
                      std::string_view label_value = {});
  Gauge& GetGauge(std::string_view name, std::string_view label_key = {},
                  std::string_view label_value = {});
  Histogram& GetHistogram(std::string_view name,
                          std::string_view label_key = {},
                          std::string_view label_value = {});

  // Consistent, sorted view of every registered metric. Values are read
  // with relaxed loads; concurrent writers are never blocked.
  std::vector<MetricSample> Snapshot() const;

  // Zeroes every registered value in place (objects and references
  // survive). Tests use this to isolate workloads against the Global()
  // registry.
  void ResetForTest();

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, std::string>;  // (name, label).

  Entry& GetEntry(MetricKind kind, std::string_view name,
                  std::string_view label_key, std::string_view label_value);

  // The mutex guards only the name → entry map. The metric objects the
  // entries point to are written lock-free (relaxed atomics, above) —
  // that hand-off is safe because entries are never removed, so a
  // reference returned under the lock stays valid forever.
  mutable Mutex mutex_;
  std::map<Key, Entry> metrics_ GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace modelardb

#endif  // MODELARDB_OBS_METRICS_H_
