// Span-based query tracing (DESIGN.md "Observability").
//
// A Trace is a tree of spans for one query: parse → plan → morsel fan-out
// → per-Gid partials → merge. Spans record wall time and per-thread CPU
// time (CLOCK_THREAD_CPUTIME_ID), so a span that waited on the pool shows
// wall >> cpu while a compute-bound morsel shows wall ≈ cpu. The Tracer
// keeps a ring buffer of the last N finished traces for TRACES() /
// \trace; tracing an individual query is opt-in (StartTrace) and every
// recording call is a no-op on a null Trace*, so untraced paths pay one
// pointer test.

#ifndef MODELARDB_OBS_TRACER_H_
#define MODELARDB_OBS_TRACER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.h"

namespace modelardb {
namespace obs {

// Monotonic wall clock in nanoseconds (CLOCK_MONOTONIC).
int64_t MonotonicNanos();
// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
int64_t ThreadCpuNanos();

struct SpanRecord {
  int32_t id = 0;      // 1-based; 0 means "no span".
  int32_t parent = 0;  // Parent span id, 0 for roots.
  std::string name;
  int64_t start_ns = 0;  // Monotonic, relative to trace start.
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
};

// One query's span tree. Thread-safe: morsel spans finish on pool threads
// concurrently with engine-side spans. Create through Tracer::StartTrace.
class Trace {
 public:
  explicit Trace(std::string label);

  // Opens a span and returns its id (pass as parent to children). Safe to
  // call with parent ids from other threads.
  int32_t BeginSpan(std::string name, int32_t parent);
  // Closes the span; wall/cpu deltas are computed from the values captured
  // by BeginSpan on the *calling* thread, so Begin/End must run on the
  // same thread (ScopedSpan guarantees this).
  void EndSpan(int32_t id, int64_t begin_wall_ns, int64_t begin_cpu_ns);

  const std::string& label() const { return label_; }
  int64_t start_ns() const { return start_ns_; }

  // Snapshot of finished + open spans, sorted by id (creation order).
  std::vector<SpanRecord> Spans() const;

 private:
  const std::string label_;
  const int64_t start_ns_;
  mutable Mutex mutex_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mutex_);
};

// RAII span. No-ops when `trace` is null, so call sites are unconditional:
//   obs::ScopedSpan span(trace, "plan", parent_id);
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, int32_t parent = 0)
      : trace_(trace) {
    if (trace_ == nullptr) return;
    begin_wall_ns_ = MonotonicNanos();
    begin_cpu_ns_ = ThreadCpuNanos();
    id_ = trace_->BeginSpan(std::move(name), parent);
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Span id for parenting children; 0 when tracing is off.
  int32_t id() const { return id_; }

  // Closes the span early (idempotent).
  void End() {
    if (trace_ == nullptr || ended_) return;
    ended_ = true;
    trace_->EndSpan(id_, begin_wall_ns_, begin_cpu_ns_);
  }

 private:
  Trace* trace_ = nullptr;
  int32_t id_ = 0;
  int64_t begin_wall_ns_ = 0;
  int64_t begin_cpu_ns_ = 0;
  bool ended_ = false;
};

// A finished trace as retained by the Tracer ring buffer.
struct TraceRecord {
  int64_t trace_id = 0;  // Monotonically increasing across the process.
  std::string label;
  std::vector<SpanRecord> spans;
};

// Owns in-flight traces and a ring buffer of the last `capacity` finished
// ones. Process-wide instance at Tracer::Global() (leaked, like
// MetricsRegistry).
//
// Tracing a sub-millisecond query costs far more than counting it (span
// strings, per-span clock reads, a mutex), so Global() samples: only one
// in kDefaultSampleEvery StartTrace calls records a trace. The counter
// starts at zero, so the first query after startup (or ResetForTest) is
// always traced. EXPLAIN ANALYZE bypasses sampling via StartForcedTrace.
//
// Global() takes both knobs from the MODELARDB_TRACE_RING /
// MODELARDB_TRACE_SAMPLE environment variables when they are set.
class Tracer {
 public:
  static Tracer& Global();

  // Every call traced by default; Global() is constructed with
  // kDefaultSampleEvery (or MODELARDB_TRACE_SAMPLE when set).
  static constexpr int64_t kDefaultSampleEvery = 64;
  // Finished traces retained by default (or MODELARDB_TRACE_RING).
  static constexpr size_t kDefaultCapacity = 32;
  explicit Tracer(size_t capacity = kDefaultCapacity,
                  int64_t sample_every = 1)
      : capacity_(capacity < 1 ? 1 : capacity), sample_every_(sample_every) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Null when tracing is disabled via obs::SetEnabled(false) or this call
  // lost the sampling draw — callers pass the pointer through
  // unconditionally.
  std::unique_ptr<Trace> StartTrace(std::string label);

  // StartTrace minus sampling (still null when disabled); for paths where
  // the user explicitly asked for the trace (EXPLAIN ANALYZE, tests).
  std::unique_ptr<Trace> StartForcedTrace(std::string label);

  // Archives a finished trace into the ring buffer (oldest evicted).
  // Returns the assigned trace id, 0 if `trace` was null.
  int64_t Finish(std::unique_ptr<Trace> trace);

  // Newest-first copies of the retained traces.
  std::vector<TraceRecord> Recent() const;

  void ResetForTest();

 private:
  const size_t capacity_;
  const int64_t sample_every_;
  // Lock-free by design: the sampling draw is a relaxed atomic read on the
  // StartTrace path; an imprecise interleaving only shifts which call wins
  // the draw, so it is not GUARDED_BY the ring-buffer mutex.
  std::atomic<int64_t> start_calls_{0};
  mutable Mutex mutex_;
  int64_t next_trace_id_ GUARDED_BY(mutex_) = 1;
  std::deque<TraceRecord> finished_ GUARDED_BY(mutex_);
};

// Renders a span tree as indented text, one line per span:
//   parse                       wall 0.012 ms  cpu 0.011 ms
//   scan                        wall 1.204 ms  cpu 0.002 ms
//     morsel gid=1              wall 0.488 ms  cpu 0.470 ms
// Used by EXPLAIN ANALYZE and the CLI \trace command.
std::string RenderSpanTree(const std::vector<SpanRecord>& spans,
                           const std::string& indent = "");

}  // namespace obs
}  // namespace modelardb

#endif  // MODELARDB_OBS_TRACER_H_
