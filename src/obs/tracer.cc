#include "obs/tracer.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"

namespace modelardb {
namespace obs {

int64_t MonotonicNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Trace::Trace(std::string label)
    : label_(std::move(label)), start_ns_(MonotonicNanos()) {}

int32_t Trace::BeginSpan(std::string name, int32_t parent) {
  MutexLock lock(mutex_);
  SpanRecord span;
  span.id = static_cast<int32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.start_ns = MonotonicNanos() - start_ns_;
  span.wall_ns = -1;  // Open until EndSpan.
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::EndSpan(int32_t id, int64_t begin_wall_ns, int64_t begin_cpu_ns) {
  const int64_t wall_ns = MonotonicNanos() - begin_wall_ns;
  const int64_t cpu_ns = ThreadCpuNanos() - begin_cpu_ns;
  MutexLock lock(mutex_);
  if (id < 1 || static_cast<size_t>(id) > spans_.size()) return;
  SpanRecord& span = spans_[id - 1];
  span.wall_ns = wall_ns < 0 ? 0 : wall_ns;
  span.cpu_ns = cpu_ns < 0 ? 0 : cpu_ns;
}

std::vector<SpanRecord> Trace::Spans() const {
  MutexLock lock(mutex_);
  std::vector<SpanRecord> spans = spans_;
  for (SpanRecord& span : spans) {
    if (span.wall_ns < 0) span.wall_ns = 0;  // Still open: report as zero.
  }
  return spans;
}

namespace {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);  // modelarlint:allow(determinism) one-time tracer config read at startup
  if (env != nullptr) {
    const long long parsed = std::strtoll(env, nullptr, 10);
    if (parsed > 0) return static_cast<int64_t>(parsed);
  }
  return fallback;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* global = new Tracer(
      static_cast<size_t>(EnvInt64(
          "MODELARDB_TRACE_RING",
          static_cast<int64_t>(Tracer::kDefaultCapacity))),
      EnvInt64("MODELARDB_TRACE_SAMPLE", Tracer::kDefaultSampleEvery));
  return *global;
}

std::unique_ptr<Trace> Tracer::StartTrace(std::string label) {
  if (!Enabled()) return nullptr;
  if (sample_every_ > 1 &&
      start_calls_.fetch_add(1, std::memory_order_relaxed) % sample_every_ !=
          0) {
    return nullptr;
  }
  return std::make_unique<Trace>(std::move(label));
}

std::unique_ptr<Trace> Tracer::StartForcedTrace(std::string label) {
  if (!Enabled()) return nullptr;
  return std::make_unique<Trace>(std::move(label));
}

int64_t Tracer::Finish(std::unique_ptr<Trace> trace) {
  if (trace == nullptr) return 0;
  TraceRecord record;
  record.label = trace->label();
  record.spans = trace->Spans();
  MutexLock lock(mutex_);
  record.trace_id = next_trace_id_++;
  finished_.push_back(std::move(record));
  while (finished_.size() > capacity_) finished_.pop_front();
  return finished_.back().trace_id;
}

std::vector<TraceRecord> Tracer::Recent() const {
  MutexLock lock(mutex_);
  return std::vector<TraceRecord>(finished_.rbegin(), finished_.rend());
}

void Tracer::ResetForTest() {
  MutexLock lock(mutex_);
  finished_.clear();
  next_trace_id_ = 1;
  start_calls_.store(0, std::memory_order_relaxed);
}

std::string RenderSpanTree(const std::vector<SpanRecord>& spans,
                           const std::string& indent) {
  // Depth by following parent links; spans_ ids are creation-ordered so a
  // parent always precedes its children.
  std::vector<int> depth(spans.size(), 0);
  size_t name_width = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t parent = spans[i].parent;
    if (parent >= 1 && static_cast<size_t>(parent) <= i) {
      depth[i] = depth[parent - 1] + 1;
    }
    name_width = std::max(name_width, spans[i].name.size() + 2 * depth[i]);
  }
  std::string out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    std::string line = indent;
    line.append(2 * depth[i], ' ');
    line += span.name;
    line.append(name_width - span.name.size() - 2 * depth[i] + 2, ' ');
    char buf[96];
    std::snprintf(buf, sizeof(buf), "wall %9.3f ms  cpu %9.3f ms",
                  static_cast<double>(span.wall_ns) * 1e-6,
                  static_cast<double>(span.cpu_ns) * 1e-6);
    line += buf;
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace obs
}  // namespace modelardb
