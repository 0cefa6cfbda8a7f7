// Spans for the benchmark's traced run.
//
// Spans are recorded in the benchmark's own code around its calls into the
// engine's public functions; nothing inside the engine is instrumented.
// Each span has a name, start, end, parent and request id; all spans stay
// in memory and are written out when the run ends.
//
// Functions called once per input row (GroupRowSource::Next,
// GroupCoordinator::Ingest, SegmentStore::PutBatch) would produce tens of
// millions of spans, so those calls are coalesced: one span per parent
// and name carries the number of calls and their summed duration
// (`busy_ns`) over [first start, last end]. Coalesced spans are only made
// for calls one thread issues in sequence, so their call intervals are
// disjoint from each other and from their siblings, and their summed
// duration is exactly the time they cover.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

int64_t NowNs();  // steady_clock, nanoseconds.

struct Span {
  const char* name = "";  // Static string.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // Index of the parent span; -1 for a root.
  int64_t request = 0;  // Spans of one query or one ingest thread share it.
  int64_t calls = 1;    // > 1: consecutive calls coalesced (see above).
  int64_t busy_ns = 0;  // Summed call durations; end - start when calls == 1.
};

// Thread-safe span store. Ids are indexes into spans().
class SpanRecorder {
 public:
  // Opens a span that ends at Close(id).
  int32_t Open(const char* name, int32_t parent, int64_t request);
  void Close(int32_t id);
  // Records a finished span as given.
  int32_t Add(const Span& span);

  std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Accumulates the sequential calls of one leaf function on one thread
// into a single coalesced span.
class CallAccumulator {
 public:
  explicit CallAccumulator(const char* name) : name_(name) {}

  void Add(int64_t start_ns, int64_t end_ns) {
    if (calls_ == 0) first_ns_ = start_ns;
    last_ns_ = end_ns;
    busy_ns_ += end_ns - start_ns;
    ++calls_;
  }
  // Records the span under `parent` (if any calls were made) and resets.
  void FlushTo(SpanRecorder* recorder, int32_t parent, int64_t request);

 private:
  const char* name_;
  int64_t first_ns_ = 0;
  int64_t last_ns_ = 0;
  int64_t busy_ns_ = 0;
  int64_t calls_ = 0;
};

// Time the spans `ids` cover: the union of their intervals for single-call
// spans plus the summed call time of coalesced ones.
int64_t CoveredNs(const std::vector<Span>& spans,
                  const std::vector<int32_t>& ids);

// Self time of every span: its busy time minus what its children cover
// (clipped at 0).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Direct children of every span, by id.
std::vector<std::vector<int32_t>> Children(const std::vector<Span>& spans);

// Per span name: summed self time, summed busy time and calls.
struct NameTotals {
  int64_t self_ns = 0;
  int64_t busy_ns = 0;
  int64_t calls = 0;
  int64_t spans = 0;
};
std::map<std::string, NameTotals> TotalsByName(
    const std::vector<Span>& spans);

// Writes one tab-separated line per span (id, parent, request, name,
// start, end, calls, busy, self); returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
