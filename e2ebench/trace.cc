#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace e2ebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanRecorder::Open(const char* name, int32_t parent,
                           int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::Close(int32_t id) {
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[id];
  span.end_ns = end;
  span.busy_ns = end - span.start_ns;
}

int32_t SpanRecorder::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void CallAccumulator::FlushTo(SpanRecorder* recorder, int32_t parent,
                              int64_t request) {
  if (calls_ == 0) return;
  Span span;
  span.name = name_;
  span.start_ns = first_ns_;
  span.end_ns = last_ns_;
  span.parent = parent;
  span.request = request;
  span.calls = calls_;
  span.busy_ns = busy_ns_;
  recorder->Add(span);
  calls_ = 0;
  busy_ns_ = 0;
}

int64_t CoveredNs(const std::vector<Span>& spans,
                  const std::vector<int32_t>& ids) {
  int64_t covered = 0;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (int32_t id : ids) {
    const Span& span = spans[id];
    if (span.calls == 1) {
      intervals.emplace_back(span.start_ns, span.end_ns);
    } else {
      covered += span.busy_ns;
    }
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t open = 0;
  int64_t close = 0;
  bool have = false;
  for (const auto& [start, end] : intervals) {
    if (!have || start > close) {
      if (have) covered += close - open;
      open = start;
      close = end;
      have = true;
    } else {
      close = std::max(close, end);
    }
  }
  if (have) covered += close - open;
  return covered;
}

std::vector<std::vector<int32_t>> Children(const std::vector<Span>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[spans[i].parent].push_back(static_cast<int32_t>(i));
    }
  }
  return children;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  const std::vector<std::vector<int32_t>> children = Children(spans);
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = std::max<int64_t>(
        0, spans[i].busy_ns - CoveredNs(spans, children[i]));
  }
  return self;
}

std::map<std::string, NameTotals> TotalsByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals[spans[i].name];
    t.self_ns += self[i];
    t.busy_ns += spans[i].busy_ns;
    t.calls += spans[i].calls;
    ++t.spans;
  }
  return totals;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::ofstream out(path);
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\tcalls\tbusy_ns\t"
         "self_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.calls << '\t'
        << s.busy_ns << '\t' << self[i] << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace e2ebench
