// Self-tests of the benchmark's own arithmetic and correctness gate:
// the percentile rule, span self time and coverage on a hand-built span
// tree, and the gate rejecting injected faults. Exit code 0 when all pass.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "gate.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
    }                                                                  \
  } while (0)

using e2ebench::Gate;
using e2ebench::Span;
using e2ebench::TidAnswer;
using e2ebench::TidTruth;

void TestPercentileRule() {
  using e2ebench::HighestSupportedPercentile;
  using e2ebench::SupportsPercentile;
  EXPECT(SupportsPercentile(1000, 99.0));   // Exactly ten beyond p99.
  EXPECT(!SupportsPercentile(999, 99.0));
  EXPECT(SupportsPercentile(20, 50.0));
  EXPECT(!SupportsPercentile(19, 50.0));
  EXPECT(HighestSupportedPercentile(19) == 0.0);
  EXPECT(HighestSupportedPercentile(20) == 50.0);
  EXPECT(HighestSupportedPercentile(100) == 90.0);
  EXPECT(HighestSupportedPercentile(999) == 90.0);
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(9999) == 99.0);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // Unsorted input.
  EXPECT(e2ebench::Percentile(values, 50.0) == 50.0);
  EXPECT(e2ebench::Percentile(values, 99.0) == 99.0);
  EXPECT(e2ebench::Percentile(values, 100.0) == 100.0);
  EXPECT(e2ebench::Median({3.0}) == 3.0);
  EXPECT(e2ebench::Median({}) == 0.0);
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int32_t parent,
              int64_t calls = 1, int64_t busy = -1) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.calls = calls;
  s.busy_ns = busy < 0 ? end - start : busy;
  return s;
}

void TestSpanArithmetic() {
  // root [0, 100]
  //   a [10, 30]          (child g [12, 18])
  //   b [20, 50]          overlaps a: together they cover [10, 50] = 40
  //   c coalesced: 3 calls, 15 ns busy within [60, 90]
  // d [0, 200] is a second root whose child e [150, 260] sticks out of it.
  std::vector<Span> spans = {
      MakeSpan("root", 0, 100, -1),      // 0
      MakeSpan("a", 10, 30, 0),          // 1
      MakeSpan("b", 20, 50, 0),          // 2
      MakeSpan("c", 60, 90, 0, 3, 15),   // 3
      MakeSpan("g", 12, 18, 1),          // 4
      MakeSpan("d", 0, 200, -1),         // 5
      MakeSpan("e", 150, 260, 5),        // 6
      MakeSpan("b", 300, 310, -1),       // 7: same name as span 2.
  };
  const std::vector<int64_t> self = e2ebench::SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 15);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 15);
  EXPECT(self[4] == 6);
  EXPECT(self[5] == 200 - 110);  // Children are not clipped, self is >= 0.
  EXPECT(self[6] == 110);

  EXPECT(e2ebench::CoveredNs(spans, {1, 2, 3}) == 55);
  EXPECT(e2ebench::CoveredNs(spans, {}) == 0);
  EXPECT(e2ebench::CoveredNs(spans, {1, 4}) == 20);  // g lies inside a.
  // Coverage of a phase: root-level spans 0 and 7 over a 400 ns phase.
  EXPECT(e2ebench::CoveredNs(spans, {0, 7}) == 110);

  const auto totals = e2ebench::TotalsByName(spans);
  EXPECT(totals.at("b").self_ns == 40);
  EXPECT(totals.at("b").busy_ns == 40);
  EXPECT(totals.at("b").spans == 2);
  EXPECT(totals.at("c").calls == 3);

  // Recorder round trip: a child closed inside its parent.
  e2ebench::SpanRecorder rec;
  const int32_t parent = rec.Open("parent", -1, 7);
  const int32_t child = rec.Open("child", parent, 7);
  rec.Close(child);
  rec.Close(parent);
  const std::vector<Span> recorded = rec.spans();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[1].parent == parent);
  EXPECT(recorded[0].busy_ns >= recorded[1].busy_ns);
  EXPECT(e2ebench::SelfTimes(recorded)[0] ==
         recorded[0].busy_ns - recorded[1].busy_ns);
}

void TestGateRejectsInjectedFaults() {
  // Ground truth of two series and an answer that matches it.
  std::map<modelardb::Tid, TidTruth> truth;
  for (double v : {10.0, 20.0, -5.0}) truth[1].Add(v);
  for (double v : {1.5, 2.5}) truth[2].Add(v);
  std::map<modelardb::Tid, TidAnswer> good = {{1, {3, 25.0, -5.0, 20.0}},
                                              {2, {2, 4.0, 1.5, 2.5}}};
  std::map<modelardb::Tid, int64_t> counts = {{1, 3}, {2, 2}};
  {
    Gate gate;
    e2ebench::CheckCounts(counts, good, "test", &gate);
    e2ebench::CheckAggregates(truth, good, 0.0, "test", &gate);
    EXPECT(gate.failed() == 0);
    EXPECT(gate.attempted() == 2 + 2 * 4);
  }
  {
    // Within a 1% bound: |SUM error| <= 1% of the sum of |values| (0.35).
    auto close = good;
    close[1].sum += 0.3;
    close[1].max -= 0.19;  // 1% of max |value| = 0.2.
    Gate gate;
    e2ebench::CheckAggregates(truth, close, 1.0, "test", &gate);
    EXPECT(gate.failed() == 0);
  }
  {
    auto wrong_sum = good;
    wrong_sum[1].sum += 0.5;
    Gate gate;
    e2ebench::CheckAggregates(truth, wrong_sum, 1.0, "test", &gate);
    EXPECT(gate.failed() == 1);
    EXPECT(gate.messages().size() == 1);
  }
  {
    auto lossless_off_by_ulp = good;
    lossless_off_by_ulp[2].sum = 4.001;
    Gate gate;
    e2ebench::CheckAggregates(truth, lossless_off_by_ulp, 0.0, "test", &gate);
    EXPECT(gate.failed() == 1);
  }
  {
    auto wrong_count = good;
    wrong_count[2].count = 1;
    Gate gate;
    e2ebench::CheckCounts(counts, wrong_count, "test", &gate);
    EXPECT(gate.failed() == 1);
  }
  {
    auto missing = good;
    missing.erase(2);
    Gate gate;
    e2ebench::CheckCounts(counts, missing, "test", &gate);
    e2ebench::CheckAggregates(truth, missing, 1.0, "test", &gate);
    EXPECT(gate.failed() == 2);
  }
  {
    Gate gate;
    e2ebench::CheckSegmentCount(132077, 132077, &gate);
    EXPECT(gate.failed() == 0);
    e2ebench::CheckSegmentCount(132077, 132076, &gate);  // Lost a segment.
    EXPECT(gate.failed() == 1);
    EXPECT(gate.attempted() == 2);
  }
  {
    modelardb::query::QueryResult a;
    a.rows = {{int64_t{1}, 0.1, std::string("x")}};
    modelardb::query::QueryResult b = a;
    b.rows[0][1] = std::nextafter(0.1, 1.0);  // One ulp away.
    EXPECT(e2ebench::Digest(a) != e2ebench::Digest(b));
    EXPECT(e2ebench::Fingerprint(a) != e2ebench::Fingerprint(b));
    EXPECT(e2ebench::Fingerprint(a) ==
           e2ebench::Fingerprint(modelardb::query::QueryResult(a)));
    Gate gate;
    e2ebench::CheckProbes({e2ebench::Digest(a)}, {e2ebench::Digest(a)}, "t",
                          &gate);
    EXPECT(gate.failed() == 0);
    e2ebench::CheckProbes({e2ebench::Digest(a)}, {e2ebench::Digest(b)}, "t",
                          &gate);
    EXPECT(gate.failed() == 1);
  }
  {
    modelardb::query::QueryResult r;
    r.rows = {{int64_t{1}, int64_t{3}, 25.0, -5.0, 20.0}};
    auto read = e2ebench::ReadTidAnswers(r);
    EXPECT(read.ok() && read->at(1).count == 3 && read->at(1).sum == 25.0);
    r.rows[0].pop_back();
    EXPECT(!e2ebench::ReadTidAnswers(r).ok());
  }
  {
    Gate gate;
    EXPECT(!gate.CheckStatus(modelardb::Status::IOError("disk"), "q"));
    EXPECT(gate.failed() == 1 && gate.attempted() == 1);
    Gate other;
    other.Check(true, "");
    gate.Merge(other);
    EXPECT(gate.failed() == 1 && gate.attempted() == 2);
  }
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSpanArithmetic();
  TestGateRejectsInjectedFaults();
  if (failures > 0) {
    std::fprintf(stderr, "e2ebench self-tests: %d failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "e2ebench self-tests: all passed\n");
  return 0;
}
