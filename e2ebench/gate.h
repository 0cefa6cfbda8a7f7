// The benchmark's correctness gate.
//
// Every check is one attempted operation; a mismatch or a non-OK Status is
// one failed operation. The gate keeps the first few failure messages so a
// failing run says what went wrong. The checks are pure functions over
// plain values so the self-tests can inject faults into them.

#ifndef E2EBENCH_GATE_H_
#define E2EBENCH_GATE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/types.h"
#include "query/result.h"
#include "util/status.h"

namespace e2ebench {

class Gate {
 public:
  // Counts one attempted operation; returns `ok`.
  bool Check(bool ok, const std::string& what);
  bool CheckStatus(const modelardb::Status& status, const std::string& what) {
    if (status.ok()) return Check(true, std::string());
    return Check(false, what + ": " + status.ToString());
  }

  // Adds another gate's operations (e.g. a query client's).
  void Merge(const Gate& other);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  static constexpr size_t kMaxMessages = 20;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// Ground truth for one series, from SyntheticDataset::RawValue/Present.
struct TidTruth {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double abs_sum = 0.0;  // Sum of |value|: the SUM tolerance scales with it.
  double abs_max = 0.0;  // Max of |value|: the MIN/MAX tolerance.

  void Add(double value);
};

// One row of "SELECT Tid, COUNT, SUM, MIN, MAX ... GROUP BY Tid".
struct TidAnswer {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Reads a Tid-grouped COUNT/SUM/MIN/MAX result (five columns).
modelardb::Result<std::map<modelardb::Tid, TidAnswer>> ReadTidAnswers(
    const modelardb::query::QueryResult& result);

// Exact COUNT per Tid; a Tid missing from `got` fails.
void CheckCounts(const std::map<modelardb::Tid, int64_t>& expected,
                 const std::map<modelardb::Tid, TidAnswer>& got,
                 const std::string& where, Gate* gate);

// COUNT exact, SUM/MIN/MAX within the relative error bound (percent) of
// the truth, plus float-rounding slack. Only Tids in `truth` are checked.
void CheckAggregates(const std::map<modelardb::Tid, TidTruth>& truth,
                     const std::map<modelardb::Tid, TidAnswer>& got,
                     double bound_percent, const std::string& where,
                     Gate* gate);

// Segments after a restart equal segments before it.
void CheckSegmentCount(int64_t before, int64_t after, Gate* gate);

// Probe answers are bit-identical (see Digest) before and after.
void CheckProbes(const std::vector<std::string>& before,
                 const std::vector<std::string>& after,
                 const std::string& where, Gate* gate);

// Exact rendering of a result: floating-point cells as hex floats.
std::string Digest(const modelardb::query::QueryResult& result);

// 64-bit FNV-1a hash over the exact bits of every cell; equal results have
// equal fingerprints. Cheaper than Digest for large point/range answers.
uint64_t Fingerprint(const modelardb::query::QueryResult& result);

}  // namespace e2ebench

#endif  // E2EBENCH_GATE_H_
