// Query workloads of the evaluation (§7.2): S-AGG (small aggregates for
// interactive analysis), L-AGG (full-data-set aggregates for scalability),
// M-AGG (multi-dimensional aggregates for reporting) and P/R (point and
// range queries for sub-sequence extraction).

#ifndef MODELARDB_WORKLOAD_QUERIES_H_
#define MODELARDB_WORKLOAD_QUERIES_H_

#include <string>
#include <vector>

#include "workload/dataset.h"

namespace modelardb {
namespace workload {

// Which ModelarDB++ view the generated SQL targets. The comparison
// baselines (bench/baselines, outside the library) run the same specs
// through their own scan-based executor instead.
enum class QueryTarget { kSegmentView, kDataPointView };

// Structured query specifications. The comparison benchmarks need to run
// the *same logical query* against ModelarDB++ (as SQL) and the baseline
// stores (as scans); specs are the shared representation, ToSql() derives
// the ModelarDB++ form.

// Simple aggregate over a set of series (S-AGG/L-AGG).
struct AggSpec {
  std::vector<Tid> tids;   // Empty: all series.
  bool group_by_tid = false;
  int agg = 3;             // Index into {COUNT, MIN, MAX, SUM, AVG}.
};

// Point/range query (P/R).
struct PrSpec {
  Tid tid = 0;  // 0: all series.
  Timestamp min_time = 0;
  Timestamp max_time = 0;
};

// Multi-dimensional aggregate (M-AGG): WHERE member restriction, GROUP BY
// a dimension level and month.
struct MAggSpec {
  int where_dim = 0;
  int where_level = 1;
  std::string where_member;
  int group_dim = 0;
  int group_level = 1;
  bool also_group_by_tid = false;
  int agg = 3;
};

std::vector<AggSpec> MakeSAggSpecs(const SyntheticDataset& dataset, int count,
                                   uint64_t seed);
std::vector<AggSpec> MakeLAggSpecs(const SyntheticDataset& dataset);
std::vector<PrSpec> MakePRSpecs(const SyntheticDataset& dataset, int count,
                                uint64_t seed);
std::vector<MAggSpec> MakeMAggSpecs(const SyntheticDataset& dataset,
                                    bool drill_down);

std::string ToSql(const AggSpec& spec, QueryTarget target);
std::string ToSql(const PrSpec& spec);
std::string ToSql(const MAggSpec& spec, const SyntheticDataset& dataset,
                  QueryTarget target);

// Small aggregates: half single-series aggregates, half GROUP BY queries
// over five series (§7.2).
std::vector<std::string> MakeSAgg(const SyntheticDataset& dataset,
                                  QueryTarget target, int count,
                                  uint64_t seed);

// Full-data-set aggregates, half with GROUP BY Tid (§7.2).
std::vector<std::string> MakeLAgg(const SyntheticDataset& dataset,
                                  QueryTarget target);

// Multi-dimensional aggregates: WHERE restricts to the energy-production
// member; GROUP BY month and a dimension level. `drill_down` selects the
// M-AGG-Two variant that groups one level below the partitioning level
// (Figs 25-28).
std::vector<std::string> MakeMAgg(const SyntheticDataset& dataset,
                                  bool drill_down);

// Point/range queries restricted by TS or Tid and TS (§7.2). Always on
// the Data Point View.
std::vector<std::string> MakePR(const SyntheticDataset& dataset, int count,
                                uint64_t seed);

}  // namespace workload
}  // namespace modelardb

#endif  // MODELARDB_WORKLOAD_QUERIES_H_
