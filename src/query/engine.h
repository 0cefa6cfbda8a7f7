// Query processing on models (paper §6).
//
// The engine implements the paper's Segment View and Data Point View over
// segment stores. Algorithm 5 (simple aggregates) and Algorithm 6
// (aggregates rolled up in the time dimension) are implemented as an
// initialize / iterate / finalize pipeline over segments, with:
//   - query rewriting from Tids and dimension members to Gids (§6.2) so
//     the segment store only needs predicate push-down on one id,
//   - per-series scaling constants applied during iterate (§6.1),
//   - the array-based dimension join against the in-memory catalog (§6.1),
//   - constant-time aggregation on constant/linear models via
//     SegmentDecoder::AggregateRange.
//
// Execute is the one query orchestration: a single node is a one-worker
// cluster. It runs iterate on every store partition (ExecutePartial: one
// morsel per Gid on the thread pool) and merges at the master
// (MergeFinalize), exactly as the paper distributes Algorithm 5/6. The
// merge folds every morsel once, in ascending Gid across all partitions,
// so answers are byte-identical at any partition count, partition order
// and pool size, and for callers that drive the building blocks
// themselves.

#ifndef MODELARDB_QUERY_ENGINE_H_
#define MODELARDB_QUERY_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/model.h"
#include "dims/dimensions.h"
#include "obs/tracer.h"
#include "partition/partitioner.h"
#include "query/ast.h"
#include "query/result.h"
#include "storage/segment_store.h"
#include "util/thread_pool.h"

namespace modelardb {
namespace query {

// The stores one query runs over, in partition order: a single node
// passes its one store, the cluster engine its workers' stores.
using Partitions = std::vector<const SegmentStore*>;

// Group-by key parts after name resolution.
struct KeyPart {
  enum class Kind { kTid, kMember };
  Kind kind = Kind::kTid;
  int dim_index = 0;  // kMember.
  int level = 0;      // kMember.
  std::string display;
};

// A compiled (rewritten + resolved) query.
struct CompiledQuery {
  Query ast;
  SegmentFilter filter;           // Gids + time range (push-down, §6.2).
  // Series surviving the conjunction of Tid and member predicates. Groups
  // are supersets of this set, so iterate re-filters per series. Empty
  // with no predicates: all series.
  std::set<Tid> selected_tids;
  // Value-range predicate in raw (unscaled) units. Segments whose value
  // statistics cannot intersect the range are pruned without decoding —
  // the model-exploiting index of the paper's future work (i).
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  bool has_value_predicate = false;
  std::vector<KeyPart> key_parts;
  std::optional<TimeLevel> cube_level;  // Set when any CUBE_ aggregate.
};

// Distributive/algebraic aggregate state (merged across workers).
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Merge(const AggState& other) {
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
};

// One reduction over segments: grouped aggregate states or raw rows.
struct Fold {
  std::map<std::vector<Cell>, std::vector<AggState>> groups;
  std::vector<std::vector<Cell>> rows;  // Non-aggregate queries.

  void Merge(Fold&& other);
};

// A partition's partial result: one fold per Gid morsel, unmerged and in
// ascending Gid, plus the scan's resource counters (surfaced by EXPLAIN
// ANALYZE and the slow-query log).
struct PartialResult {
  std::vector<std::pair<Gid, Fold>> morsels;
  ScanStats scan;
};

// Renders the `EXPLAIN ANALYZE` counter lines ("blocks skipped: N", ...)
// for a scan's summary-index pruning statistics.
std::vector<std::string> ScanStatsLines(const ScanStats& stats);

// Slow-query log: when `latency_ns` exceeds obs::SlowQueryThresholdNs(),
// logs a kWarn line with the query's resource breakdown, bumps
// modelardb_query_slow_total and records a kSlowQuery flight-recorder
// event. No-op below the threshold or when disabled.
void MaybeLogSlowQuery(int64_t latency_ns, const ScanStats& scan,
                       int64_t rows);

class QueryEngine {
 public:
  // `catalog` and `registry` must outlive the engine; `groups` comes from
  // the Partitioner.
  QueryEngine(const TimeSeriesCatalog* catalog,
              std::vector<TimeSeriesGroup> groups,
              const ModelRegistry* registry);

  // Parses, compiles and runs `sql` over `partitions`, recording a full
  // query trace (parse → plan → scan → per-worker fan-out → per-Gid
  // morsels → merge) into obs::Tracer::Global().
  Result<QueryResult> Execute(const std::string& sql,
                              const Partitions& partitions,
                              ThreadPool* pool = nullptr) const;
  // Runs `ast` over `partitions`: one task per partition on `pool` (inline
  // when null), each running ExecutePartial on the same pool, then
  // MergeFinalize. Counts into the modelardb_query_* metrics and the
  // slow-query log. Also answers the introspection views, plain EXPLAIN
  // (the fence estimate summed over the partitions, without executing)
  // and EXPLAIN ANALYZE (this same fan-out under a forced trace, reported
  // as exact counters plus the span tree). Stage spans attach to `trace`
  // when one is given (null disables tracing).
  Result<QueryResult> Execute(const Query& ast, const Partitions& partitions,
                              ThreadPool* pool = nullptr,
                              obs::Trace* trace = nullptr) const;

  // Renders the compiled plan of `ast`: view, push-down predicates (Gids,
  // time range, value range), per-series filters, grouping and rollup.
  // Also reachable through SQL as `EXPLAIN SELECT ...`.
  Result<std::string> Explain(const Query& ast) const;

  // Distributed building blocks.
  Result<CompiledQuery> Compile(const Query& ast) const;
  // Iterate over one partition: one morsel per Gid of the filter (every
  // Gid of `store` when the filter names none), each an independent task
  // on `pool` (inline when null). Morsels are submitted heaviest first by
  // the summary index's surviving-segment estimate, so large groups start
  // early and the pool's tail stays short; their folds come back unmerged
  // in ascending Gid, so scheduling cannot change results. When `trace`
  // is non-null a "morsel fan-out" span (parented to `parent_span`) wraps
  // the scan and each morsel records a "morsel gid=N" child span.
  Result<PartialResult> ExecutePartial(const CompiledQuery& compiled,
                                       const SegmentStore& store,
                                       ThreadPool* pool = nullptr,
                                       obs::Trace* trace = nullptr,
                                       int32_t parent_span = 0) const;
  // Merges the morsel folds of all `partials` once, in ascending Gid
  // (ties in partial order), and finalizes. The one reduction tree makes
  // the answer independent of how Gids are spread across partials and of
  // the order the partials are passed in.
  Result<QueryResult> MergeFinalize(const CompiledQuery& compiled,
                                    std::vector<PartialResult> partials) const;

  const std::vector<TimeSeriesGroup>& groups() const { return groups_; }
  Gid GidOf(Tid tid) const { return gid_of_[tid - 1]; }

 private:
  // Resolves a dimension column name ("Park" or "Location.Park" /
  // "Location_Park") to (dimension index, level).
  Result<std::pair<int, int>> ResolveDimensionColumn(
      const std::string& name) const;

  // Folds the segments of `store` matching `filter` (one morsel) into
  // `fold`, accounting the scan in `stats`.
  Status SegmentViewFold(const CompiledQuery& compiled,
                         const SegmentStore& store,
                         const SegmentFilter& filter, Fold* fold,
                         ScanStats* stats) const;
  Status DataPointViewFold(const CompiledQuery& compiled,
                           const SegmentStore& store,
                           const SegmentFilter& filter, Fold* fold,
                           ScanStats* stats) const;

  // Positions (and Tids) of a segment's represented, selected series.
  struct SelectedSeries {
    Tid tid;
    int column;      // Decoder column.
    double scaling;  // Applied as value / scaling during iterate (§6.1).
  };
  std::vector<SelectedSeries> SelectSeries(const CompiledQuery& compiled,
                                           const Segment& segment) const;

  std::vector<Cell> KeyFor(const CompiledQuery& compiled, Tid tid) const;

  // Consumes a fully time-covered block from its summaries for a
  // non-rollup aggregate query. When `needs_sum` (SUM/AVG selected) the
  // per-segment materialized summaries are folded — the same arithmetic
  // in the same order as decoding, so results stay byte-identical; for
  // COUNT/MIN/MAX-only queries the block's order-free pre-folded
  // aggregates are consumed directly. The SUM/AVG fold reads each
  // segment's gap mask and length through the view, which pins a leased
  // payload. Returns kFallback when the value zone map straddles the
  // predicate (or a scaling is non-positive), so the exhaustive path
  // decides per segment.
  Result<BlockAction> ConsumeCoveredBlock(const CompiledQuery& compiled,
                                          const BlockView& view,
                                          size_t num_aggs, bool needs_sum,
                                          Fold* fold) const;

  const TimeSeriesCatalog* catalog_;
  std::vector<TimeSeriesGroup> groups_;     // Indexed gid-1.
  std::vector<Gid> gid_of_;                 // Indexed tid-1.
  const ModelRegistry* registry_;
};

}  // namespace query
}  // namespace modelardb

#endif  // MODELARDB_QUERY_ENGINE_H_
