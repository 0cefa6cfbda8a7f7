// Similarity search directly on models (paper §9, future work (ii)).
//
// Finds the k windows of a series most similar to a query pattern under
// the Euclidean distance, operating on stored segments:
//   - contiguous runs of segments are searched window by window,
//   - a per-segment lower bound computed from the segment's value
//     statistics (no decoding) prunes windows that cannot beat the current
//     k-th best: any point falling in a segment whose value range is `g`
//     away from the pattern's value range contributes at least g^2,
//   - surviving windows are evaluated on reconstructed values with early
//     abandonment.
// Distances are computed in raw (descaled) units, like query results.

#ifndef MODELARDB_QUERY_SIMILARITY_H_
#define MODELARDB_QUERY_SIMILARITY_H_

#include <vector>

#include "query/engine.h"

namespace modelardb {
namespace query {

struct SimilarityMatch {
  Tid tid = 0;
  Timestamp start_time = 0;  // First instant of the matching window.
  double distance = 0.0;     // Euclidean distance to the pattern.

  bool operator==(const SimilarityMatch&) const = default;
};

struct SimilarityStats {
  int64_t windows_considered = 0;
  int64_t windows_pruned = 0;    // Rejected via segment statistics alone.
  int64_t segments_decoded = 0;
};

class SimilaritySearch {
 public:
  // `engine` provides group metadata and decoding; must outlive this.
  SimilaritySearch(const QueryEngine* engine, const ModelRegistry* registry,
                   const TimeSeriesCatalog* catalog)
      : engine_(engine), registry_(registry), catalog_(catalog) {}

  // Top-k most similar windows of series `tid` to `pattern`, over the
  // segments of `partitions` (a cluster's stores, or one store). Matches
  // are sorted by ascending distance; ties broken by start time. An
  // unknown `tid` is InvalidArgument.
  Result<std::vector<SimilarityMatch>> TopK(
      const Partitions& partitions, Tid tid,
      const std::vector<Value>& pattern, int k,
      SimilarityStats* stats = nullptr) const;

  // Top-k across every series.
  Result<std::vector<SimilarityMatch>> TopKAll(
      const Partitions& partitions, const std::vector<Value>& pattern, int k,
      SimilarityStats* stats = nullptr) const;

 private:
  const QueryEngine* engine_;
  const ModelRegistry* registry_;
  const TimeSeriesCatalog* catalog_;
};

}  // namespace query
}  // namespace modelardb

#endif  // MODELARDB_QUERY_SIMILARITY_H_
