// Model-based analytics: the paper's future-work features (§9) in action.
//
// Demonstrates the three extensions this library implements beyond the
// paper's evaluation:
//   (i)  value predicates answered with model-exploiting segment pruning
//        (per-segment min/max statistics skip segments without decoding),
//   (ii) similarity search executed directly on segments, with a
//        statistics-based lower bound pruning most windows,
//   (iii) fully automatic partitioning: correlation hints and scaling
//        constants inferred from a data sample, no configuration at all.

#include <cstdio>

#include "cluster/cluster.h"
#include "ingest/pipeline.h"
#include "partition/auto_hints.h"
#include "query/similarity.h"
#include "workload/dataset.h"

using namespace modelardb;  // Example code only.

int main() {
  workload::SyntheticDataset farm =
      workload::SyntheticDataset::Ep(4, 20000);

  // (iii) No hand-written hints: infer groups and scaling from a sample.
  auto sample = [&farm](Tid tid, int64_t i) -> Value {
    return farm.RawValue(tid, i);
  };
  auto groups = InferPartitioning(farm.catalog(), sample);
  if (!groups.ok()) {
    std::fprintf(stderr, "inference failed: %s\n",
                 groups.status().ToString().c_str());
    return 1;
  }
  int multi = 0;
  for (const auto& g : *groups) multi += g.tids.size() > 1 ? 1 : 0;
  std::printf("(iii) inferred %zu groups (%d multi-series) and scaling "
              "constants, e.g. Tid 2 -> %.2f\n",
              groups->size(), multi, farm.catalog()->Get(2).scaling);

  ModelRegistry registry = ModelRegistry::Default();
  cluster::ClusterConfig config;
  config.error_bound = ErrorBound::Relative(1.0);
  auto engine = cluster::ClusterEngine::Create(farm.catalog(), *groups,
                                               &registry, config);
  auto report =
      ingest::RunPipeline(engine->get(), farm.MakeSources(*groups), {});
  std::printf("ingested %lld points\n\n",
              static_cast<long long>(report->data_points));

  // (i) Value predicates: hours where turbine E0's production exceeded
  // 150 — the segment statistics prune everything below without decoding.
  const char* sql =
      "SELECT CUBE_COUNT_HOUR(*) FROM Segment WHERE Tid = 1 AND "
      "Value > 150 ORDER BY HOUR LIMIT 5";
  std::printf("(i) > %s\n", sql);
  auto result = (*engine)->Execute(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", result->ToString().c_str());

  // (ii) Similarity search: find the 3 stretches of turbine E1's power
  // most similar to turbine E0's last 32 instants.
  std::vector<Value> pattern;
  for (int64_t i = 20000 - 32; i < 20000; ++i) {
    pattern.push_back(farm.RawValue(1, i));
  }
  query::SimilaritySearch search(&(*engine)->query_engine(), &registry,
                                 farm.catalog());
  query::SimilarityStats stats;
  auto matches = search.TopK((*engine)->partitions(), /*tid=*/7, pattern, 3,
                             &stats);
  if (!matches.ok()) {
    std::fprintf(stderr, "similarity failed: %s\n",
                 matches.status().ToString().c_str());
    return 1;
  }
  std::printf("(ii) top-3 matches on Tid 7 (of %lld windows, %lld pruned "
              "by segment statistics, %lld segments decoded):\n",
              static_cast<long long>(stats.windows_considered),
              static_cast<long long>(stats.windows_pruned),
              static_cast<long long>(stats.segments_decoded));
  for (const auto& match : *matches) {
    std::printf("  start=%s distance=%.2f\n",
                FormatTimestamp(match.start_time).c_str(), match.distance);
  }
  return 0;
}
