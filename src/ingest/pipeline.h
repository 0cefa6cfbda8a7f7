// Streaming ingestion pipeline (paper §3.2, Fig 4 "Data Ingestion").
//
// Substitutes Spark Streaming: sources deliver one GroupRow per sampling
// instant per group; the pipeline routes each group's stream to the worker
// that owns the group and drives its SegmentGenerators, in micro-batches,
// with one ingestion thread per worker (the paper runs one receiver per
// node). Queries can run concurrently — that is the Online Analytics
// scenario of Fig 13.

#ifndef MODELARDB_INGEST_PIPELINE_H_
#define MODELARDB_INGEST_PIPELINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"  // modelarlint:allow(layering) pipeline drains to a cluster sink by design; see DESIGN.md 3h
#include "core/types.h"
#include "util/status.h"

namespace modelardb {
namespace ingest {

// A stream of sampling-instant rows for one time series group.
class GroupRowSource {
 public:
  virtual ~GroupRowSource() = default;
  virtual Gid gid() const = 0;
  // Produces the next row into *row; returns false when exhausted.
  virtual Result<bool> Next(GroupRow* row) = 0;
};

struct PipelineOptions {
  // Rows pulled from one source before moving to the next (micro-batch).
  int micro_batch_rows = 512;
};

struct IngestReport {
  int64_t data_points = 0;  // Values delivered to generators.
  int64_t rows = 0;         // Sampling instants.
  double seconds = 0.0;
  double points_per_second = 0.0;
  // Model-type breakdown and achieved compression, pulled from the
  // cluster's coordinators after the run. Keys are normalized model names
  // ("pmc_mean", "swing", ...) matching the metric label convention. The
  // same values are published as modelardb_ingest_* gauges in the global
  // obs registry (per-group compression under label gid).
  std::map<std::string, int64_t> segments_per_model;
  std::map<std::string, int64_t> points_per_model;
  // Raw point bytes (timestamp + value) / stored segment bytes.
  double compression_ratio = 0.0;
};

// Runs all sources to exhaustion against `cluster` and flushes. Sources
// are partitioned by owning worker; each partition is ingested by its own
// thread, preserving the one-writer-per-group invariant.
Result<IngestReport> RunPipeline(
    cluster::ClusterEngine* cluster,
    std::vector<std::unique_ptr<GroupRowSource>> sources,
    const PipelineOptions& options);

}  // namespace ingest
}  // namespace modelardb

#endif  // MODELARDB_INGEST_PIPELINE_H_
