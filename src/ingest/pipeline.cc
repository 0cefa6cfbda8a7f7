#include "ingest/pipeline.h"

#include <atomic>
#include <cctype>

#include "obs/event_ring.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace modelardb {
namespace ingest {
namespace {

// "PMC-Mean" → "pmc_mean": metric label convention (see metric_names.h).
std::string NormalizeModelName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      out += '_';
    }
  }
  return out;
}

// Raw footprint of one data point: its timestamp plus its value.
constexpr double kRawPointBytes = sizeof(Timestamp) + sizeof(Value);

// Ingests one partition of sources (all owned by the same worker) to
// exhaustion, micro-batch by micro-batch.
Status RunPartition(cluster::ClusterEngine* cluster,
                    std::vector<GroupRowSource*> sources,
                    const PipelineOptions& options, std::atomic<int64_t>* rows,
                    std::atomic<int64_t>* points) {
  std::vector<bool> exhausted(sources.size(), false);
  size_t remaining = sources.size();
  GroupRow row;
  while (remaining > 0) {
    for (size_t i = 0; i < sources.size(); ++i) {
      if (exhausted[i]) continue;
      for (int b = 0; b < options.micro_batch_rows; ++b) {
        MODELARDB_ASSIGN_OR_RETURN(bool has_row, sources[i]->Next(&row));
        if (!has_row) {
          exhausted[i] = true;
          --remaining;
          break;
        }
        MODELARDB_RETURN_NOT_OK(cluster->Ingest(sources[i]->gid(), row));
        rows->fetch_add(1, std::memory_order_relaxed);
        points->fetch_add(row.PresentCount(), std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<IngestReport> RunPipeline(
    cluster::ClusterEngine* cluster,
    std::vector<std::unique_ptr<GroupRowSource>> sources,
    const PipelineOptions& options) {
  // Partition sources by owning worker (one writer per group).
  std::vector<std::vector<GroupRowSource*>> partitions(
      cluster->num_workers());
  for (const auto& source : sources) {
    partitions[cluster->WorkerOf(source->gid())].push_back(source.get());
  }

  // Lock-free by design: the row/point totals are relaxed atomics shared
  // by all partition tasks (exactness needs the sum, not any ordering),
  // and statuses[i] below is owned exclusively by partition task i with
  // TaskGroup::Wait() as the publishing barrier — the pipeline itself
  // holds no locks, which keeps the one-writer-per-group invariant the
  // only ingestion-side synchronization (DESIGN.md §3b).
  std::atomic<int64_t> rows{0};
  std::atomic<int64_t> points{0};
  Stopwatch stopwatch;

  // One ingestion task per worker on the cluster's pool (one writer per
  // group). A single worker, or a sequential cluster
  // (ClusterConfig::parallelism = 1, no pool), runs the partitions inline,
  // in worker order.
  ThreadPool* pool = cluster->num_workers() > 1 ? cluster->pool() : nullptr;
  std::vector<Status> statuses(partitions.size());
  TaskGroup group(pool);
  for (size_t i = 0; i < partitions.size(); ++i) {
    if (partitions[i].empty()) continue;
    group.Submit([&, i] {
      statuses[i] = RunPartition(cluster, partitions[i], options, &rows,
                                 &points);
    });
  }
  group.Wait();
  for (const Status& status : statuses) {
    MODELARDB_RETURN_NOT_OK(status);
  }
  MODELARDB_RETURN_NOT_OK(cluster->FlushAll());

  IngestReport report;
  report.seconds = stopwatch.ElapsedSeconds();
  report.rows = rows.load();
  report.data_points = points.load();
  report.points_per_second =
      report.seconds > 0 ? report.data_points / report.seconds : 0;

  // Model-type breakdown and compression from the coordinators, published
  // both on the report and as obs gauges (cold path: the run is over).
  IngestStats stats = cluster->TotalStats();
  auto model_label = [&](Mid mid) {
    Result<std::string> name = cluster->registry()->ModelName(mid);
    return NormalizeModelName(name.ok() ? *name
                                        : "mid_" + std::to_string(mid));
  };
  for (const auto& [mid, n] : stats.segments_per_model) {
    report.segments_per_model[model_label(mid)] += n;
  }
  for (const auto& [mid, n] : stats.values_per_model) {
    report.points_per_model[model_label(mid)] += n;
  }
  if (stats.bytes_emitted > 0) {
    report.compression_ratio =
        static_cast<double>(stats.values_ingested) * kRawPointBytes /
        static_cast<double>(stats.bytes_emitted);
  }

  obs::EventRing::Global().Record(
      obs::EventKind::kIngestRun, report.rows,
      static_cast<int64_t>(report.seconds * 1e9), "pipeline");

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(obs::kIngestRowsTotal).Add(report.rows);
  registry.GetCounter(obs::kIngestPointsTotal).Add(report.data_points);
  registry.GetCounter(obs::kIngestPipelineRunsTotal).Add();
  registry.GetGauge(obs::kIngestPointsPerSecond)
      .Set(report.points_per_second);
  for (const auto& [model, n] : report.segments_per_model) {
    registry.GetGauge(obs::kIngestSegments, "model", model)
        .Set(static_cast<double>(n));
  }
  for (const auto& [model, n] : report.points_per_model) {
    registry.GetGauge(obs::kIngestModelPoints, "model", model)
        .Set(static_cast<double>(n));
  }
  registry.GetGauge(obs::kIngestCompressionRatio)
      .Set(report.compression_ratio);
  for (int w = 0; w < cluster->num_workers(); ++w) {
    for (const auto& [gid, coordinator] :
         cluster->worker(w)->coordinators()) {
      IngestStats group_stats = coordinator->stats();
      if (group_stats.bytes_emitted <= 0) continue;
      registry.GetGauge(obs::kIngestCompressionRatio, "gid",
                        std::to_string(gid))
          .Set(static_cast<double>(group_stats.values_ingested) *
               kRawPointBytes /
               static_cast<double>(group_stats.bytes_emitted));
    }
  }
  return report;
}

}  // namespace ingest
}  // namespace modelardb
