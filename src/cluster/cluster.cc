#include "cluster/cluster.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "obs/watchdog.h"

namespace modelardb {
namespace cluster {
namespace {

obs::Counter& ClusterSegmentsEmitted() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kClusterSegmentsEmittedTotal);
  return counter;
}
obs::Counter& ClusterFlushes() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kClusterFlushesTotal);
  return counter;
}

}  // namespace

Result<std::unique_ptr<ClusterEngine>> ClusterEngine::Create(
    const TimeSeriesCatalog* catalog, std::vector<TimeSeriesGroup> groups,
    const ModelRegistry* registry, const ClusterConfig& config) {
  if (config.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  std::unique_ptr<ClusterEngine> engine(new ClusterEngine());
  engine->config_ = config;
  engine->catalog_ = catalog;
  engine->registry_ = registry;
  if (config.start_watchdog) {
    obs::Watchdog::Global().Start();
  }
  if (config.parallelism == 1) {
    engine->pool_ = nullptr;  // Fully sequential.
  } else if (config.parallelism > 1) {
    engine->owned_pool_ = std::make_unique<ThreadPool>(config.parallelism);
    engine->pool_ = engine->owned_pool_.get();
  } else {
    engine->pool_ = ThreadPool::Shared();
  }

  // Capacity-based assignment (§3.1) happens before the stores open:
  // largest groups first, each to the worker with the most available
  // capacity (fewest assigned series). The assignment is needed up front
  // so each worker's store knows its groups' sizes — the summary index
  // materializes gap-aware per-segment aggregates at Put/replay time.
  std::vector<const TimeSeriesGroup*> by_size;
  by_size.reserve(groups.size());
  for (const TimeSeriesGroup& group : groups) by_size.push_back(&group);
  std::stable_sort(by_size.begin(), by_size.end(),
                   [](const TimeSeriesGroup* a, const TimeSeriesGroup* b) {
                     return a->tids.size() > b->tids.size();
                   });
  std::vector<size_t> load(config.num_workers, 0);
  std::vector<std::map<Gid, int>> worker_group_sizes(config.num_workers);
  for (const TimeSeriesGroup* group : by_size) {
    int target = 0;
    for (int i = 1; i < config.num_workers; ++i) {
      if (load[i] < load[target]) target = i;
    }
    load[target] += group->tids.size();
    engine->worker_of_[group->gid] = target;
    worker_group_sizes[target][group->gid] =
        static_cast<int>(group->tids.size());
  }

  for (int i = 0; i < config.num_workers; ++i) {
    SegmentStoreOptions store_options;
    if (!config.storage_root.empty()) {
      store_options.directory =
          config.storage_root + "/worker" + std::to_string(i);
    }
    store_options.registry = registry;
    store_options.group_sizes = std::move(worker_group_sizes[i]);
    MODELARDB_ASSIGN_OR_RETURN(std::unique_ptr<SegmentStore> store,
                               SegmentStore::Open(store_options));
    engine->partitions_.push_back(store.get());
    engine->workers_.push_back(
        std::make_unique<Worker>(i, std::move(store)));
  }

  for (const TimeSeriesGroup* group : by_size) {
    int target = engine->worker_of_[group->gid];

    GroupCoordinatorConfig coordinator_config;
    coordinator_config.generator.gid = group->gid;
    coordinator_config.generator.si = group->si;
    coordinator_config.generator.num_series =
        static_cast<int>(group->tids.size());
    coordinator_config.generator.error_bound = config.error_bound;
    coordinator_config.generator.registry = registry;
    engine->workers_[target]->AddCoordinator(
        group->gid,
        std::make_unique<GroupCoordinator>(coordinator_config, group->tids));
  }

  engine->query_engine_ = std::make_unique<query::QueryEngine>(
      catalog, std::move(groups), registry);
  return engine;
}

Status ClusterEngine::Ingest(Gid gid, const GroupRow& row) {
  auto it = worker_of_.find(gid);
  if (it == worker_of_.end()) {
    return Status::NotFound("unknown Gid: " + std::to_string(gid));
  }
  Worker* worker = workers_[it->second].get();
  GroupCoordinator* coordinator = worker->coordinator(gid);
  std::vector<Segment> segments;
  MODELARDB_RETURN_NOT_OK(coordinator->Ingest(row, &segments));
  if (!segments.empty()) {
    ClusterSegmentsEmitted().Add(static_cast<int64_t>(segments.size()));
    MODELARDB_RETURN_NOT_OK(worker->store()->PutBatch(segments));
  }
  return Status::OK();
}

Status ClusterEngine::FlushAll() {
  ClusterFlushes().Add();
  // One task per worker: each group's coordinator and each store is
  // touched by exactly one task (the one-writer-per-group invariant).
  std::vector<Status> statuses(workers_.size());
  TaskGroup group(pool_);
  for (size_t i = 0; i < workers_.size(); ++i) {
    group.Submit([this, &statuses, i] {
      Worker* worker = workers_[i].get();
      auto flush_worker = [&]() -> Status {
        for (const auto& [gid, coordinator] : worker->coordinators()) {
          std::vector<Segment> segments;
          MODELARDB_RETURN_NOT_OK(coordinator->Flush(&segments));
          if (!segments.empty()) {
            ClusterSegmentsEmitted().Add(
                static_cast<int64_t>(segments.size()));
            MODELARDB_RETURN_NOT_OK(worker->store()->PutBatch(segments));
          }
        }
        return worker->store()->Flush();
      };
      statuses[i] = flush_worker();
    });
  }
  group.Wait();
  for (const Status& status : statuses) {
    MODELARDB_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

Result<query::PartialResult> ClusterEngine::ExecuteOnWorker(
    const query::CompiledQuery& compiled, int worker, obs::Trace* trace,
    int32_t parent_span) const {
  return query_engine_->ExecutePartial(compiled, *workers_[worker]->store(),
                                       pool_, trace, parent_span);
}

Result<query::QueryResult> ClusterEngine::Execute(const query::Query& ast,
                                                  obs::Trace* trace) const {
  return query_engine_->Execute(ast, partitions_, pool_, trace);
}

Result<query::QueryResult> ClusterEngine::Execute(
    const std::string& sql) const {
  return query_engine_->Execute(sql, partitions_, pool_);
}

int64_t ClusterEngine::DiskBytes() const {
  int64_t total = 0;
  for (const auto& worker : workers_) total += worker->store()->DiskBytes();
  return total;
}

IngestStats ClusterEngine::TotalStats() const {
  IngestStats total;
  for (const auto& worker : workers_) {
    for (const auto& [gid, coordinator] : worker->coordinators()) {
      IngestStats stats = coordinator->stats();
      total.rows_ingested += stats.rows_ingested;
      total.values_ingested += stats.values_ingested;
      total.segments_emitted += stats.segments_emitted;
      total.bytes_emitted += stats.bytes_emitted;
      for (const auto& [mid, n] : stats.segments_per_model) {
        total.segments_per_model[mid] += n;
      }
      for (const auto& [mid, n] : stats.values_per_model) {
        total.values_per_model[mid] += n;
      }
    }
  }
  return total;
}

}  // namespace cluster
}  // namespace modelardb
