// ClusterEngine: master/worker execution (paper §3.1, Fig 4).
//
// Substitutes the Spark + Cassandra cluster of the paper with an in-process
// master and N workers. The data-placement property that the paper's
// scalability rests on is preserved exactly: every time series group is
// ingested by, stored on and queried from a single worker, so queries
// require no shuffling — workers compute partial aggregates locally and
// the master merges them (Algorithms 5/6 distributed as in §6.2).
//
// The engine only places data: it owns the workers, their coordinators
// and stores, and the pool. Queries run through the one orchestration,
// query::QueryEngine::Execute, over the workers' stores as partitions.
//
// Groups are assigned to the worker with the most available capacity
// (§3.1: "each group is assigned to the worker with the most available
// resources"), measured in series count, largest groups first.

#ifndef MODELARDB_CLUSTER_CLUSTER_H_
#define MODELARDB_CLUSTER_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/group_coordinator.h"
#include "query/engine.h"
#include "storage/segment_store.h"
#include "util/thread_pool.h"

namespace modelardb {
namespace cluster {

struct ClusterConfig {
  int num_workers = 1;
  // Root directory for per-worker stores; empty keeps workers in memory.
  std::string storage_root;
  // Error bound applied to every group's coordinator; the other
  // ingestion and store settings are the GroupCoordinatorConfig and
  // SegmentStoreOptions defaults (the paper's Table 1).
  ErrorBound error_bound = ErrorBound::Lossless();
  // Degree of intra-process parallelism for queries, flushes and (through
  // the pipeline) ingestion:
  //   0  — the process-wide pool sized to the hardware (the default);
  //   1  — fully sequential (no pool; harnesses measuring makespan);
  //   N  — an engine-owned pool of N threads (core-scaling benchmarks).
  // Results are byte-identical at every setting: per-Gid morsel partials
  // are merged in a deterministic order.
  int parallelism = 0;
  // Starts the background health watchdog (obs::Watchdog::Global()) with
  // these options. The watchdog is process-wide and keeps running after
  // the engine is destroyed; HEALTH() works without it (on-demand checks).
  bool start_watchdog = false;
};

// One worker node: its assigned groups' coordinators plus its store.
class Worker {
 public:
  Worker(int id, std::unique_ptr<SegmentStore> store)
      : id_(id), store_(std::move(store)) {}

  int id() const { return id_; }
  SegmentStore* store() { return store_.get(); }
  const SegmentStore* store() const { return store_.get(); }

  void AddCoordinator(Gid gid, std::unique_ptr<GroupCoordinator> coordinator) {
    coordinators_[gid] = std::move(coordinator);
  }
  GroupCoordinator* coordinator(Gid gid) {
    auto it = coordinators_.find(gid);
    return it == coordinators_.end() ? nullptr : it->second.get();
  }
  const std::map<Gid, std::unique_ptr<GroupCoordinator>>& coordinators()
      const {
    return coordinators_;
  }

 private:
  int id_;
  std::unique_ptr<SegmentStore> store_;
  std::map<Gid, std::unique_ptr<GroupCoordinator>> coordinators_;
};

// Thread-safety: the engine's own members are frozen after Create() —
// workers_, partitions_, worker_of_ and the pool pointer are never mutated
// again, so concurrent Execute() calls share them read-only without a
// lock (and without GUARDED_BY; immutable-after-publish is an analyzer
// boundary, DESIGN.md §3e). All mutable shared state lives behind the
// workers' SegmentStores, whose annotated mutexes carry the actual
// guarantees; Ingest() is additionally safe across *different* workers
// only, because GroupCoordinators are single-writer by design.
class ClusterEngine {
 public:
  // `catalog`, `registry` must outlive the engine; `groups` from the
  // Partitioner.
  static Result<std::unique_ptr<ClusterEngine>> Create(
      const TimeSeriesCatalog* catalog, std::vector<TimeSeriesGroup> groups,
      const ModelRegistry* registry, const ClusterConfig& config);

  // Worker a group is assigned to.
  int WorkerOf(Gid gid) const { return worker_of_.at(gid); }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  Worker* worker(int i) { return workers_[i].get(); }

  // Routes one sampling instant of a group to its worker's coordinator and
  // persists emitted segments. Thread-safe across *different* workers.
  Status Ingest(Gid gid, const GroupRow& row);

  // Flushes all coordinators and stores.
  Status FlushAll();

  // Runs a query through query::QueryEngine::Execute with the workers'
  // stores as partitions, in worker order, on the engine's pool. The
  // string overload records a full query trace into
  // obs::Tracer::Global(); the AST overload attaches spans to `trace` when
  // given (null disables tracing).
  Result<query::QueryResult> Execute(const std::string& sql) const;
  Result<query::QueryResult> Execute(const query::Query& ast,
                                     obs::Trace* trace = nullptr) const;

  // Per-worker partial execution (exposed for harnesses that drive the
  // fan-out themselves): QueryEngine::ExecutePartial on the worker's store
  // and the engine's pool; query_engine().MergeFinalize merges the
  // partials to the same bits as Execute, in any worker order. Morsel
  // spans attach under `parent_span` when `trace` is given.
  Result<query::PartialResult> ExecuteOnWorker(
      const query::CompiledQuery& compiled, int worker,
      obs::Trace* trace = nullptr, int32_t parent_span = 0) const;

  const query::QueryEngine& query_engine() const { return *query_engine_; }
  // The workers' stores, in worker order: the partitions Execute runs over.
  const query::Partitions& partitions() const { return partitions_; }
  const ModelRegistry* registry() const { return registry_; }

  // The pool queries/flushes/ingestion run on; null when parallelism == 1.
  ThreadPool* pool() const { return pool_; }

  // Total bytes across worker stores.
  int64_t DiskBytes() const;
  // Aggregated ingest statistics across all coordinators.
  IngestStats TotalStats() const;

 private:
  ClusterEngine() = default;

  ClusterConfig config_;
  const TimeSeriesCatalog* catalog_ = nullptr;
  const ModelRegistry* registry_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  query::Partitions partitions_;  // The workers' stores, in worker order.
  std::map<Gid, int> worker_of_;
  std::unique_ptr<query::QueryEngine> query_engine_;
  std::unique_ptr<ThreadPool> owned_pool_;  // parallelism > 1 only.
  ThreadPool* pool_ = nullptr;
};

}  // namespace cluster
}  // namespace modelardb

#endif  // MODELARDB_CLUSTER_CLUSTER_H_
