// Figure 20: scale-out on 1-32 nodes (Azure in the paper).
//
// The paper grows the data with the node count (each node holds at least
// its memory worth of EP replicas with perturbed values) and plots the
// relative throughput increase for L-AGG on the Segment View and the Data
// Point View — linear to 32 nodes, because each group lives on exactly one
// node so queries never shuffle.
//
// Reproduction: each "node" is a worker with its own EP replica (values
// perturbed per replica, as in the paper). The machine has few cores, so
// honest thread scaling stops early; instead the harness measures each
// worker's partial-aggregation makespan in isolation (valid because
// workers share nothing by construction — the property Fig 20 is about)
// and reports relative increase = W * T(1-worker work) / max_w T_w.

#include "bench/harness.h"

#include "query/parser.h"

int main() {
  using namespace modelardb;
  bench::PrintHeader("Figure 20", "Scale-out, L-AGG (relative increase)");
  bench::JsonReport json("fig20_scaleout");

  const int64_t rows = static_cast<int64_t>(3000 * bench::Scale());
  std::printf("%-8s %18s %18s\n", "workers", "Segment View",
              "Data Point View");

  std::vector<int> worker_counts = {1, 2, 4, 8, 16, 32};
  double sv_base = 0, dpv_base = 0;
  for (int workers : worker_counts) {
    // One EP replica per worker: entities get distinct dimension members
    // per replica, and each replica's values are perturbed by the seed.
    workload::SyntheticDataset replica_template =
        workload::SyntheticDataset::Ep(4, rows);
    int series_per_replica = replica_template.num_series();

    // Build a combined catalog of `workers` replicas.
    TimeSeriesCatalog catalog(std::vector<Dimension>{
        Dimension("Production", {"Type", "Entity"}),
        Dimension("Measure", {"Category", "Concrete"})});
    std::vector<workload::SyntheticDataset> replicas;
    for (int w = 0; w < workers; ++w) {
      replicas.push_back(
          workload::SyntheticDataset::Ep(4, rows, /*seed=*/100 + w));
    }
    std::vector<TimeSeriesGroup> groups;
    ModelRegistry registry = ModelRegistry::Default();

    // Per-replica: partition independently, then offset Tids/Gids into
    // the combined space so each replica's groups land on one worker.
    Tid tid_offset = 0;
    Gid gid_offset = 0;
    struct Placed {
      int replica;
      TimeSeriesGroup group;        // Combined-space ids.
      TimeSeriesGroup local_group;  // Replica-local ids.
    };
    std::vector<Placed> placed;
    for (int w = 0; w < workers; ++w) {
      auto local = bench::CheckOk(
          Partitioner::Partition(replicas[w].catalog(),
                                 replicas[w].BestHints()),
          "partition");
      for (Tid t = 1; t <= series_per_replica; ++t) {
        TimeSeriesMeta meta = replicas[w].catalog()->Get(t);
        meta.tid = tid_offset + t;
        meta.members[0][1] += "_r" + std::to_string(w);  // Unique entity.
        catalog.AddSeries(meta).ok();
      }
      for (const TimeSeriesGroup& g : local) {
        TimeSeriesGroup combined;
        combined.gid = gid_offset + g.gid;
        combined.si = g.si;
        for (Tid t : g.tids) combined.tids.push_back(tid_offset + t);
        groups.push_back(combined);
        placed.push_back({w, combined, g});
      }
      tid_offset += series_per_replica;
      gid_offset += static_cast<Gid>(local.size());
    }

    // One in-memory store per worker; ingest each replica's groups.
    std::vector<std::unique_ptr<SegmentStore>> stores;
    for (int w = 0; w < workers; ++w) {
      stores.push_back(
          std::move(*SegmentStore::Open(SegmentStoreOptions{})));
    }
    for (const Placed& p : placed) {
      SegmentGeneratorConfig config;
      config.gid = p.group.gid;
      config.si = replicas[p.replica].si();
      config.num_series = static_cast<int>(p.group.tids.size());
      config.registry = &registry;
      SegmentGenerator generator(config, p.group.tids);
      std::vector<Segment> segments;
      for (int64_t r = 0; r < rows; ++r) {
        GroupRow row;
        row.timestamp = replicas[p.replica].TimestampAt(r);
        for (Tid local_tid : p.local_group.tids) {
          row.values.push_back(
              replicas[p.replica].RawValue(local_tid, r) *
              static_cast<Value>(
                  replicas[p.replica].catalog()->Get(local_tid).scaling));
          row.present.push_back(replicas[p.replica].Present(local_tid, r));
        }
        bench::CheckOk(generator.Ingest(row, &segments), "ingest");
      }
      bench::CheckOk(generator.Flush(&segments), "flush");
      bench::CheckOk(stores[p.replica]->PutBatch(segments), "put");
    }

    query::QueryEngine engine(&catalog, groups, &registry);
    auto run = [&](workload::QueryTarget target) {
      std::vector<std::string> sqls;
      for (const auto& spec :
           workload::MakeLAggSpecs(replicas[0])) {
        sqls.push_back(workload::ToSql(spec, target));
      }
      // Per-worker makespan: the slowest worker bounds the wall clock of
      // a real shared-nothing cluster.
      double makespan = 0;
      for (int w = 0; w < workers; ++w) {
        Stopwatch stopwatch;
        for (const std::string& sql : sqls) {
          auto ast = bench::CheckOk(query::ParseQuery(sql), "parse");
          auto compiled = bench::CheckOk(engine.Compile(ast), "compile");
          bench::CheckOk(engine.ExecutePartial(compiled, *stores[w]),
                         "partial");
        }
        makespan = std::max(makespan, stopwatch.ElapsedSeconds());
      }
      // Total work grows with workers; throughput = work / makespan.
      return static_cast<double>(workers) / makespan;
    };
    double sv = run(workload::QueryTarget::kSegmentView);
    double dpv = run(workload::QueryTarget::kDataPointView);
    if (workers == 1) {
      sv_base = sv;
      dpv_base = dpv;
    }
    std::printf("%-8d %18.2f %18.2f\n", workers, sv / sv_base,
                dpv / dpv_base);
    json.Add("sv_relative_w" + std::to_string(workers), sv / sv_base);
    json.Add("dpv_relative_w" + std::to_string(workers), dpv / dpv_base);
  }
  bench::PrintNote("paper: linear relative increase to 32 nodes for both "
                   "views (no shuffling: each series lives on one node)");

  // Intra-worker core scaling: the same L-AGG partials on ONE worker's
  // store, split into per-Gid morsels on the shared pool versus executed
  // sequentially (parallelism = 1). This is the dimension Fig 20 cannot
  // show (it scales across workers); the morsel engine adds it.
  {
    workload::SyntheticDataset ds = workload::SyntheticDataset::Ep(8, rows);
    auto groups = bench::CheckOk(
        Partitioner::Partition(ds.catalog(), ds.BestHints()), "partition");
    ModelRegistry registry = ModelRegistry::Default();
    auto store = std::move(*SegmentStore::Open(SegmentStoreOptions{}));
    for (const TimeSeriesGroup& group : groups) {
      SegmentGeneratorConfig config;
      config.gid = group.gid;
      config.si = ds.si();
      config.num_series = static_cast<int>(group.tids.size());
      config.registry = &registry;
      SegmentGenerator generator(config, group.tids);
      std::vector<Segment> segments;
      for (int64_t r = 0; r < rows; ++r) {
        GroupRow row;
        row.timestamp = ds.TimestampAt(r);
        for (Tid tid : group.tids) {
          row.values.push_back(
              ds.RawValue(tid, r) *
              static_cast<Value>(ds.catalog()->Get(tid).scaling));
          row.present.push_back(ds.Present(tid, r));
        }
        bench::CheckOk(generator.Ingest(row, &segments), "ingest");
      }
      bench::CheckOk(generator.Flush(&segments), "flush");
      bench::CheckOk(store->PutBatch(segments), "put");
    }

    query::QueryEngine engine(ds.catalog(), groups, &registry);
    const size_t num_morsels = store->Gids().size();
    auto time_partials = [&](ThreadPool* pool,
                             workload::QueryTarget target) {
      std::vector<std::string> sqls;
      for (const auto& spec : workload::MakeLAggSpecs(ds)) {
        sqls.push_back(workload::ToSql(spec, target));
      }
      Stopwatch stopwatch;
      for (const std::string& sql : sqls) {
        auto ast = bench::CheckOk(query::ParseQuery(sql), "parse");
        auto compiled = bench::CheckOk(engine.Compile(ast), "compile");
        bench::CheckOk(
            engine.ExecutePartial(compiled, *store, pool),
            "partial");
      }
      return stopwatch.ElapsedSeconds();
    };

    int threads = ThreadPool::DefaultParallelism();
    std::printf("\nintra-worker morsel scaling (1 worker, %d threads, "
                "%zu Gid morsels)\n", threads, num_morsels);
    std::printf("%-24s %14s %14s %10s\n", "view", "seq s", "pool s",
                "speedup");
    for (auto target : {workload::QueryTarget::kSegmentView,
                        workload::QueryTarget::kDataPointView}) {
      const char* name = target == workload::QueryTarget::kSegmentView
                             ? "Segment View"
                             : "Data Point View";
      time_partials(nullptr, target);  // Warm-up (decoders, page cache).
      double seq = time_partials(nullptr, target);
      double pooled = time_partials(ThreadPool::Shared(), target);
      std::printf("%-24s %14.4f %14.4f %9.2fx\n", name, seq, pooled,
                  seq / pooled);
      std::string key = target == workload::QueryTarget::kSegmentView
                            ? "intra_sv" : "intra_dpv";
      json.Add(key + "_sequential_seconds", seq);
      json.Add(key + "_pool_seconds", pooled);
      json.Add(key + "_speedup", seq / pooled);
    }
    json.Add("intra_morsels", static_cast<int64_t>(num_morsels));
    bench::PrintNote("morsel target: speedup -> min(threads, morsels) on "
                     "multi-core machines; ~1.0x on one core");
  }
  return 0;
}
