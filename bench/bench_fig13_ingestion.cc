// Figure 13: ingestion rate on the EP subset.
//
// The paper ingests an EP subset into every system on one worker (B-1),
// plus ModelarDBv2 on six workers bulk loading (B-6) and with online
// analytics (O-6), on nodes with a 7200 RPM hard drive. Two rates are
// reported here:
//   measured  — wall clock on this machine (fast SSD/tmpfs: encode CPU
//               dominates, which understates the baselines' write cost);
//   disk-bound — points / max(cpu seconds, bytes written / 100 MiB/s),
//               modelling the paper's HDD. Bytes written include each
//               system's write-ahead/commit log (Cassandra and InfluxDB
//               pay it per point; the file formats and ModelarDB do not).
// Multi-worker scenarios report shared-nothing makespan (this machine has
// two hyperthreads of one core, so honest thread scaling saturates
// immediately; workers share nothing by construction, which is the
// property the paper's B-6/O-6 scaling rests on).

#include <atomic>
#include <thread>

#include "bench/harness.h"

namespace {

constexpr double kDiskBytesPerSecond = 100.0 * 1024 * 1024;  // 7200rpm-ish.

void PrintRates(const std::string& name, int64_t points, double cpu_seconds,
                int64_t bytes_written, const char* scenario) {
  double disk_seconds =
      std::max(cpu_seconds, bytes_written / kDiskBytesPerSecond);
  std::printf("%-26s %13.0f %13.0f %s\n", name.c_str(), points / cpu_seconds,
              points / disk_seconds, scenario);
}

}  // namespace

int main() {
  using namespace modelardb;
  bench::PrintHeader("Figure 13", "Ingestion rate, EP");
  bench::JsonReport json("fig13_ingestion");
  bench::TempDir dir("fig13");

  auto ep = bench::MakeEp();
  int64_t points = ep.CountDataPoints();
  std::printf("EP subset: %d series, %lld points\n\n", ep.num_series(),
              static_cast<long long>(points));
  std::printf("%-26s %13s %13s %s\n", "system", "measured/s", "disk-bound/s",
              "(scenario)");

  for (auto kind : {bench::Baseline::kInflux, bench::Baseline::kCassandra,
                    bench::Baseline::kParquet, bench::Baseline::kOrc}) {
    auto instance = bench::CheckOk(
        bench::BuildBaseline(ep, kind, dir.Sub(bench::BaselineName(kind))),
        "baseline ingest");
    PrintRates(bench::BaselineName(kind), instance.points,
               instance.ingest_seconds, instance.store->BytesWritten(),
               "(B-1)");
  }

  {
    auto ds = bench::MakeEp();
    auto v1 = bench::CheckOk(
        bench::BuildModelar(&ds, /*v1=*/true, 0.0, 1, dir.Sub("v1")),
        "v1 ingest");
    PrintRates("ModelarDBv1 (MMC)", v1.report.data_points,
               v1.report.seconds, v1.engine->DiskBytes(), "(B-1)");
    json.Add("v1_b1_points_per_second", v1.report.points_per_second);
  }
  double v2_b1_disk_seconds = 1;
  {
    auto ds = bench::MakeEp();
    auto v2 = bench::CheckOk(
        bench::BuildModelar(&ds, /*v1=*/false, 0.0, 1, dir.Sub("v2_b1")),
        "v2 ingest");
    PrintRates("ModelarDBv2 (MMGC)", v2.report.data_points,
               v2.report.seconds, v2.engine->DiskBytes(), "(B-1)");
    json.Add("v2_b1_points_per_second", v2.report.points_per_second);
    json.Add("v2_b1_compression_ratio", v2.report.compression_ratio);
    std::printf("  compression vs raw points: %.1fx\n",
                v2.report.compression_ratio);
    for (const auto& [model, segments] : v2.report.segments_per_model) {
      std::printf("  %-12s: %lld segments, %lld points\n", model.c_str(),
                  static_cast<long long>(segments),
                  static_cast<long long>(v2.report.points_per_model[model]));
      json.Add("v2_b1_segments_" + model, segments);
    }
    v2_b1_disk_seconds = std::max(
        v2.report.seconds, v2.engine->DiskBytes() / kDiskBytesPerSecond);
  }

  // B-2: two shared-nothing workers; each partition ingested in isolation;
  // makespan = slowest worker (no cross-worker communication exists).
  {
    auto ds = bench::MakeEp();
    ModelRegistry registry = ModelRegistry::Default();
    auto groups = bench::CheckOk(
        Partitioner::Partition(ds.catalog(), ds.BestHints()), "partition");
    cluster::ClusterConfig config;
    config.num_workers = 2;
    config.parallelism = 1;  // Each partition ingested on one thread.
    config.storage_root = dir.Sub("v2_b2");
    auto engine = bench::CheckOk(
        cluster::ClusterEngine::Create(ds.catalog(), groups, &registry,
                                       config),
        "cluster");
    double makespan = 0;
    int64_t total = 0;
    for (int w = 0; w < 2; ++w) {
      std::vector<std::unique_ptr<ingest::GroupRowSource>> worker_sources;
      for (auto& source : ds.MakeSources(groups)) {
        if (engine->WorkerOf(source->gid()) == w) {
          worker_sources.push_back(std::move(source));
        }
      }
      auto report = bench::CheckOk(
          ingest::RunPipeline(engine.get(), std::move(worker_sources), {}),
          "pipeline");
      makespan = std::max(makespan, report.seconds);
      total += report.data_points;
    }
    double disk_seconds = std::max(
        makespan, engine->DiskBytes() / kDiskBytesPerSecond / 2);
    std::printf("%-26s %13.0f %13.0f %s\n", "ModelarDBv2 (MMGC)",
                total / makespan, total / disk_seconds,
                "(B-2 bulk, makespan)");
    std::printf("%-26s %12.2fx\n", "  speedup vs B-1 (disk)",
                v2_b1_disk_seconds / disk_seconds);
    json.Add("v2_b2_points_per_second", total / makespan);
  }

  // O-2: online analytics — S-AGG queries execute on another thread while
  // ingestion runs (measured; demonstrates the capability Parquet/ORC
  // lack).
  {
    auto ds = bench::MakeEp();
    std::atomic<bool> done{false};
    std::atomic<int64_t> queries_executed{0};
    ModelRegistry registry = ModelRegistry::Default();
    auto groups = bench::CheckOk(
        Partitioner::Partition(ds.catalog(), ds.BestHints()), "partition");
    cluster::ClusterConfig config;
    config.num_workers = 2;
    config.storage_root = dir.Sub("v2_o2");
    auto engine = bench::CheckOk(
        cluster::ClusterEngine::Create(ds.catalog(), groups, &registry,
                                       config),
        "cluster");
    auto queries =
        workload::MakeSAgg(ds, workload::QueryTarget::kSegmentView, 64, 7);
    std::thread query_thread([&] {
      size_t i = 0;
      while (!done.load()) {
        if (engine->Execute(queries[i % queries.size()]).ok()) {
          queries_executed.fetch_add(1);
        }
        ++i;
      }
    });
    auto report = bench::CheckOk(
        ingest::RunPipeline(engine.get(), ds.MakeSources(groups), {}),
        "pipeline");
    done.store(true);
    query_thread.join();
    PrintRates("ModelarDBv2 (MMGC)", report.data_points, report.seconds,
               engine->DiskBytes(), "(O-2 online analytics)");
    std::printf("%-26s %13lld\n", "  queries during ingest",
                static_cast<long long>(queries_executed.load()));
    json.Add("o2_points_per_second", report.points_per_second);
    json.Add("o2_queries_per_second",
             report.seconds > 0 ? queries_executed.load() / report.seconds
                                : 0.0);
    json.Add("o2_queries_during_ingest", queries_executed.load());
  }

  bench::PrintNote("paper (millions of points/s): Cassandra 0.08, ORC 0.04, "
                   "Parquet 0.15, InfluxDB 0.17, v1 0.21, v2 0.44 (B-1); "
                   "v2 1.97 (B-6), 1.81 (O-6)");
  bench::PrintNote("shape target (disk-bound column): v2 > v1 > columnar/"
                   "TSM > rows; near-linear multi-worker speedup; online "
                   "analytics costs v2 only a little");
  return 0;
}
