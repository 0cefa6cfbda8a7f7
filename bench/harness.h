// Shared harness for the per-figure benchmark binaries.
//
// Every table/figure of the paper's evaluation (§7) has one binary in this
// directory; each prints paper-style rows. Absolute numbers differ from
// the paper (single machine, simulated substrates, scaled-down synthetic
// data sets) — the *shape* (who wins, by roughly what factor) is the
// reproduction target; EXPERIMENTS.md records paper-vs-measured.
//
// Scale: set MODELARDB_BENCH_SCALE (default 1.0) to grow/shrink the data.

#ifndef MODELARDB_BENCH_HARNESS_H_
#define MODELARDB_BENCH_HARNESS_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/baselines/baseline_query.h"
#include "bench/baselines/columnar_store.h"
#include "bench/baselines/row_store.h"
#include "bench/baselines/tsm_store.h"
#include "cluster/cluster.h"
#include "ingest/pipeline.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/dataset.h"
#include "workload/queries.h"

namespace modelardb {
namespace bench {

inline double Scale() {
  const char* env = std::getenv("MODELARDB_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0 ? scale : 1.0;
}

// Scaled-down stand-ins for the paper's data sets (see DESIGN.md §1).
inline workload::SyntheticDataset MakeEp() {
  return workload::SyntheticDataset::Ep(
      /*entities=*/12, static_cast<int64_t>(8000 * Scale()));
}
inline workload::SyntheticDataset MakeEh() {
  return workload::SyntheticDataset::Eh(
      /*parks=*/2, /*entities_per_park=*/4,
      static_cast<int64_t>(30000 * Scale()));
}

// RAII temporary directory for a bench's on-disk stores.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("modelardb_bench_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string Sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// A running ModelarDB++ instance (v2, or v1 when built without grouping).
struct ModelarInstance {
  std::unique_ptr<ModelRegistry> registry;
  std::vector<TimeSeriesGroup> groups;
  std::unique_ptr<cluster::ClusterEngine> engine;
  ingest::IngestReport report;
};

// Builds, partitions and ingests `dataset` into a fresh cluster.
// v1 == true disables grouping (MMC without MGC, i.e. ModelarDBv1).
inline Result<ModelarInstance> BuildModelar(
    workload::SyntheticDataset* dataset, bool v1, double error_pct,
    int workers, const std::string& storage_dir,
    const PartitionHints* hints_override = nullptr,
    const ModelRegistry* registry_template = nullptr) {
  ModelarInstance instance;
  instance.registry = std::make_unique<ModelRegistry>(
      registry_template != nullptr ? *registry_template
                                   : ModelRegistry::Default());
  PartitionHints hints = hints_override != nullptr
                             ? *hints_override
                             : (v1 ? PartitionHints::DisableGrouping()
                                   : dataset->BestHints());
  MODELARDB_ASSIGN_OR_RETURN(
      instance.groups, Partitioner::Partition(dataset->catalog(), hints));
  cluster::ClusterConfig config;
  config.num_workers = workers;
  config.storage_root = storage_dir;
  config.error_bound = error_pct == 0.0 ? ErrorBound::Lossless()
                                        : ErrorBound::Relative(error_pct);
  MODELARDB_ASSIGN_OR_RETURN(
      instance.engine,
      cluster::ClusterEngine::Create(dataset->catalog(), instance.groups,
                                     instance.registry.get(), config));
  MODELARDB_ASSIGN_OR_RETURN(
      instance.report,
      ingest::RunPipeline(instance.engine.get(),
                          dataset->MakeSources(instance.groups), {}));
  return instance;
}

// Baseline systems of the evaluation.
enum class Baseline { kInflux, kCassandra, kParquet, kOrc };

inline const char* BaselineName(Baseline b) {
  switch (b) {
    case Baseline::kInflux:
      return "InfluxDB-like (TSM)";
    case Baseline::kCassandra:
      return "Cassandra-like (rows)";
    case Baseline::kParquet:
      return "Parquet-like";
    case Baseline::kOrc:
      return "ORC-like";
  }
  return "?";
}

struct BaselineInstance {
  Baseline kind;
  std::unique_ptr<DataPointStore> store;
  double ingest_seconds = 0;
  int64_t points = 0;
};

inline Result<BaselineInstance> BuildBaseline(
    const workload::SyntheticDataset& dataset, Baseline kind,
    const std::string& directory) {
  BaselineInstance instance;
  instance.kind = kind;
  switch (kind) {
    case Baseline::kInflux: {
      TsmStoreOptions options;
      options.directory = directory;
      MODELARDB_ASSIGN_OR_RETURN(instance.store, TsmStore::Open(options));
      break;
    }
    case Baseline::kCassandra: {
      RowStoreOptions options;
      options.directory = directory;
      MODELARDB_ASSIGN_OR_RETURN(instance.store, RowStore::Open(options));
      break;
    }
    case Baseline::kParquet:
    case Baseline::kOrc: {
      ColumnarStoreOptions options;
      options.directory = directory;
      options.profile = kind == Baseline::kParquet
                            ? ColumnarProfile::kParquetLike
                            : ColumnarProfile::kOrcLike;
      MODELARDB_ASSIGN_OR_RETURN(instance.store,
                                 ColumnarStore::Open(options));
      break;
    }
  }
  Stopwatch stopwatch;
  int64_t points = 0;
  MODELARDB_RETURN_NOT_OK(dataset.ForEachDataPoint(
      [&](const DataPoint& point) {
        ++points;
        return instance.store->Append(point);
      }));
  MODELARDB_RETURN_NOT_OK(instance.store->FinishIngest());
  instance.ingest_seconds = stopwatch.ElapsedSeconds();
  instance.points = points;
  return instance;
}

// --- Query runners (same specs against every system) -----------------------

// Runs every S/L-AGG spec against a baseline store; returns seconds.
inline Result<double> RunAggOnBaseline(
    const DataPointStore& store, const std::vector<workload::AggSpec>& specs) {
  Stopwatch stopwatch;
  for (const workload::AggSpec& spec : specs) {
    DataPointFilter filter;
    filter.tids = spec.tids;
    if (spec.group_by_tid) {
      MODELARDB_RETURN_NOT_OK(
          workload::AggregateScanByTid(store, filter).status());
    } else {
      MODELARDB_RETURN_NOT_OK(
          workload::AggregateScan(store, filter).status());
    }
  }
  return stopwatch.ElapsedSeconds();
}

inline Result<double> RunPrOnBaseline(
    const DataPointStore& store, const std::vector<workload::PrSpec>& specs) {
  Stopwatch stopwatch;
  for (const workload::PrSpec& spec : specs) {
    DataPointFilter filter;
    if (spec.tid != 0) filter.tids = {spec.tid};
    filter.min_time = spec.min_time;
    filter.max_time = spec.max_time;
    MODELARDB_RETURN_NOT_OK(workload::CollectPoints(store, filter).status());
  }
  return stopwatch.ElapsedSeconds();
}

inline Result<double> RunMAggOnBaseline(
    const DataPointStore& store, const workload::SyntheticDataset& dataset,
    const std::vector<workload::MAggSpec>& specs) {
  Stopwatch stopwatch;
  for (const workload::MAggSpec& spec : specs) {
    DataPointFilter filter;
    filter.tids = dataset.catalog().SeriesWithMember(
        spec.where_dim, spec.where_level, spec.where_member);
    MODELARDB_RETURN_NOT_OK(workload::AggregateScanByMemberAndMonth(
                                store, dataset.catalog(), spec.group_dim,
                                spec.group_level, filter)
                                .status());
  }
  return stopwatch.ElapsedSeconds();
}

// Runs a list of SQL statements on a ModelarDB++ cluster; returns seconds.
inline Result<double> RunSqlSet(const cluster::ClusterEngine& engine,
                                const std::vector<std::string>& queries) {
  Stopwatch stopwatch;
  for (const std::string& sql : queries) {
    MODELARDB_RETURN_NOT_OK(engine.Execute(sql).status());
  }
  return stopwatch.ElapsedSeconds();
}

// --- Output helpers ---------------------------------------------------------

// Machine-readable results alongside the human-readable tables: each bench
// writes BENCH_<tag>.json (into MODELARDB_BENCH_JSON_DIR, default the
// current directory; set it to "off" to disable) so the perf trajectory —
// points/sec, queries/sec, thread counts — can be tracked across commits.
class JsonReport {
 public:
  explicit JsonReport(const std::string& tag) : tag_(tag) {
    Add("bench", tag);
    Add("scale", Scale());
    Add("hardware_threads",
        static_cast<int64_t>(ThreadPool::DefaultParallelism()));
  }

  void Add(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    entries_.emplace_back(key, buffer);
  }
  void Add(const std::string& key, int64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, const std::string& value) {
    std::string escaped = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    escaped += '"';
    entries_.emplace_back(key, escaped);
  }

  ~JsonReport() {
    const char* dir = std::getenv("MODELARDB_BENCH_JSON_DIR");
    std::string directory = dir != nullptr ? dir : ".";
    if (directory == "off") return;
    AppendRegistrySnapshot();
    std::string path = directory + "/BENCH_" + tag_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;  // Best effort: benches still print tables.
    std::fputs("{\n", out);
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(out, "  \"%s\": %s%s\n", entries_[i].first.c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fputs("}\n", out);
    std::fclose(out);
  }

 private:
  // Records the obs registry at exit so BENCH_*.json carries the same
  // counters the paper-style tables summarize (e.g. metric_modelardb_
  // pool_tasks_total, metric_modelardb_ingest_compression_ratio).
  // Labels fold into the key: name{model="swing"} → name_model_swing;
  // histograms expand to _count and _sum.
  void AppendRegistrySnapshot() {
    for (const obs::MetricSample& sample :
         obs::MetricsRegistry::Global().Snapshot()) {
      std::string key = "metric_" + sample.name;
      if (!sample.label.empty()) {
        key += '_';
        for (char c : sample.label) {
          if (std::isalnum(static_cast<unsigned char>(c))) {
            key += c;
          } else if (key.back() != '_') {
            key += '_';
          }
        }
        while (!key.empty() && key.back() == '_') key.pop_back();
      }
      switch (sample.kind) {
        case obs::MetricKind::kCounter:
          Add(key, sample.counter_value);
          break;
        case obs::MetricKind::kGauge:
          Add(key, sample.gauge_value);
          break;
        case obs::MetricKind::kHistogram:
          Add(key + "_count", sample.histogram.count);
          Add(key + "_sum", sample.histogram.sum_seconds);
          break;
      }
    }
  }

  std::string tag_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

inline void PrintHeader(const char* figure, const char* title) {
  std::printf("==================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("scale=%.2f\n", Scale());
  std::printf("==================================================\n");
}

inline void PrintRow(const std::string& name, double value,
                     const char* unit) {
  std::printf("%-36s %14.4f %s\n", name.c_str(), value, unit);
}

inline void PrintNote(const std::string& note) {
  std::printf("# %s\n", note.c_str());
}

inline double Mib(int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// Exits with a message on error (bench binaries only).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}
template <typename T>
inline T CheckOk(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace bench
}  // namespace modelardb

#endif  // MODELARDB_BENCH_HARNESS_H_
