// modelardb_cli: a small interactive server/shell around ModelarDB++.
//
// Two modes:
//   modelardb_cli --config <file> [--workers N] [--bound PCT] [--data DIR]
//       Loads a deployment configuration (dimensions, per-series CSV
//       files, correlation hints — see src/ingest/csv.h), partitions,
//       ingests every CSV, then starts a SQL shell.
//   modelardb_cli --demo [--workers N] [--bound PCT]
//       Generates the synthetic EP-like wind data set, ingests it and
//       starts the shell (no files needed).
//
// Shell commands:
//   <SQL>;                 run a query (Segment/DataPoint views, §6.1)
//   \series                list time series and their dimensions
//   \groups                list time series groups and worker placement
//   \stats                 ingestion/storage statistics
//   \metrics [prom|json]   obs registry snapshot (default: table;
//                          prom = Prometheus text format, json = JSON)
//   \trace [n]             span tree of the n-th most recent query trace
//                          (default 0, the newest)
//   \health                watchdog health verdict (ok/degraded/stalled
//                          with reasons; same rows as SELECT * FROM
//                          HEALTH())
//   \similar <tid> <k> <v1> <v2> ...   top-k similarity search (§9 ext.)
//   \quit                  exit
//
// SQL also exposes the observability layer: SELECT * FROM METRICS(),
// SELECT * FROM TRACES() and SELECT * FROM HEALTH(); EXPLAIN ANALYZE
// <query> prints the span tree.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>

#include "cluster/cluster.h"
#include "ingest/csv.h"
#include "ingest/pipeline.h"
#include "obs/bundle.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "query/similarity.h"
#include "util/strings.h"
#include "workload/dataset.h"

namespace {

using namespace modelardb;

struct Options {
  std::string config_path;
  bool demo = false;
  int workers = 1;
  double bound_pct = 0.0;
  std::string data_dir;  // Empty: in-memory.
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: modelardb_cli (--config <file> | --demo) "
               "[--workers N] [--bound PCT] [--data DIR]\n");
}

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

void RunShell(cluster::ClusterEngine* engine,
              const TimeSeriesCatalog& catalog,
              const ModelRegistry& registry) {
  query::SimilaritySearch search(&engine->query_engine(), &registry,
                                 &catalog);
  std::printf("ModelarDB++ shell. Terminate SQL with ';'. \\quit to exit.\n");
  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "modelardb> " : "        -> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string trimmed = TrimString(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] == '\\') {
      std::istringstream args(trimmed.substr(1));
      std::string command;
      args >> command;
      if (command == "quit" || command == "q") break;
      if (command == "series") {
        for (Tid tid = 1; tid <= catalog.NumSeries(); ++tid) {
          const TimeSeriesMeta& meta = catalog.Get(tid);
          std::printf("Tid %-4d gid=%-3d si=%lldms scaling=%.3g source=%s",
                      tid, meta.gid, static_cast<long long>(meta.si),
                      meta.scaling, meta.source.c_str());
          for (size_t d = 0; d < meta.members.size(); ++d) {
            std::printf(" %s=%s", catalog.dimensions()[d].name().c_str(),
                        JoinStrings(meta.members[d], "/").c_str());
          }
          std::printf("\n");
        }
      } else if (command == "groups") {
        for (const TimeSeriesGroup& group :
             engine->query_engine().groups()) {
          std::printf("Gid %-3d worker=%d tids=[", group.gid,
                      engine->WorkerOf(group.gid));
          for (size_t i = 0; i < group.tids.size(); ++i) {
            std::printf("%s%d", i ? ", " : "", group.tids[i]);
          }
          std::printf("]\n");
        }
      } else if (command == "stats") {
        IngestStats stats = engine->TotalStats();
        std::printf("data points : %lld\n",
                    static_cast<long long>(stats.values_ingested));
        std::printf("segments    : %lld\n",
                    static_cast<long long>(stats.segments_emitted));
        std::printf("disk bytes  : %lld\n",
                    static_cast<long long>(engine->DiskBytes()));
        for (const auto& [mid, n] : stats.values_per_model) {
          auto name = registry.ModelName(mid);
          std::printf("  %-12s: %lld points\n",
                      name.ok() ? name->c_str() : "?",
                      static_cast<long long>(n));
        }
      } else if (command == "metrics") {
        std::string format;
        args >> format;
        if (format == "prom") {
          std::printf("%s", obs::RenderPrometheus().c_str());
        } else if (format == "json") {
          std::printf("%s", obs::RenderJson().c_str());
        } else {
          auto result = engine->Execute("SELECT * FROM METRICS()");
          if (result.ok()) {
            std::printf("%s", result->ToString().c_str());
          } else {
            std::printf("error: %s\n", result.status().ToString().c_str());
          }
        }
      } else if (command == "health") {
        auto result = engine->Execute("SELECT * FROM HEALTH()");
        if (result.ok()) {
          std::printf("%s", result->ToString().c_str());
        } else {
          std::printf("error: %s\n", result.status().ToString().c_str());
        }
      } else if (command == "trace") {
        int n = 0;
        args >> n;
        std::vector<obs::TraceRecord> traces = obs::Tracer::Global().Recent();
        if (traces.empty()) {
          std::printf("no traces recorded yet (run a query first)\n");
        } else if (n < 0 || static_cast<size_t>(n) >= traces.size()) {
          std::printf("only %zu trace(s) retained\n", traces.size());
        } else {
          const obs::TraceRecord& trace = traces[n];
          std::printf("trace %lld: %s\n",
                      static_cast<long long>(trace.trace_id),
                      trace.label.c_str());
          std::printf("%s", obs::RenderSpanTree(trace.spans, "  ").c_str());
        }
      } else if (command == "similar") {
        Tid tid;
        int k;
        if (!(args >> tid >> k)) {
          std::printf("usage: \\similar <tid> <k> <v1> <v2> ...\n");
          continue;
        }
        std::vector<Value> pattern;
        double v;
        while (args >> v) pattern.push_back(static_cast<Value>(v));
        auto matches = search.TopK(engine->partitions(), tid, pattern, k);
        if (!matches.ok()) {
          std::printf("error: %s\n", matches.status().ToString().c_str());
          continue;
        }
        for (const query::SimilarityMatch& match : *matches) {
          std::printf("tid=%d start=%s distance=%.4f\n", match.tid,
                      FormatTimestamp(match.start_time).c_str(),
                      match.distance);
        }
      } else {
        std::printf("unknown command: \\%s\n", command.c_str());
      }
      continue;
    }
    buffer += (buffer.empty() ? "" : " ") + trimmed;
    if (buffer.back() != ';') continue;
    buffer.pop_back();
    auto result = engine->Execute(buffer);
    buffer.clear();
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    std::printf("%s(%zu rows)\n", result->ToString().c_str(),
                result->rows.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--config") {
      const char* v = next();
      if (!v) return PrintUsage(), 1;
      options.config_path = v;
    } else if (arg == "--demo") {
      options.demo = true;
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return PrintUsage(), 1;
      options.workers = std::atoi(v);
    } else if (arg == "--bound") {
      const char* v = next();
      if (!v) return PrintUsage(), 1;
      options.bound_pct = std::atof(v);
    } else if (arg == "--data") {
      const char* v = next();
      if (!v) return PrintUsage(), 1;
      options.data_dir = v;
    } else {
      PrintUsage();
      return 1;
    }
  }
  if (options.config_path.empty() && !options.demo) {
    PrintUsage();
    return 1;
  }

  ModelRegistry registry = ModelRegistry::Default();
  cluster::ClusterConfig cluster_config;
  cluster_config.num_workers = options.workers;
  cluster_config.storage_root = options.data_dir;
  cluster_config.error_bound =
      options.bound_pct == 0.0 ? ErrorBound::Lossless()
                               : ErrorBound::Relative(options.bound_pct);
  // Interactive server: run the health watchdog and write a diagnostics
  // bundle (flight recorder + metrics + traces) on any fatal signal.
  cluster_config.start_watchdog = true;
  obs::InstallCrashHandler(options.data_dir.empty() ? "." : options.data_dir);

  std::unique_ptr<TimeSeriesCatalog> catalog;
  PartitionHints hints;
  std::unique_ptr<workload::SyntheticDataset> demo;
  if (options.demo) {
    demo = std::make_unique<workload::SyntheticDataset>(
        workload::SyntheticDataset::Ep(6, 10000));
    hints = demo->BestHints();
  } else {
    auto deployment = ingest::LoadDeploymentFile(options.config_path);
    if (!deployment.ok()) return Fail(deployment.status(), "config");
    catalog = std::move(deployment->catalog);
    hints = std::move(deployment->hints);
  }
  TimeSeriesCatalog* catalog_ptr =
      options.demo ? demo->catalog() : catalog.get();

  auto groups = Partitioner::Partition(catalog_ptr, hints);
  if (!groups.ok()) return Fail(groups.status(), "partition");
  std::printf("%d series partitioned into %zu group(s)\n",
              catalog_ptr->NumSeries(), groups->size());

  auto engine = cluster::ClusterEngine::Create(catalog_ptr, *groups,
                                               &registry, cluster_config);
  if (!engine.ok()) return Fail(engine.status(), "cluster");

  Result<std::vector<std::unique_ptr<ingest::GroupRowSource>>> sources =
      options.demo
          ? Result<std::vector<std::unique_ptr<ingest::GroupRowSource>>>(
                demo->MakeSources(*groups))
          : ingest::MakeCsvSources(*catalog_ptr, *groups);
  if (!sources.ok()) return Fail(sources.status(), "sources");
  auto report = ingest::RunPipeline(engine->get(), std::move(*sources), {});
  if (!report.ok()) return Fail(report.status(), "ingest");
  std::printf("ingested %lld data points in %.2f s (%.0f points/s)\n",
              static_cast<long long>(report->data_points), report->seconds,
              report->points_per_second);

  RunShell(engine->get(), *catalog_ptr, registry);
  return 0;
}
