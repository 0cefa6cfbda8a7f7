// End-to-end benchmark of ModelarDB++: durable ingest -> restart -> the
// paper's query mix, all through cluster::ClusterEngine on an on-disk
// storage root with the WAL on. See README.md for the metric catalogue,
// the workloads and the traced mode.
//
//   e2ebench --workload ep_hot|ep_cold --seed N --seconds S
//            --trace 0|1 --work-dir DIR [--spans-out FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). Exit code 0 only when the
// run completed; a failed correctness check still prints the object, with
// "correct": false.

#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "gate.h"
#include "ingest/pipeline.h"
#include "partition/partitioner.h"
#include "query/parser.h"
#include "stats.h"
#include "trace.h"
#include "util/random.h"
#include "util/simd/kernels.h"
#include "util/thread_pool.h"
#include "workload/dataset.h"
#include "workload/queries.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using modelardb::ErrorBound;
using modelardb::Gid;
using modelardb::GroupRow;
using modelardb::IngestStats;
using modelardb::ModelRegistry;
using modelardb::Partitioner;
using modelardb::Random;
using modelardb::Result;
using modelardb::ScanStats;
using modelardb::Segment;
using modelardb::Status;
using modelardb::TaskGroup;
using modelardb::Tid;
using modelardb::TimeSeriesGroup;
using modelardb::Value;
using modelardb::cluster::ClusterConfig;
using modelardb::cluster::ClusterEngine;
using modelardb::query::QueryResult;
using modelardb::workload::QueryTarget;
using modelardb::workload::SyntheticDataset;

// ---------------------------------------------------------------------------
// Load shape and workloads.

// Two workers on an engine-owned pool of two threads plus one query client
// thread: never more runnable threads than a 4-core host has.
constexpr int kNumWorkers = 2;
constexpr int kParallelism = 2;
constexpr const char* kWalSyncPolicy = "every_block";  // The default.
constexpr int kMicroBatchRows = 512;  // PipelineOptions' default.
constexpr double kL2Bytes = 8.0 * 1024 * 1024;
// Raw footprint of one data point: its timestamp plus its value.
constexpr double kRawPointBytes = sizeof(modelardb::Timestamp) + sizeof(Value);

constexpr int kReopensPerRound = 2;
constexpr int kProbesPerClass = 8;   // Probe answers compared at restart.
constexpr int kTruthTids = 6;        // Series checked against RawValue.

enum Class { kSagg = 0, kLagg, kLaggDpv, kMagg, kPr, kNumClasses };
constexpr std::array<const char*, kNumClasses> kClassNames = {
    "sagg", "lagg", "lagg_dpv", "magg", "pr"};

// Both workloads ingest the same EP-like data (SyntheticDataset::Ep) at
// the same bound and run the same query mix; they differ only in how the
// store is restarted.
constexpr int kEntities = 32;     // Turbines.
constexpr int64_t kRows = 15000;  // Rows per series.
constexpr double kBoundPercent = 1.0;
constexpr int kRounds = 24;  // Set-up, ingest, restart and query slices.
// Relative share of each class in the interleaved query sequence, and the
// minimum samples per class in one run.
constexpr std::array<int, kNumClasses> kWeights = {300, 24, 7, 9, 200};
constexpr std::array<int, kNumClasses> kMinSamples = {3000, 240, 66, 90,
                                                      2000};

struct WorkloadSpec {
  std::string name;
  bool checkpoint_before_restart;  // Cold: queries read slab blocks.
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {{"ep_hot", false},
                                                  {"ep_cold", true}};
  return specs;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string spans_out;
};

// ---------------------------------------------------------------------------
// Inputs: rows generated before the timed interval, replayed from memory.

struct GroupRows {
  Gid gid = 0;
  int width = 0;
  std::vector<Value> values;     // rows x width, stored (scaled) values.
  std::vector<uint8_t> present;  // rows x width.
};

struct Materialized {
  std::vector<GroupRows> groups;
  int64_t rows = 0;
  int64_t points = 0;
};

// Materializes exactly what SyntheticDataset::MakeSources would produce.
Materialized Materialize(const SyntheticDataset& dataset,
                         const std::vector<TimeSeriesGroup>& groups) {
  Materialized out;
  out.rows = dataset.rows_per_series();
  for (const TimeSeriesGroup& group : groups) {
    GroupRows g;
    g.gid = group.gid;
    g.width = static_cast<int>(group.tids.size());
    g.values.resize(static_cast<size_t>(out.rows) * g.width);
    g.present.resize(g.values.size());
    for (int i = 0; i < g.width; ++i) {
      const Tid tid = group.tids[i];
      const double scaling = dataset.catalog().Get(tid).scaling;
      for (int64_t r = 0; r < out.rows; ++r) {
        const size_t slot = static_cast<size_t>(r) * g.width + i;
        const bool present = dataset.Present(tid, r);
        g.present[slot] = present ? 1 : 0;
        g.values[slot] =
            present ? static_cast<Value>(dataset.RawValue(tid, r) * scaling)
                    : 0.0f;
        out.points += present ? 1 : 0;
      }
    }
    out.groups.push_back(std::move(g));
  }
  return out;
}

class ReplaySource : public modelardb::ingest::GroupRowSource {
 public:
  ReplaySource(const GroupRows* group, const SyntheticDataset* dataset)
      : group_(group), dataset_(dataset) {}

  Gid gid() const override { return group_->gid; }

  Result<bool> Next(GroupRow* row) override {
    if (next_ >= dataset_->rows_per_series()) return false;
    const size_t base = static_cast<size_t>(next_) * group_->width;
    row->timestamp = dataset_->TimestampAt(next_);
    row->values.assign(group_->values.begin() + base,
                       group_->values.begin() + base + group_->width);
    row->present.resize(group_->width);
    for (int i = 0; i < group_->width; ++i) {
      row->present[i] = group_->present[base + i] != 0;
    }
    ++next_;
    return true;
  }

 private:
  const GroupRows* group_;
  const SyntheticDataset* dataset_;
  int64_t next_ = 0;
};

// ---------------------------------------------------------------------------
// One deployment: dataset, partitioning, materialized rows and engine.

struct Deployment {
  std::unique_ptr<SyntheticDataset> dataset;
  std::vector<TimeSeriesGroup> groups;
  Materialized rows;
  std::unique_ptr<ClusterEngine> engine;
  std::string root;
  double setup_s = 0;

  std::vector<std::unique_ptr<modelardb::ingest::GroupRowSource>> Sources()
      const {
    std::vector<std::unique_ptr<modelardb::ingest::GroupRowSource>> sources;
    for (const GroupRows& g : rows.groups) {
      sources.push_back(std::make_unique<ReplaySource>(&g, dataset.get()));
    }
    return sources;
  }
};

ClusterConfig MakeConfig(const std::string& root) {
  ClusterConfig config;
  config.num_workers = kNumWorkers;
  config.parallelism = kParallelism;
  config.storage_root = root;
  config.error_bound = ErrorBound::Relative(kBoundPercent);
  return config;
}

// Set-up: generate the dataset and materialize its rows, partition, and
// create the engine on an empty root. `recorder` (traced run) gets one
// span per step.
Result<Deployment> SetUp(uint64_t seed, const std::string& root,
                         const ModelRegistry* registry,
                         SpanRecorder* recorder) {
  Deployment d;
  d.root = root;
  fs::remove_all(root);
  const int64_t start = NowNs();
  d.dataset = std::make_unique<SyntheticDataset>(
      SyntheticDataset::Ep(kEntities, kRows, seed));
  const int64_t generated = NowNs();
  MODELARDB_ASSIGN_OR_RETURN(
      d.groups,
      Partitioner::Partition(d.dataset->catalog(), d.dataset->BestHints()));
  const int64_t partitioned = NowNs();
  d.rows = Materialize(*d.dataset, d.groups);
  const int64_t materialized = NowNs();
  MODELARDB_ASSIGN_OR_RETURN(
      d.engine, ClusterEngine::Create(d.dataset->catalog(), d.groups, registry,
                                      MakeConfig(root)));
  const int64_t created = NowNs();
  d.setup_s = static_cast<double>(created - start) * 1e-9;
  if (recorder != nullptr) {
    // Generating and materializing are one workload-layer step of two
    // calls; the partitioner runs between them because rows are laid out
    // per group.
    Span generate;
    generate.name = "workload.generate";
    generate.start_ns = start;
    generate.end_ns = materialized;
    generate.calls = 2;
    generate.busy_ns = (generated - start) + (materialized - partitioned);
    recorder->Add(generate);
    recorder->Add({"partition.partition", generated, partitioned, -1, 0, 1,
                   partitioned - generated});
    recorder->Add({"cluster.create", materialized, created, -1, 0, 1,
                   created - materialized});
  }
  return d;
}

// Frees the whole deployment, then hands the freed heap back to the OS,
// so that the next round starts from the same resident set and the peak
// RSS is one round's rather than what the allocator kept from earlier
// rounds.
void TearDown(Deployment* d) {
  d->engine.reset();
  fs::remove_all(d->root);
  *d = Deployment{};
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

// ---------------------------------------------------------------------------
// Query mix.

class Mix {
 public:
  // Distinct S-AGG and P/R queries; each is run equally often. Many, so
  // that the class's mean cost barely depends on which ones a seed draws.
  static constexpr int kSaggQueries = 500;
  static constexpr int kPrQueries = 500;

  Mix(const SyntheticDataset& dataset, uint64_t seed,
      const std::array<int, kNumClasses>& weights)
      : weights_(weights), rng_(seed ^ 0x6d69785f73716cull) {
    sql_[kSagg] = modelardb::workload::MakeSAgg(
        dataset, QueryTarget::kSegmentView, kSaggQueries, seed + 1);
    sql_[kLagg] =
        modelardb::workload::MakeLAgg(dataset, QueryTarget::kSegmentView);
    sql_[kLaggDpv] =
        modelardb::workload::MakeLAgg(dataset, QueryTarget::kDataPointView);
    sql_[kMagg] = modelardb::workload::MakeMAgg(dataset, false);
    for (std::string& q : modelardb::workload::MakeMAgg(dataset, true)) {
      sql_[kMagg].push_back(std::move(q));
    }
    sql_[kPr] = modelardb::workload::MakePR(dataset, kPrQueries, seed + 2);
    for (int w : weights_) total_weight_ += w;
  }

  struct Item {
    Class cls;
    int index;  // Of the query within its class.
    const std::string* sql;
  };

  // A seeded weighted choice of class; within a class the queries are
  // taken in turn, so every query of a class is sampled equally often.
  Item Next() {
    int pick = static_cast<int>(rng_.NextBelow(total_weight_));
    int c = 0;
    while (pick >= weights_[c]) pick -= weights_[c++];
    const int index = turn_[c]++ % static_cast<int>(sql_[c].size());
    return {static_cast<Class>(c), index, &sql_[c][index]};
  }

  // The fixed probe set: the first few queries of every class.
  std::vector<std::string> Probes() const {
    std::vector<std::string> probes;
    for (const auto& list : sql_) {
      for (size_t i = 0; i < list.size() && i < kProbesPerClass; ++i) {
        probes.push_back(list[i]);
      }
    }
    return probes;
  }

 private:
  std::array<std::vector<std::string>, kNumClasses> sql_;
  std::array<int, kNumClasses> weights_;
  std::array<int, kNumClasses> turn_{};
  int total_weight_ = 0;
  Random rng_;
};

// Per-class latencies of one closed-loop client.
struct Latencies {
  std::array<std::vector<double>, kNumClasses> ms;
  std::array<std::vector<int>, kNumClasses> index;  // Query of each sample.
  int64_t queries = 0;

  void Add(const Mix::Item& item, double latency_ms) {
    ms[item.cls].push_back(latency_ms);
    index[item.cls].push_back(item.index);
    ++queries;
  }
  bool MinimumsMet(const std::array<int, kNumClasses>& mins) const {
    for (int c = 0; c < kNumClasses; ++c) {
      if (ms[c].size() < static_cast<size_t>(mins[c])) return false;
    }
    return true;
  }
  void Merge(const Latencies& other) {
    for (int c = 0; c < kNumClasses; ++c) {
      ms[c].insert(ms[c].end(), other.ms[c].begin(), other.ms[c].end());
      index[c].insert(index[c].end(), other.index[c].begin(),
                      other.index[c].end());
    }
    queries += other.queries;
  }
  // A class's p50: each query's median latency, averaged over the class's
  // queries. A class mixes query shapes whose latencies differ several
  // fold, so the median of the pooled samples would jump between shapes.
  double P50(int c) const {
    std::map<int, std::vector<double>> per_query;
    for (size_t i = 0; i < ms[c].size(); ++i) {
      per_query[index[c][i]].push_back(ms[c][i]);
    }
    double sum = 0;
    for (const auto& [q, samples] : per_query) sum += Median(samples);
    return per_query.empty() ? 0.0 : sum / per_query.size();
  }
};

// Answers of repeated queries must stay bit-identical while the data does
// not change; the first answer to each query is the reference.
class AnswerCheck {
 public:
  void Check(const Mix::Item& item, const QueryResult& result, Gate* gate) {
    const uint64_t fp = Fingerprint(result);
    auto [it, inserted] = seen_.emplace(
        std::pair{static_cast<int>(item.cls), item.index}, fp);
    if (!inserted) {
      gate->Check(it->second == fp, "answer changed: " + *item.sql);
    }
  }

 private:
  std::map<std::pair<int, int>, uint64_t> seen_;
};

// ---------------------------------------------------------------------------
// Traced calls: the same calls ClusterEngine::Execute / Ingest / FlushAll
// make, through public functions, with a span around each.

struct TracedQuery {
  Class cls = kSagg;
  int32_t root = -1;
  std::vector<int32_t> workers;
  ScanStats scan;
};

Result<QueryResult> TracedExecute(const ClusterEngine& engine,
                                  const std::string& sql, int64_t request,
                                  SpanRecorder* rec, TracedQuery* traced) {
  namespace q = modelardb::query;
  traced->root = rec->Open("bench.query", -1, request);
  int32_t id = rec->Open("query.parse", traced->root, request);
  Result<q::Query> ast = q::ParseQuery(sql);
  rec->Close(id);
  if (!ast.ok()) {
    rec->Close(traced->root);
    return ast.status();
  }
  id = rec->Open("query.compile", traced->root, request);
  Result<q::CompiledQuery> compiled = engine.query_engine().Compile(*ast);
  rec->Close(id);
  if (!compiled.ok()) {
    rec->Close(traced->root);
    return compiled.status();
  }
  const int n = engine.num_workers();
  std::vector<q::PartialResult> partials(n);
  std::vector<Status> statuses(n);
  traced->workers.assign(n, -1);
  const int32_t fanout = rec->Open("cluster.fanout", traced->root, request);
  {
    TaskGroup group(engine.pool());
    for (int w = 0; w < n; ++w) {
      group.Submit([&, w] {
        const int32_t wid = rec->Open("cluster.worker_scan", fanout, request);
        Result<q::PartialResult> partial =
            engine.ExecuteOnWorker(*compiled, w);
        rec->Close(wid);
        traced->workers[w] = wid;
        if (partial.ok()) {
          partials[w] = std::move(*partial);
        } else {
          statuses[w] = partial.status();
        }
      });
    }
    group.Wait();
  }
  rec->Close(fanout);
  for (const Status& s : statuses) {
    if (!s.ok()) {
      rec->Close(traced->root);
      return s;
    }
  }
  for (const q::PartialResult& p : partials) traced->scan.Merge(p.scan);
  id = rec->Open("query.merge_finalize", traced->root, request);
  Result<QueryResult> result =
      engine.query_engine().MergeFinalize(*compiled, std::move(partials));
  rec->Close(id);
  rec->Close(traced->root);
  return result;
}

struct TracedIngestCounts {
  int64_t segments_emitted = 0;
  int64_t store_flushes = 0;
};

// RunPipeline's partitioning and micro-batching, ClusterEngine::Ingest's
// calls per row, then FlushAll's calls per worker; one pool task per
// worker in each stage, as the pipeline and FlushAll submit them.
Status TracedIngest(ClusterEngine* engine, const Deployment& d,
                    SpanRecorder* rec, TracedIngestCounts* counts) {
  const int n = engine->num_workers();
  auto sources = d.Sources();
  std::vector<std::vector<modelardb::ingest::GroupRowSource*>> partitions(n);
  for (const auto& s : sources) {
    partitions[engine->WorkerOf(s->gid())].push_back(s.get());
  }
  std::vector<Status> statuses(n);
  std::vector<int64_t> emitted(n, 0);
  {
    TaskGroup group(engine->pool());
    for (int w = 0; w < n; ++w) {
      group.Submit([&, w] {
        const int64_t request = -1 - w;
        const int32_t root = rec->Open("bench.ingest_worker", -1, request);
        modelardb::cluster::Worker* worker = engine->worker(w);
        CallAccumulator next("workload.source_next");
        CallAccumulator ingest("core.ingest");
        CallAccumulator put("storage.put_batch");
        auto run = [&]() -> Status {
          std::vector<modelardb::ingest::GroupRowSource*>& part =
              partitions[w];
          std::vector<bool> exhausted(part.size(), false);
          size_t remaining = part.size();
          GroupRow row;
          std::vector<Segment> segments;
          while (remaining > 0) {
            for (size_t i = 0; i < part.size(); ++i) {
              if (exhausted[i]) continue;
              modelardb::GroupCoordinator* coordinator =
                  worker->coordinator(part[i]->gid());
              // Back-to-back calls share one clock read per boundary; the
              // few instructions of glue between two calls are charged to
              // the later call.
              int64_t t0 = NowNs();
              for (int b = 0; b < kMicroBatchRows; ++b) {
                Result<bool> has_row = part[i]->Next(&row);
                int64_t t1 = NowNs();
                next.Add(t0, t1);
                t0 = t1;
                if (!has_row.ok()) return has_row.status();
                if (!*has_row) {
                  exhausted[i] = true;
                  --remaining;
                  break;
                }
                segments.clear();
                Status s = coordinator->Ingest(row, &segments);
                t1 = NowNs();
                ingest.Add(t0, t1);
                t0 = t1;
                MODELARDB_RETURN_NOT_OK(s);
                if (!segments.empty()) {
                  emitted[w] += static_cast<int64_t>(segments.size());
                  s = worker->store()->PutBatch(segments);
                  t1 = NowNs();
                  put.Add(t0, t1);
                  t0 = t1;
                  MODELARDB_RETURN_NOT_OK(s);
                }
              }
              next.FlushTo(rec, root, request);
              ingest.FlushTo(rec, root, request);
              put.FlushTo(rec, root, request);
            }
          }
          return Status::OK();
        };
        statuses[w] = run();
        rec->Close(root);
      });
    }
    group.Wait();
  }
  for (const Status& s : statuses) MODELARDB_RETURN_NOT_OK(s);
  {
    TaskGroup group(engine->pool());
    for (int w = 0; w < n; ++w) {
      group.Submit([&, w] {
        const int64_t request = -1 - w;
        const int32_t root = rec->Open("bench.flush_worker", -1, request);
        modelardb::cluster::Worker* worker = engine->worker(w);
        auto run = [&]() -> Status {
          for (const auto& [gid, coordinator] : worker->coordinators()) {
            std::vector<Segment> segments;
            int32_t id = rec->Open("core.flush", root, request);
            Status s = coordinator->Flush(&segments);
            rec->Close(id);
            MODELARDB_RETURN_NOT_OK(s);
            if (!segments.empty()) {
              emitted[w] += static_cast<int64_t>(segments.size());
              id = rec->Open("storage.put_batch", root, request);
              s = worker->store()->PutBatch(segments);
              rec->Close(id);
              MODELARDB_RETURN_NOT_OK(s);
            }
          }
          const int32_t id = rec->Open("storage.flush", root, request);
          Status s = worker->store()->Flush();
          rec->Close(id);
          return s;
        };
        statuses[w] = run();
        rec->Close(root);
      });
    }
    group.Wait();
  }
  for (const Status& s : statuses) MODELARDB_RETURN_NOT_OK(s);
  for (int64_t e : emitted) counts->segments_emitted += e;
  counts->store_flushes += n;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Closed-loop query client.

struct Client {
  const ClusterEngine* engine = nullptr;
  Mix* mix = nullptr;
  AnswerCheck* answers = nullptr;
  SpanRecorder* recorder = nullptr;  // Non-null: traced calls.
  std::vector<TracedQuery>* traced = nullptr;
  Gate gate;
  Latencies latencies;

  void RunOne() {
    const Mix::Item item = mix->Next();
    const int64_t request = latencies.queries + 1;
    TracedQuery tq;
    tq.cls = item.cls;
    const int64_t t0 = NowNs();
    Result<QueryResult> result =
        recorder != nullptr
            ? TracedExecute(*engine, *item.sql, request, recorder, &tq)
            : engine->Execute(*item.sql);
    const int64_t t1 = NowNs();
    latencies.Add(item, static_cast<double>(t1 - t0) * 1e-6);
    if (recorder != nullptr) traced->push_back(std::move(tq));
    if (gate.CheckStatus(result.status(), *item.sql)) {
      answers->Check(item, *result, &gate);
    }
  }
};

// ---------------------------------------------------------------------------
// Measurements.

int64_t StoredBytes(const std::string& root) {
  int64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

int64_t TotalSegments(ClusterEngine* engine) {
  int64_t total = 0;
  for (int w = 0; w < engine->num_workers(); ++w) {
    total += engine->worker(w)->store()->NumSegments();
  }
  return total;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

std::string ModelLabel(const ModelRegistry& registry, modelardb::Mid mid) {
  Result<std::string> name = registry.ModelName(mid);
  std::string out;
  for (char c : name.ok() ? *name : "mid_" + std::to_string(mid)) {
    out += std::isalnum(static_cast<unsigned char>(c))
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : '_';
  }
  return out;
}

// Checkpoints every worker store; returns the wall time in seconds.
Result<double> CheckpointAll(ClusterEngine* engine, SpanRecorder* rec) {
  const int64_t t0 = NowNs();
  for (int w = 0; w < engine->num_workers(); ++w) {
    const int32_t id =
        rec != nullptr ? rec->Open("storage.checkpoint", -1, 0) : -1;
    Status s = engine->worker(w)->store()->Checkpoint();
    if (rec != nullptr) rec->Close(id);
    MODELARDB_RETURN_NOT_OK(s);
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

std::vector<std::string> RunProbes(const ClusterEngine& engine,
                                   const std::vector<std::string>& probes,
                                   Gate* gate) {
  std::vector<std::string> digests;
  for (const std::string& sql : probes) {
    Result<QueryResult> r = engine.Execute(sql);
    gate->CheckStatus(r.status(), sql);
    digests.push_back(r.ok() ? Digest(*r) : "error");
  }
  return digests;
}

// Destroys the engine and creates it again on the same root, until it
// answers `first_query`; returns the wall time in seconds.
Result<double> Reopen(Deployment* d, const ModelRegistry* registry,
                      const std::string& first_query, Gate* gate) {
  std::vector<TimeSeriesGroup> groups = d->groups;
  const int64_t t0 = NowNs();
  d->engine.reset();
  MODELARDB_ASSIGN_OR_RETURN(
      d->engine, ClusterEngine::Create(d->dataset->catalog(), std::move(groups),
                                       registry, MakeConfig(d->root)));
  Result<QueryResult> r = d->engine->Execute(first_query);
  const int64_t t1 = NowNs();
  gate->CheckStatus(r.status(), "first query after reopen");
  return static_cast<double>(t1 - t0) * 1e-9;
}

// The correctness gate's ground-truth checks on a restarted deployment.
void CheckAnswers(const Deployment& d, uint64_t seed, Gate* gate) {
  const SyntheticDataset& ds = *d.dataset;
  // Points per Tid, from the Present flags the ingest was fed.
  std::map<Tid, int64_t> counts;
  for (size_t g = 0; g < d.groups.size(); ++g) {
    const GroupRows& rows = d.rows.groups[g];
    for (size_t slot = 0; slot < rows.present.size(); ++slot) {
      counts[d.groups[g].tids[slot % rows.width]] += rows.present[slot];
    }
  }
  Random rng(seed ^ 0x7472757468ull);
  std::map<Tid, TidTruth> truth;
  const int num_truth = std::min(kTruthTids, ds.num_series());
  while (static_cast<int>(truth.size()) < num_truth) {
    const Tid tid = 1 + static_cast<Tid>(rng.NextBelow(ds.num_series()));
    if (truth.count(tid) > 0) continue;
    TidTruth& t = truth[tid];
    for (int64_t r = 0; r < ds.rows_per_series(); ++r) {
      if (ds.Present(tid, r)) t.Add(ds.RawValue(tid, r));
    }
  }
  std::string in;
  for (const auto& [tid, t] : truth) {
    in += (in.empty() ? "" : ", ") + std::to_string(tid);
  }
  const std::string segment_sql =
      "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment "
      "GROUP BY Tid";
  const std::string point_sql =
      "SELECT Tid, COUNT(Value), SUM(Value), MIN(Value), MAX(Value) FROM "
      "DataPoint WHERE Tid IN (" + in + ") GROUP BY Tid";
  for (const auto& [sql, view] : {std::pair{segment_sql, "Segment View"},
                                  std::pair{point_sql, "Data Point View"}}) {
    Result<QueryResult> r = d.engine->Execute(sql);
    if (!gate->CheckStatus(r.status(), sql)) continue;
    Result<std::map<Tid, TidAnswer>> answers = ReadTidAnswers(*r);
    if (!gate->CheckStatus(answers.status(), sql)) continue;
    if (view == std::string("Segment View")) {
      CheckCounts(counts, *answers, view, gate);
    }
    CheckAggregates(truth, *answers, kBoundPercent, view, gate);
  }
}

// ---------------------------------------------------------------------------
// Output.

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  bool AllFinite() const {
    for (const Entry& e : entries_) {
      if (!std::isfinite(e.value)) return false;
    }
    return true;
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(entries_[i].value) ? entries_[i].value : 0.0);
      out += (i > 0 ? ", " : "") + std::string("\"") + entries_[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + entries_[i].unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// `extra` is appended to the facts object (", \"key\": value" pairs).
void PrintFacts(const Options& opt, const WorkloadSpec& spec,
                const Deployment& d, int64_t stored_bytes,
                const std::string& extra) {
  const double raw_bytes = static_cast<double>(d.rows.points) * kRawPointBytes;
  std::printf(
      "{\"facts\": {\"nproc\": %ld, \"simd_tier\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"wal_sync_policy\": \"%s\", "
      "\"num_workers\": %d, \"parallelism\": %d, \"series\": %d, "
      "\"data_points\": %lld, \"raw_bytes\": %.0f, \"raw_per_l2\": %.2f, "
      "\"stored_bytes\": %lld, \"stored_per_l2\": %.2f%s}}\n",
      sysconf(_SC_NPROCESSORS_ONLN),
      modelardb::simd::TierName(modelardb::simd::ActiveTier()),
      E2EBENCH_COMPILER, E2EBENCH_BUILD_TYPE, spec.name.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, kWalSyncPolicy, kNumWorkers, kParallelism,
      d.dataset->num_series(), static_cast<long long>(d.rows.points),
      raw_bytes, raw_bytes / kL2Bytes, static_cast<long long>(stored_bytes),
      static_cast<double>(stored_bytes) / kL2Bytes, extra.c_str());
}

void PrintResult(const Gate& gate, const Metrics& metrics) {
  for (const std::string& m : gate.messages()) {
    std::fprintf(stderr, "correctness: %s\n", m.c_str());
  }
  std::fprintf(stderr, "correctness: %lld failed of %lld attempted\n",
               static_cast<long long>(gate.failed()),
               static_cast<long long>(gate.attempted()));
  const bool correct = gate.failed() == 0 && metrics.AllFinite();
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(1, gate.attempted())),
      static_cast<long long>(gate.failed()), metrics.Json().c_str());
  std::fflush(stdout);
}

#define E2E_ASSIGN_OR_DIE(lhs, expr)                                   \
  auto E2E_CONCAT(_r_, __LINE__) = (expr);                             \
  if (!E2E_CONCAT(_r_, __LINE__).ok()) {                               \
    std::fprintf(stderr, "fatal: %s: %s\n", #expr,                     \
                 E2E_CONCAT(_r_, __LINE__).status().ToString().c_str()); \
    std::exit(2);                                                      \
  }                                                                    \
  lhs = std::move(*E2E_CONCAT(_r_, __LINE__))
#define E2E_CONCAT_INNER(a, b) a##b
#define E2E_CONCAT(a, b) E2E_CONCAT_INNER(a, b)

void DieIfError(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: %s: %s\n", what, s.ToString().c_str());
    std::exit(2);
  }
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics.

int RunEndToEnd(const Options& opt, const WorkloadSpec& spec) {
  const ModelRegistry registry = ModelRegistry::Default();
  Gate gate;
  std::vector<double> setup_s, ingest_rate, checkpoint_s, reopen_s;
  std::optional<Mix> mix;
  AnswerCheck answers;
  Latencies latencies;
  Deployment d;
  const std::string root = opt.work_dir + "/store";
  int64_t stored = 0;

  // Every round sets up, ingests, restarts and runs a slice of the query
  // mix, so each metric's samples spread over the whole run
  // rather than one stretch of it. The rounds ingest identical inputs, so
  // every round's answers must match. Only the last round's store is kept
  // for the probe, ground-truth and size checks.
  for (int round = 0;; ++round) {
    E2E_ASSIGN_OR_DIE(d, SetUp(opt.seed, root, &registry, nullptr));
    setup_s.push_back(d.setup_s);
    if (!mix) mix.emplace(*d.dataset, opt.seed, kWeights);
    const int64_t t0 = NowNs();
    Result<modelardb::ingest::IngestReport> report =
        modelardb::ingest::RunPipeline(d.engine.get(), d.Sources(), {});
    const int64_t t1 = NowNs();
    DieIfError(report.status(), "ingest");
    gate.Check(report->data_points == d.rows.points,
               "ingested points differ from the input");
    ingest_rate.push_back(static_cast<double>(report->data_points) /
                          (static_cast<double>(t1 - t0) * 1e-9));
    const bool last = round + 1 == kRounds;

    // Restart: checkpoint first on the cold workload, then destroy and
    // reopen the engine on the same root.
    const std::vector<std::string> probes = mix->Probes();
    std::vector<std::string> before;
    if (last) before = RunProbes(*d.engine, probes, &gate);
    if (spec.checkpoint_before_restart) {
      E2E_ASSIGN_OR_DIE(double cp, CheckpointAll(d.engine.get(), nullptr));
      checkpoint_s.push_back(cp);
    }
    if (last) stored = StoredBytes(root);
    const int64_t segments_before = TotalSegments(d.engine.get());
    for (int i = 0; i < kReopensPerRound; ++i) {
      E2E_ASSIGN_OR_DIE(double reopen,
                        Reopen(&d, &registry, probes.front(), &gate));
      reopen_s.push_back(reopen);
    }
    CheckSegmentCount(segments_before, TotalSegments(d.engine.get()), &gate);
    if (last) {
      CheckProbes(before, RunProbes(*d.engine, probes, &gate), "restart",
                  &gate);
      CheckAnswers(d, opt.seed, &gate);
    }

    // This round's slice of the query mix on the restarted store.
    {
      Client q;
      q.engine = d.engine.get();
      q.mix = &*mix;
      q.answers = &answers;
      const int64_t q0 = NowNs();
      const int64_t deadline =
          q0 + static_cast<int64_t>(opt.seconds / kRounds * 1e9);
      // The last slice runs on until the run has each class's minimum.
      std::array<int, kNumClasses> remaining{};
      for (int c = 0; c < kNumClasses && last; ++c) {
        remaining[c] = std::max(
            0, kMinSamples[c] - static_cast<int>(latencies.ms[c].size()));
      }
      while (NowNs() < deadline || !q.latencies.MinimumsMet(remaining)) {
        q.RunOne();
      }
      gate.Merge(q.gate);
      latencies.Merge(q.latencies);
    }
    if (!spec.checkpoint_before_restart) {
      E2E_ASSIGN_OR_DIE(double cp, CheckpointAll(d.engine.get(), nullptr));
      checkpoint_s.push_back(cp);
    }
    if (last) break;
    TearDown(&d);
  }

  auto print_samples = [](const char* name, const std::vector<double>& v) {
    std::fprintf(stderr, "%-12s", name);
    for (double x : v) std::fprintf(stderr, " %.4g", x);
    std::fprintf(stderr, "\n");
  };
  print_samples("setup_s", setup_s);
  print_samples("ingest", ingest_rate);
  print_samples("checkpoint_s", checkpoint_s);
  print_samples("reopen_s", reopen_s);
  for (int c = 0; c < kNumClasses; ++c) {
    std::fprintf(stderr, "%-9s n=%zu p50=%.4f ms\n", kClassNames[c],
                 latencies.ms[c].size(), latencies.P50(c));
  }
  // Tail latency at the highest percentile the sample supports, reported
  // with the facts rather than as a gated metric (see README.md).
  std::string tails;
  for (Class c : {kSagg, kPr}) {
    const size_t n = latencies.ms[c].size();
    const double p = HighestSupportedPercentile(n);
    gate.Check(p >= 99.0,
               std::string(kClassNames[c]) + ": too few samples for p99");
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ", \"%s_tail\": {\"percentile\": %g, \"ms\": %.6g, "
                  "\"samples\": %zu}",
                  kClassNames[c], p, Percentile(latencies.ms[c], p), n);
    tails += buf;
  }
  PrintFacts(opt, spec, d, stored, tails);
  Metrics m;
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("ingest_points_per_s", Median(ingest_rate), "points/s");
  m.Add("stored_bytes_per_point",
        static_cast<double>(stored) / static_cast<double>(d.rows.points),
        "B/point");
  m.Add("checkpoint_s", Median(checkpoint_s), "s");
  m.Add("reopen_s", Median(reopen_s), "s");
  m.Add("sagg_p50_ms", latencies.P50(kSagg), "ms");
  m.Add("lagg_p50_ms", latencies.P50(kLagg), "ms");
  m.Add("lagg_dpv_p50_ms", latencies.P50(kLaggDpv), "ms");
  m.Add("magg_p50_ms", latencies.P50(kMagg), "ms");
  m.Add("pr_p50_ms", latencies.P50(kPr), "ms");
  TearDown(&d);
  m.Add("peak_rss_mb", PeakRssMib(), "MiB");
  PrintResult(gate, m);
  return 0;
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics.

void AddClassMetrics(const std::vector<Span>& spans,
                     const std::vector<int64_t>& self,
                     const std::vector<std::vector<int32_t>>& children,
                     const std::vector<TracedQuery>& queries, Metrics* m) {
  struct Acc {
    double n = 0, parse = 0, compile = 0, scan = 0, skew = 0, merge = 0;
    ScanStats scan_stats;
  };
  std::array<Acc, kNumClasses> acc;
  for (const TracedQuery& q : queries) {
    Acc& a = acc[q.cls];
    a.n += 1;
    for (int32_t child : children[q.root]) {
      const std::string name = spans[child].name;
      const double s = static_cast<double>(self[child]) * 1e-9;
      if (name == "query.parse") a.parse += s;
      if (name == "query.compile") a.compile += s;
      if (name == "query.merge_finalize") a.merge += s;
    }
    double sum = 0, max = 0;
    int n = 0;
    for (int32_t w : q.workers) {
      if (w < 0) continue;
      const double s = static_cast<double>(spans[w].busy_ns) * 1e-9;
      sum += s;
      max = std::max(max, s);
      ++n;
    }
    if (n > 0) {
      a.scan += sum / n;
      a.skew += sum > 0 ? max / (sum / n) : 1.0;
    }
    a.scan_stats.Merge(q.scan);
  }
  for (int c = 0; c < kNumClasses; ++c) {
    const Acc& a = acc[c];
    const double n = std::max(1.0, a.n);
    const std::string p = std::string(kClassNames[c]) + ".";
    const ScanStats& s = a.scan_stats;
    m->Add(p + "query.parse_s", a.parse / n, "s");
    m->Add(p + "query.compile_s", a.compile / n, "s");
    m->Add(p + "cluster.worker_scan_s", a.scan / n, "s");
    m->Add(p + "cluster.worker_skew", a.skew / n, "ratio");
    m->Add(p + "query.merge_finalize_s", a.merge / n, "s");
    m->Add(p + "storage.blocks_skipped", s.blocks_skipped / n, "count");
    m->Add(p + "storage.blocks_summarized", s.blocks_summarized / n, "count");
    m->Add(p + "storage.blocks_scanned", s.blocks_scanned / n, "count");
    const double denom =
        static_cast<double>(s.blocks_summarized + s.blocks_scanned);
    m->Add(p + "storage.summarized_share",
           denom > 0 ? s.blocks_summarized / denom : 0.0, "ratio");
    m->Add(p + "storage.segments_scanned", s.segments_scanned / n, "count");
    m->Add(p + "storage.hot_pins", s.hot_pins / n, "count");
    m->Add(p + "storage.cold_pins", s.cold_pins / n, "count");
    m->Add(p + "query.segments_decoded", s.segments_decoded / n, "count");
    m->Add(p + "query.bytes_decoded", s.bytes_decoded / n, "B");
    m->Add(p + "query.cpu_s", s.cpu_ns * 1e-9 / n, "s");
    m->Add(p + "util.pool_queue_wait_s", s.queue_wait_ns * 1e-9 / n, "s");
  }
}

int RunTraced(const Options& opt, const WorkloadSpec& spec) {
  const ModelRegistry registry = ModelRegistry::Default();
  Gate gate;
  SpanRecorder rec;
  const std::string root = opt.work_dir + "/store";

  // Untraced reference ingest, then the traced one on a fresh root. The
  // reference is the second of two ingests, because the first in a process
  // also pays for faulting in the heap.
  double untraced_ingest_s = 0;
  std::optional<Mix> mix;
  for (int i = 0; i < 2; ++i) {
    E2E_ASSIGN_OR_DIE(Deployment d,
                      SetUp(opt.seed, root, &registry, nullptr));
    if (!mix) mix.emplace(*d.dataset, opt.seed, kWeights);
    const int64_t t0 = NowNs();
    Result<modelardb::ingest::IngestReport> report =
        modelardb::ingest::RunPipeline(d.engine.get(), d.Sources(), {});
    untraced_ingest_s = static_cast<double>(NowNs() - t0) * 1e-9;
    DieIfError(report.status(), "ingest");
    TearDown(&d);
  }
  E2E_ASSIGN_OR_DIE(Deployment d, SetUp(opt.seed, root, &registry, &rec));
  TracedIngestCounts counts;
  const int64_t ingest_t0 = NowNs();
  DieIfError(TracedIngest(d.engine.get(), d, &rec, &counts), "traced ingest");
  const double traced_ingest_s =
      static_cast<double>(NowNs() - ingest_t0) * 1e-9;
  const IngestStats stats = d.engine->TotalStats();
  gate.Check(stats.values_ingested == d.rows.points,
             "ingested points differ from the input");
  const int64_t wal_bytes = d.engine->DiskBytes();

  // Restart (checkpointing first on the cold workload).
  const std::vector<std::string> probes = mix->Probes();
  const std::vector<std::string> before = RunProbes(*d.engine, probes, &gate);
  double checkpoint_s = 0;
  int64_t slab_blocks = 0;
  if (spec.checkpoint_before_restart) {
    E2E_ASSIGN_OR_DIE(checkpoint_s, CheckpointAll(d.engine.get(), &rec));
    for (int w = 0; w < d.engine->num_workers(); ++w) {
      slab_blocks += static_cast<int64_t>(
          d.engine->worker(w)->store()->slab_stats().block_count);
    }
  }
  const int64_t segments_before = TotalSegments(d.engine.get());
  DieIfError(Reopen(&d, &registry, probes.front(), &gate).status(),
             "reopen");
  int64_t segments_replayed = 0, blocks_replayed = 0;
  for (int w = 0; w < d.engine->num_workers(); ++w) {
    const auto& info = d.engine->worker(w)->store()->recovery_info();
    segments_replayed += info.segments_replayed;
    blocks_replayed += info.blocks_replayed;
  }
  CheckSegmentCount(segments_before, TotalSegments(d.engine.get()), &gate);
  CheckProbes(before, RunProbes(*d.engine, probes, &gate), "restart", &gate);
  CheckAnswers(d, opt.seed, &gate);

  // Query phase: the same sequence untraced, then traced.
  AnswerCheck answers;
  double untraced_query_s = 0;
  int64_t num_queries = 0;
  {
    Mix m(*d.dataset, opt.seed, kWeights);
    Client c;
    c.engine = d.engine.get();
    c.mix = &m;
    c.answers = &answers;
    const int64_t t0 = NowNs();
    const int64_t deadline = t0 + static_cast<int64_t>(opt.seconds * 0.5e9);
    while (NowNs() < deadline || !c.latencies.MinimumsMet(kMinSamples)) {
      c.RunOne();
    }
    untraced_query_s = static_cast<double>(NowNs() - t0) * 1e-9;
    num_queries = c.latencies.queries;
    gate.Merge(c.gate);
  }
  std::vector<TracedQuery> phase_queries;
  double traced_query_s = 0;
  {
    Mix m(*d.dataset, opt.seed, kWeights);
    Client c;
    c.engine = d.engine.get();
    c.mix = &m;
    c.answers = &answers;
    c.recorder = &rec;
    c.traced = &phase_queries;
    const int64_t t0 = NowNs();
    while (c.latencies.queries < num_queries) c.RunOne();
    traced_query_s = static_cast<double>(NowNs() - t0) * 1e-9;
    gate.Merge(c.gate);
  }

  // Per-layer metrics from the spans.
  const std::vector<Span> spans = rec.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  const std::vector<std::vector<int32_t>> children = Children(spans);
  const std::map<std::string, NameTotals> totals = TotalsByName(spans);
  // Coverage: the time the spans around engine calls cover, as a share of
  // the benchmark's own spans that make those calls (an ingest or flush
  // task per worker; one span per query).
  auto coverage = [&](std::initializer_list<std::string> roots) {
    int64_t covered = 0, wall = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::find(roots.begin(), roots.end(), spans[i].name) == roots.end()) {
        continue;
      }
      covered += CoveredNs(spans, children[i]);
      wall += spans[i].busy_ns;
    }
    return wall > 0 ? static_cast<double>(covered) / wall : 0.0;
  };
  auto seconds_of = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.self_ns) * 1e-9;
  };
  std::map<std::string, int64_t> per_model;
  for (const auto& [mid, n] : stats.segments_per_model) {
    per_model[ModelLabel(registry, mid)] += n;
  }

  Metrics m;
  m.Add("workload.generate_s", seconds_of("workload.generate"), "s");
  m.Add("partition.partition_s", seconds_of("partition.partition"), "s");
  m.Add("cluster.create_s", seconds_of("cluster.create"), "s");
  m.Add("workload.source_next_s", seconds_of("workload.source_next"), "s");
  m.Add("core.ingest_s", seconds_of("core.ingest"), "s");
  m.Add("core.flush_s", seconds_of("core.flush"), "s");
  m.Add("core.segments_emitted", static_cast<double>(counts.segments_emitted),
        "count");
  m.Add("core.points_per_segment",
        stats.segments_emitted > 0
            ? static_cast<double>(stats.values_ingested) /
                  static_cast<double>(stats.segments_emitted)
            : 0.0,
        "points");
  for (const char* model : {"pmc_mean", "swing", "gorilla"}) {
    m.Add(std::string("core.segments.") + model,
          static_cast<double>(per_model[model]), "count");
  }
  m.Add("storage.put_batch_s", seconds_of("storage.put_batch"), "s");
  m.Add("storage.flush_s", seconds_of("storage.flush"), "s");
  m.Add("storage.flush_calls", static_cast<double>(counts.store_flushes),
        "count");
  m.Add("storage.wal_bytes", static_cast<double>(wal_bytes), "B");
  m.Add("storage.checkpoint_s", checkpoint_s, "s");
  m.Add("storage.slab_blocks", static_cast<double>(slab_blocks), "count");
  m.Add("storage.segments_replayed", static_cast<double>(segments_replayed),
        "count");
  m.Add("storage.blocks_replayed", static_cast<double>(blocks_replayed),
        "count");
  AddClassMetrics(spans, self, children, phase_queries, &m);
  m.Add("bench.trace_overhead",
        (traced_ingest_s + traced_query_s) /
            (untraced_ingest_s + untraced_query_s),
        "ratio");
  m.Add("bench.span_coverage.ingest",
        coverage({"bench.ingest_worker", "bench.flush_worker"}), "ratio");
  m.Add("bench.span_coverage.query", coverage({"bench.query"}), "ratio");

  std::fprintf(stderr,
               "traced: ingest %.3f s (untraced %.3f s), queries %lld in "
               "%.3f s (untraced %.3f s), %zu spans\n",
               traced_ingest_s, untraced_ingest_s,
               static_cast<long long>(num_queries), traced_query_s,
               untraced_query_s, spans.size());
  if (!opt.spans_out.empty() && !WriteSpans(opt.spans_out, spans)) {
    std::fprintf(stderr, "fatal: cannot write %s\n", opt.spans_out.c_str());
    return 2;
  }
  PrintFacts(opt, spec, d, StoredBytes(root), "");
  TearDown(&d);
  PrintResult(gate, m);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload ep_hot|ep_cold --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--spans-out") {
      opt.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.work_dir.empty() || !(opt.seconds > 0)) {
    return Usage();
  }
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == opt.workload) {
      std::filesystem::create_directories(opt.work_dir);
      return opt.trace ? RunTraced(opt, spec) : RunEndToEnd(opt, spec);
    }
  }
  return Usage();
}
