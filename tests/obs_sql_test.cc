// SQL introspection surface of the obs layer: SELECT * FROM METRICS()
// returns live counters after an ingest + query workload, TRACES() lists
// retained span trees, and EXPLAIN ANALYZE prints the span tree with
// per-stage timings.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "cluster/cluster.h"
#include "ingest/pipeline.h"
#include "obs/event_ring.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "obs/watchdog.h"
#include "query/engine.h"
#include "query/parser.h"
#include "workload/dataset.h"

namespace modelardb {
namespace {

using workload::SyntheticDataset;

class ObsSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().ResetForTest();
    obs::Tracer::Global().ResetForTest();

    dataset_ = std::make_unique<SyntheticDataset>(
        SyntheticDataset::Ep(4, 400));
    groups_ = *Partitioner::Partition(dataset_->catalog(),
                                      dataset_->BestHints());
    registry_ = ModelRegistry::Default();
    cluster::ClusterConfig config;
    config.num_workers = 2;
    cluster_ = *cluster::ClusterEngine::Create(dataset_->catalog(), groups_,
                                               &registry_, config);
    report_ = *ingest::RunPipeline(cluster_.get(),
                                   dataset_->MakeSources(groups_), {});
  }

  // name[/label] → value column for every METRICS() row.
  std::map<std::string, query::Cell> MetricsByName() {
    auto result = *cluster_->Execute("SELECT * FROM METRICS()");
    EXPECT_EQ(result.columns,
              (std::vector<std::string>{"name", "label", "type", "value"}));
    std::map<std::string, query::Cell> by_name;
    for (const auto& row : result.rows) {
      std::string key = std::get<std::string>(row[0]);
      const std::string& label = std::get<std::string>(row[1]);
      if (!label.empty()) key += "/" + label;
      by_name[key] = row[3];
    }
    return by_name;
  }

  std::unique_ptr<SyntheticDataset> dataset_;
  std::vector<TimeSeriesGroup> groups_;
  ModelRegistry registry_;
  std::unique_ptr<cluster::ClusterEngine> cluster_;
  ingest::IngestReport report_;
};

TEST_F(ObsSqlTest, MetricsReturnsLiveCountersAfterWorkload) {
  // The ingest already ran in SetUp; add a query so both layers count.
  ASSERT_TRUE(cluster_->Execute("SELECT SUM_S(*) FROM Segment").ok());

  std::map<std::string, query::Cell> metrics = MetricsByName();
  ASSERT_TRUE(metrics.count(obs::kIngestPointsTotal));
  EXPECT_EQ(std::get<int64_t>(metrics[obs::kIngestPointsTotal]),
            report_.data_points);
  ASSERT_TRUE(metrics.count(obs::kStorePutTotal));
  EXPECT_GT(std::get<int64_t>(metrics[obs::kStorePutTotal]), 0);
  ASSERT_TRUE(metrics.count(obs::kQueryQueriesTotal));
  EXPECT_GE(std::get<int64_t>(metrics[obs::kQueryQueriesTotal]), 1);
  // Histograms surface as _count / _sum rows.
  const std::string count_row = std::string(obs::kQuerySeconds) + "_count";
  ASSERT_TRUE(metrics.count(count_row));
  EXPECT_GE(std::get<int64_t>(metrics[count_row]), 1);
  // Per-model gauges carry the ingest breakdown.
  bool saw_model_gauge = false;
  for (const auto& [key, value] : metrics) {
    if (key.rfind(std::string(obs::kIngestSegments) + "/model=", 0) == 0) {
      saw_model_gauge = true;
      EXPECT_GT(std::get<double>(value), 0.0);
    }
  }
  EXPECT_TRUE(saw_model_gauge);
}

TEST_F(ObsSqlTest, MetricsQueryCountsGrowAcrossQueries) {
  ASSERT_TRUE(cluster_->Execute("SELECT COUNT_S(*) FROM Segment").ok());
  auto before = MetricsByName();
  const int64_t count =
      std::get<int64_t>(before[obs::kQueryQueriesTotal]);
  ASSERT_TRUE(cluster_->Execute("SELECT COUNT_S(*) FROM Segment").ok());
  auto after = MetricsByName();
  EXPECT_GE(std::get<int64_t>(after[obs::kQueryQueriesTotal]), count + 1);
}

TEST_F(ObsSqlTest, MetricsHonoursLimit) {
  auto result = *cluster_->Execute("SELECT * FROM METRICS() LIMIT 3");
  EXPECT_EQ(result.rows.size(), 3u);
}

TEST_F(ObsSqlTest, TracesListsRetainedSpanTrees) {
  ASSERT_TRUE(cluster_->Execute("SELECT SUM_S(*) FROM Segment").ok());
  auto result = *cluster_->Execute("SELECT * FROM TRACES()");
  EXPECT_EQ(result.columns,
            (std::vector<std::string>{"trace", "query", "span", "parent",
                                      "name", "start_ms", "wall_ms",
                                      "cpu_ms"}));
  ASSERT_FALSE(result.rows.empty());
  // The SUM query's trace must contain the canonical stages.
  std::map<std::string, int> stage_count;
  for (const auto& row : result.rows) {
    if (std::get<std::string>(row[1]) == "SELECT SUM_S(*) FROM Segment") {
      ++stage_count[std::get<std::string>(row[4])];
    }
  }
  EXPECT_EQ(stage_count["parse"], 1);
  EXPECT_EQ(stage_count["plan"], 1);
  EXPECT_EQ(stage_count["scan"], 1);
  EXPECT_EQ(stage_count["merge"], 1);
  EXPECT_GT(stage_count["morsel fan-out"], 0);
}

TEST_F(ObsSqlTest, ExplainAnalyzePrintsSpanTree) {
  auto result =
      *cluster_->Execute("EXPLAIN ANALYZE SELECT SUM_S(*) FROM Segment");
  ASSERT_EQ(result.columns, (std::vector<std::string>{"plan"}));
  bool saw_header = false;
  bool saw_timing = false;
  for (const auto& row : result.rows) {
    const std::string& line = std::get<std::string>(row[0]);
    if (line == "span tree") saw_header = true;
    if (line.find("wall") != std::string::npos &&
        line.find("ms") != std::string::npos) {
      saw_timing = true;
    }
  }
  EXPECT_TRUE(saw_header);
  EXPECT_TRUE(saw_timing);
}

TEST_F(ObsSqlTest, ExplainAnalyzeRunsMorselsOnlyOnTheOwningWorker) {
  // A Tid-restricted query names one Gid; only the worker that stores it
  // may run a morsel for it.
  const int owner = cluster_->WorkerOf(groups_[0].gid);
  const std::string sql =
      "EXPLAIN ANALYZE SELECT Tid, TS, Value FROM DataPoint WHERE Tid = " +
      std::to_string(groups_[0].tids[0]);
  ASSERT_TRUE(cluster_->Execute(sql).ok());
  // The newest trace's spans, id -> (name, parent), from TRACES().
  auto traces = *cluster_->Execute("SELECT * FROM TRACES()");
  const int64_t trace_id = std::get<int64_t>(traces.rows.at(0)[0]);
  std::map<int64_t, std::pair<std::string, int64_t>> spans;
  for (const auto& row : traces.rows) {
    if (std::get<int64_t>(row[0]) != trace_id) continue;
    spans[std::get<int64_t>(row[2])] = {std::get<std::string>(row[4]),
                                        std::get<int64_t>(row[3])};
  }
  std::map<std::string, int> morsels_under;  // Worker span -> morsels.
  for (const auto& [id, span] : spans) {
    if (span.first.rfind("morsel gid=", 0) != 0) continue;
    int64_t parent = span.second;
    while (spans.count(parent) &&
           spans[parent].first.rfind("worker ", 0) != 0) {
      parent = spans[parent].second;
    }
    ASSERT_TRUE(spans.count(parent)) << span.first;
    ++morsels_under[spans[parent].first];
  }
  EXPECT_EQ(morsels_under,
            (std::map<std::string, int>{{"worker " + std::to_string(owner),
                                         1}}));
}

TEST_F(ObsSqlTest, PlainExplainHasNoSpanTree) {
  auto result =
      *cluster_->Execute("EXPLAIN SELECT SUM_S(*) FROM Segment");
  for (const auto& row : result.rows) {
    EXPECT_EQ(std::get<std::string>(row[0]).find("span tree"),
              std::string::npos);
  }
}

TEST_F(ObsSqlTest, IntrospectionViewsRejectFiltersAndProjection) {
  EXPECT_FALSE(cluster_->Execute("SELECT name FROM METRICS()").ok());
  EXPECT_FALSE(
      cluster_->Execute("SELECT * FROM METRICS() WHERE Tid = 1").ok());
  EXPECT_FALSE(cluster_->Execute("SELECT * FROM TRACES() GROUP BY Tid").ok());
  EXPECT_FALSE(cluster_->Execute("SELECT * FROM METRICS(1)").ok());
}

TEST_F(ObsSqlTest, IntrospectionViewsCannotBeCompiled) {
  auto ast = *query::ParseQuery("SELECT * FROM METRICS()");
  EXPECT_FALSE(cluster_->query_engine().Compile(ast).ok());
}

TEST_F(ObsSqlTest, HealthReportsOkOnAQuietCluster) {
  auto result = *cluster_->Execute("SELECT * FROM HEALTH()");
  EXPECT_EQ(result.columns, (std::vector<std::string>{"field", "value"}));
  std::map<std::string, query::Cell> by_field;
  for (const auto& row : result.rows) {
    by_field[std::get<std::string>(row[0])] = row[1];
  }
  ASSERT_TRUE(by_field.count("status"));
  EXPECT_EQ(std::get<std::string>(by_field["status"]), "ok");
  ASSERT_TRUE(by_field.count("inflight_ops"));
  EXPECT_EQ(std::get<int64_t>(by_field["inflight_ops"]), 0);
  ASSERT_TRUE(by_field.count("checks"));
  EXPECT_GE(std::get<int64_t>(by_field["checks"]), 1);
  ASSERT_TRUE(by_field.count("queue_depth"));
}

TEST_F(ObsSqlTest, HealthNamesAStalledOperation) {
  obs::WatchdogOptions options;
  options.stalled_after_ms = 0;  // Any registered heartbeat is stale.
  obs::Watchdog::Global().SetOptions(options);
  {
    obs::HeartbeatScope scope("recovery");
    auto result = *cluster_->Execute("SELECT * FROM HEALTH()");
    std::string status;
    std::string reason;
    for (const auto& row : result.rows) {
      const std::string& field = std::get<std::string>(row[0]);
      if (field == "status") status = std::get<std::string>(row[1]);
      if (field == "reason" && reason.empty()) {
        reason = std::get<std::string>(row[1]);
      }
    }
    EXPECT_EQ(status, "stalled");
    EXPECT_NE(reason.find("recovery heartbeat stalled"), std::string::npos);
  }
  obs::Watchdog::Global().SetOptions(obs::WatchdogOptions());
}

TEST_F(ObsSqlTest, HealthHonoursLimitAndRejectsFilters) {
  auto limited = *cluster_->Execute("SELECT * FROM HEALTH() LIMIT 1");
  ASSERT_EQ(limited.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(limited.rows[0][0]), "status");
  EXPECT_FALSE(cluster_->Execute("SELECT status FROM HEALTH()").ok());
  EXPECT_FALSE(
      cluster_->Execute("SELECT * FROM HEALTH() WHERE Tid = 1").ok());
  EXPECT_FALSE(cluster_->Execute("SELECT * FROM HEALTH(1)").ok());
  auto ast = *query::ParseQuery("SELECT * FROM HEALTH()");
  EXPECT_FALSE(cluster_->query_engine().Compile(ast).ok());
}

TEST_F(ObsSqlTest, ExplainAnalyzeReportsResourceAccounting) {
  const std::string sql = "EXPLAIN ANALYZE SELECT SUM_S(*) FROM Segment";
  auto result = *cluster_->Execute(sql);
  std::map<std::string, bool> saw;
  for (const auto& row : result.rows) {
    const std::string& line = std::get<std::string>(row[0]);
    for (const char* stat : {"bytes decoded:", "cold pins:", "hot pins:",
                             "morsel cpu ms:", "queue wait ms:"}) {
      if (line.find(stat) != std::string::npos) saw[stat] = true;
    }
  }
  for (const char* stat : {"bytes decoded:", "cold pins:", "hot pins:",
                           "morsel cpu ms:", "queue wait ms:"}) {
    EXPECT_TRUE(saw[stat]) << stat;
  }

  // EXPLAIN ANALYZE runs what it explains: its counter lines equal the
  // summed ScanStats of the same query's per-worker partials (the timing
  // lines aside, which differ from run to run).
  auto ast = *query::ParseQuery("SELECT SUM_S(*) FROM Segment");
  auto compiled = *cluster_->query_engine().Compile(ast);
  ScanStats summed;
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    summed.Merge(cluster_->ExecuteOnWorker(compiled, w)->scan);
  }
  std::set<std::string> lines;
  for (const auto& row : result.rows) {
    lines.insert(std::get<std::string>(row[0]));
  }
  for (const std::string& line : query::ScanStatsLines(summed)) {
    if (line.rfind("morsel cpu ms:", 0) == 0 ||
        line.rfind("queue wait ms:", 0) == 0) {
      continue;
    }
    EXPECT_TRUE(lines.count(line)) << line;
  }

  // Its span tree is the pooled fan-out of a query: every "morsel gid="
  // span hangs off a "morsel fan-out" span under a per-worker span, and
  // both workers appear.
  auto traces = *cluster_->Execute("SELECT * FROM TRACES()");
  int64_t trace_id = -1;
  std::map<int64_t, std::pair<std::string, int64_t>> spans;  // id → name.
  for (const auto& row : traces.rows) {  // Newest trace first.
    const std::string& label = std::get<std::string>(row[1]);
    if (trace_id < 0 && (label == sql || label == "EXPLAIN ANALYZE")) {
      trace_id = std::get<int64_t>(row[0]);
    }
    if (std::get<int64_t>(row[0]) == trace_id) {
      spans[std::get<int64_t>(row[2])] = {std::get<std::string>(row[4]),
                                          std::get<int64_t>(row[3])};
    }
  }
  ASSERT_GE(trace_id, 0);
  std::set<std::string> workers_seen;
  int morsels = 0;
  for (const auto& [id, span] : spans) {
    if (span.first.rfind("morsel gid=", 0) != 0) continue;
    ++morsels;
    ASSERT_TRUE(spans.count(span.second));
    const auto& fan_out = spans[span.second];
    EXPECT_EQ(fan_out.first, "morsel fan-out");
    ASSERT_TRUE(spans.count(fan_out.second));
    const std::string& worker = spans[fan_out.second].first;
    EXPECT_EQ(worker.rfind("worker ", 0), 0u) << worker;
    workers_seen.insert(worker);
  }
  EXPECT_EQ(morsels, static_cast<int>(groups_.size()));
  EXPECT_EQ(workers_seen.size(), 2u);
}

TEST_F(ObsSqlTest, SlowQueryLogCountsAndRecordsOverThreshold) {
  obs::EventRing::Global().ResetForTest();
  obs::Counter& slow =
      obs::MetricsRegistry::Global().GetCounter(obs::kQuerySlowTotal);
  const int64_t before = slow.Value();
  ScanStats stats;
  stats.segments_scanned = 4;

  obs::SetSlowQueryThresholdMs(-1);  // Disabled: nothing fires.
  query::MaybeLogSlowQuery(10'000'000'000, stats, 10);
  EXPECT_EQ(slow.Value(), before);

  obs::SetSlowQueryThresholdMs(5);  // A 10 ms query is now slow.
  query::MaybeLogSlowQuery(10'000'000, stats, 10);
  query::MaybeLogSlowQuery(1'000'000, stats, 10);  // Fast: no.
  EXPECT_EQ(slow.Value(), before + 1);
  bool saw_event = false;
  for (const obs::EventRecord& record :
       obs::EventRing::Global().Snapshot()) {
    if (record.kind == obs::EventKind::kSlowQuery) {
      saw_event = true;
      EXPECT_EQ(record.a, 10'000'000);  // Latency ns.
      EXPECT_EQ(record.b, 10);          // Rows.
      EXPECT_STREQ(record.detail, "query");
    }
  }
  EXPECT_TRUE(saw_event);
  obs::SetSlowQueryThresholdMs(1000);  // Back to the default.
}

TEST_F(ObsSqlTest, ClusterConfigAppliesObservabilityKnobs) {
  cluster::ClusterConfig config;
  config.num_workers = 1;
  config.trace_ring_capacity = 7;
  config.slow_query_ms = 777;
  auto engine = cluster::ClusterEngine::Create(dataset_->catalog(), groups_,
                                               &registry_, config);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(obs::Tracer::Global().capacity(), 7u);
  EXPECT_EQ(obs::SlowQueryThresholdNs(), 777 * 1000000);
  obs::SetSlowQueryThresholdMs(1000);
  obs::Tracer::Global().SetCapacity(obs::Tracer::kDefaultCapacity);
}

TEST_F(ObsSqlTest, QueriesRunWithTracingDisabled) {
  obs::SetEnabled(false);
  auto result = cluster_->Execute("SELECT COUNT_S(*) FROM Segment");
  obs::SetEnabled(true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<int64_t>(result->rows[0][0]),
            dataset_->CountDataPoints());
}

}  // namespace
}  // namespace modelardb
