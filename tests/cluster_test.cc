#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "ingest/pipeline.h"
#include "query/parser.h"
#include "workload/dataset.h"

namespace modelardb {
namespace cluster {
namespace {

using workload::SyntheticDataset;

// A result as text, doubles as their exact bit patterns in hex, so two
// answers compare equal only when they are byte-identical.
std::string Bits(const query::QueryResult& result) {
  std::string out;
  for (const auto& row : result.rows) {
    for (const query::Cell& cell : row) {
      if (const double* value = std::get_if<double>(&cell)) {
        uint64_t bits;
        std::memcpy(&bits, value, sizeof(bits));
        char hex[24];
        std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, bits);
        out += hex;
      } else {
        out += query::CellToString(cell);
      }
      out += ' ';
    }
    out += '\n';
  }
  return out;
}

TEST(ClusterAssignmentTest, GroupsBalanceAcrossWorkers) {
  SyntheticDataset dataset = SyntheticDataset::Ep(8, 100);
  auto groups = *Partitioner::Partition(dataset.catalog(),
                                        dataset.BestHints());
  ModelRegistry registry = ModelRegistry::Default();
  ClusterConfig config;
  config.num_workers = 4;
  auto cluster = *ClusterEngine::Create(dataset.catalog(), groups, &registry,
                                        config);
  // Count series per worker; capacity-based assignment must balance them.
  std::vector<int> series_per_worker(4, 0);
  for (const auto& group : groups) {
    int worker = cluster->WorkerOf(group.gid);
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    series_per_worker[worker] += static_cast<int>(group.tids.size());
  }
  int min_load = *std::min_element(series_per_worker.begin(),
                                   series_per_worker.end());
  int max_load = *std::max_element(series_per_worker.begin(),
                                   series_per_worker.end());
  EXPECT_LE(max_load - min_load, 4);  // Largest group size in this set.
}

TEST(ClusterIngestTest, PipelineIngestsEverythingAndQueriesMatch) {
  SyntheticDataset dataset = SyntheticDataset::Ep(4, 500);
  auto groups = *Partitioner::Partition(dataset.catalog(),
                                        dataset.BestHints());
  ModelRegistry registry = ModelRegistry::Default();
  ClusterConfig config;
  config.num_workers = 2;
  auto cluster = *ClusterEngine::Create(dataset.catalog(), groups, &registry,
                                        config);
  auto report = *ingest::RunPipeline(cluster.get(),
                                     dataset.MakeSources(groups), {});
  EXPECT_EQ(report.data_points, dataset.CountDataPoints());

  // Lossless bound: COUNT across the cluster equals the generated points.
  auto result = *cluster->Execute("SELECT COUNT_S(*) FROM Segment");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), dataset.CountDataPoints());

  // SUM per Tid matches the deterministic ground truth (raw units: the
  // engine divides by each series' scaling constant).
  auto sums = *cluster->Execute(
      "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid");
  ASSERT_EQ(sums.rows.size(), static_cast<size_t>(dataset.num_series()));
  for (const auto& row : sums.rows) {
    Tid tid = static_cast<Tid>(std::get<int64_t>(row[0]));
    double expected = 0;
    for (int64_t r = 0; r < dataset.rows_per_series(); ++r) {
      if (dataset.Present(tid, r)) expected += dataset.RawValue(tid, r);
    }
    EXPECT_NEAR(std::get<double>(row[1]), expected,
                std::abs(expected) * 1e-4 + 1e-3)
        << "tid " << tid;
  }
}

TEST(ClusterIngestTest, ParallelAndSequentialQueriesAgree) {
  SyntheticDataset dataset = SyntheticDataset::Ep(4, 300);
  auto groups = *Partitioner::Partition(dataset.catalog(),
                                        dataset.BestHints());
  ModelRegistry registry = ModelRegistry::Default();
  ClusterConfig config;
  config.num_workers = 3;
  auto cluster = *ClusterEngine::Create(dataset.catalog(), groups, &registry,
                                        config);
  ASSERT_TRUE(ingest::RunPipeline(cluster.get(), dataset.MakeSources(groups),
                                  {})
                  .ok());
  auto parallel = *cluster->Execute(
      "SELECT Tid, SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid");
  ClusterConfig seq_config = config;
  // Same cluster; just run the query path sequentially via per-worker
  // partials and compare.
  auto ast = *query::ParseQuery(
      "SELECT Tid, SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid");
  auto compiled = *cluster->query_engine().Compile(ast);
  std::vector<query::PartialResult> partials;
  for (int w = 0; w < cluster->num_workers(); ++w) {
    partials.push_back(*cluster->ExecuteOnWorker(compiled, w));
  }
  auto sequential =
      *cluster->query_engine().MergeFinalize(compiled, std::move(partials));
  ASSERT_EQ(parallel.rows.size(), sequential.rows.size());
  EXPECT_EQ(Bits(parallel), Bits(sequential));
}

// One merge order: the global aggregates are byte-identical whether they
// come from a single-partition QueryEngine::Execute, a cluster of 1 or 3
// workers at parallelism 1 or 2, or per-worker partials merged by the
// caller in reverse worker order. Global keys collect every group, so the
// floating-point reduction tree spans all partitions.
TEST(ClusterBitIdentityTest, GlobalAggregatesIdenticalAcrossPartitionings) {
  SyntheticDataset dataset = SyntheticDataset::Ep(6, 4000);
  auto groups = *Partitioner::Partition(dataset.catalog(),
                                        dataset.BestHints());
  ASSERT_GT(groups.size(), 3u);
  ModelRegistry registry = ModelRegistry::Default();
  const std::vector<std::string> queries = {
      "SELECT SUM_S(*) FROM Segment", "SELECT AVG_S(*) FROM Segment",
      "SELECT CUBE_SUM_MONTH(*) FROM Segment"};

  std::vector<std::string> reference;
  for (int num_workers : {1, 3}) {
    for (int parallelism : {1, 2}) {
      ClusterConfig config;
      config.num_workers = num_workers;
      config.parallelism = parallelism;
      config.error_bound = ErrorBound::Relative(1.0);
      auto cluster = *ClusterEngine::Create(dataset.catalog(), groups,
                                            &registry, config);
      ASSERT_TRUE(ingest::RunPipeline(cluster.get(),
                                      dataset.MakeSources(groups), {})
                      .ok());
      const std::string where = "workers=" + std::to_string(num_workers) +
                                " parallelism=" +
                                std::to_string(parallelism);
      if (reference.empty()) {
        // The single-node form: one partition, no pool.
        for (const std::string& sql : queries) {
          auto single = cluster->query_engine().Execute(
              sql, {cluster->worker(0)->store()});
          ASSERT_TRUE(single.ok()) << sql << ": " << single.status();
          reference.push_back(Bits(*single));
        }
      }
      for (size_t q = 0; q < queries.size(); ++q) {
        auto result = cluster->Execute(queries[q]);
        ASSERT_TRUE(result.ok()) << queries[q] << ": " << result.status();
        EXPECT_EQ(Bits(*result), reference[q]) << queries[q] << " " << where;

        auto compiled = *cluster->query_engine().Compile(
            *query::ParseQuery(queries[q]));
        std::vector<query::PartialResult> partials;
        for (int w = cluster->num_workers() - 1; w >= 0; --w) {
          partials.push_back(*cluster->ExecuteOnWorker(compiled, w));
        }
        auto merged = cluster->query_engine().MergeFinalize(
            compiled, std::move(partials));
        ASSERT_TRUE(merged.ok()) << merged.status();
        EXPECT_EQ(Bits(*merged), reference[q])
            << queries[q] << " reversed partials " << where;
      }
    }
  }
}

TEST(ClusterIngestTest, ErrorBoundHoldsAcrossClusterIngestion) {
  SyntheticDataset dataset = SyntheticDataset::Eh(2, 2, 1000);
  auto groups = *Partitioner::Partition(dataset.catalog(),
                                        dataset.BestHints());
  ModelRegistry registry = ModelRegistry::Default();
  ClusterConfig config;
  config.num_workers = 2;
  config.error_bound = ErrorBound::Relative(5.0);
  auto cluster = *ClusterEngine::Create(dataset.catalog(), groups, &registry,
                                        config);
  ASSERT_TRUE(ingest::RunPipeline(cluster.get(), dataset.MakeSources(groups),
                                  {})
                  .ok());
  // Reconstruct every point through the Data Point View and verify the
  // 5% bound against the generator's ground truth.
  auto points = *cluster->Execute("SELECT Tid, TS, Value FROM DataPoint");
  ErrorBound bound = ErrorBound::Relative(5.0);
  ASSERT_EQ(static_cast<int64_t>(points.rows.size()),
            dataset.CountDataPoints());
  for (const auto& row : points.rows) {
    Tid tid = static_cast<Tid>(std::get<int64_t>(row[0]));
    Timestamp ts = std::get<int64_t>(row[1]);
    int64_t r = (ts - dataset.start_time()) / dataset.si();
    float raw = dataset.RawValue(tid, r);
    EXPECT_TRUE(bound.Within(std::get<double>(row[2]), raw))
        << "tid " << tid << " row " << r << " got "
        << std::get<double>(row[2]) << " want " << raw;
  }
}

TEST(ClusterIngestTest, UnknownGidRejected) {
  SyntheticDataset dataset = SyntheticDataset::Ep(1, 10);
  auto groups = *Partitioner::Partition(dataset.catalog(),
                                        dataset.BestHints());
  ModelRegistry registry = ModelRegistry::Default();
  auto cluster = *ClusterEngine::Create(dataset.catalog(), groups, &registry,
                                        ClusterConfig{});
  GroupRow row(0, {1.0f});
  EXPECT_EQ(cluster->Ingest(999, row).code(), StatusCode::kNotFound);
}

TEST(ClusterIngestTest, PersistentStoresSurviveReopen) {
  std::string root = (std::filesystem::temp_directory_path() /
                      ("mdb_cluster_" + std::to_string(::getpid())))
                         .string();
  SyntheticDataset dataset = SyntheticDataset::Ep(2, 200);
  auto groups = *Partitioner::Partition(dataset.catalog(),
                                        dataset.BestHints());
  ModelRegistry registry = ModelRegistry::Default();
  int64_t expected_count = 0;
  {
    ClusterConfig config;
    config.num_workers = 2;
    config.storage_root = root;
    auto cluster = *ClusterEngine::Create(dataset.catalog(), groups,
                                          &registry, config);
    ASSERT_TRUE(ingest::RunPipeline(cluster.get(),
                                    dataset.MakeSources(groups), {})
                    .ok());
    auto result = *cluster->Execute("SELECT COUNT_S(*) FROM Segment");
    expected_count = std::get<int64_t>(result.rows[0][0]);
    EXPECT_GT(cluster->DiskBytes(), 0);
  }
  {
    ClusterConfig config;
    config.num_workers = 2;
    config.storage_root = root;
    auto cluster = *ClusterEngine::Create(dataset.catalog(), groups,
                                          &registry, config);
    auto result = *cluster->Execute("SELECT COUNT_S(*) FROM Segment");
    EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), expected_count);
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace cluster
}  // namespace modelardb
