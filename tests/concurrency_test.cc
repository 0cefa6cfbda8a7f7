// Concurrency: the online-analytics path (Fig 13's O-* scenarios) runs
// queries while ingestion threads append segments. These tests drive the
// store and the cluster engine from multiple threads and check that
// results are always consistent snapshots.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "ingest/pipeline.h"
#include "storage/segment_store.h"
#include "workload/dataset.h"

namespace modelardb {
namespace {

// A source that pauses at row `pause_at` until `resume()` holds, so the
// ingestion it belongs to is still running when a concurrent reader has
// completed its first query, however the threads are scheduled.
class PausingSource : public ingest::GroupRowSource {
 public:
  PausingSource(std::unique_ptr<ingest::GroupRowSource> inner,
                int64_t pause_at, std::function<bool()> resume)
      : inner_(std::move(inner)),
        pause_at_(pause_at),
        resume_(std::move(resume)) {}

  Gid gid() const override { return inner_->gid(); }

  Result<bool> Next(GroupRow* row) override {
    if (rows_++ == pause_at_) {
      while (!resume_()) std::this_thread::yield();
    }
    return inner_->Next(row);
  }

 private:
  std::unique_ptr<ingest::GroupRowSource> inner_;
  int64_t pause_at_;
  std::function<bool()> resume_;
  int64_t rows_ = 0;
};

// `dataset`'s sources, the first one pausing at its midpoint until
// `resume()` holds.
std::vector<std::unique_ptr<ingest::GroupRowSource>> SourcesPausingAtMidpoint(
    const workload::SyntheticDataset& dataset,
    const std::vector<TimeSeriesGroup>& groups, std::function<bool()> resume) {
  std::vector<std::unique_ptr<ingest::GroupRowSource>> sources =
      dataset.MakeSources(groups);
  sources.front() = std::make_unique<PausingSource>(
      std::move(sources.front()), dataset.rows_per_series() / 2,
      std::move(resume));
  return sources;
}

TEST(StoreConcurrencyTest, ConcurrentPutAndScan) {
  auto store = *SegmentStore::Open(SegmentStoreOptions{});
  std::atomic<bool> done{false};
  std::atomic<bool> reader_failed{false};
  std::atomic<int64_t> scans{0};
  Status scan_status;

  std::thread reader([&] {
    while (!done.load()) {
      int64_t count = 0;
      Status s = store->Scan(SegmentFilter{}, [&count](const Segment& seg) {
        // Every observed segment must be internally consistent.
        if (seg.Length() < 1 || seg.si != 100) {
          return Status::Internal("inconsistent segment");
        }
        ++count;
        return Status::OK();
      });
      if (!s.ok()) {
        scan_status = s;
        reader_failed.store(true);
        return;
      }
      scans.fetch_add(1);
    }
  });

  // Four writers on distinct groups, as the pipeline guarantees, all
  // running at once. Each pauses halfway until the reader has completed a
  // scan, so every scan after that overlaps the remaining puts.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 500; ++i) {
        if (i == 250) {
          while (scans.load() == 0 && !reader_failed.load()) {
            std::this_thread::yield();
          }
        }
        Segment s;
        s.gid = w + 1;
        s.start_time = i * 1000;
        s.end_time = i * 1000 + 900;
        s.si = 100;
        s.mid = kMidPmcMean;
        s.parameters = {0, 0, 0x20, 0x41};
        ASSERT_TRUE(store->Put(s).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  reader.join();
  EXPECT_TRUE(scan_status.ok()) << scan_status;
  EXPECT_GT(scans.load(), 0);
  EXPECT_EQ(store->NumSegments(), 4 * 500);
}

TEST(ClusterConcurrencyTest, QueriesDuringIngestionSeeConsistentCounts) {
  workload::SyntheticDataset dataset = workload::SyntheticDataset::Ep(4, 2000);
  auto groups =
      *Partitioner::Partition(dataset.catalog(), dataset.BestHints());
  ModelRegistry registry = ModelRegistry::Default();
  cluster::ClusterConfig config;
  config.num_workers = 2;
  auto cluster = *cluster::ClusterEngine::Create(dataset.catalog(), groups,
                                                 &registry, config);

  std::atomic<bool> done{false};
  std::atomic<bool> query_failed{false};
  std::atomic<int64_t> queries{0};
  int64_t previous_count = 0;
  Status query_status;
  std::thread query_thread([&] {
    while (!done.load()) {
      auto result = cluster->Execute("SELECT COUNT_S(*) FROM Segment");
      if (!result.ok()) {
        query_status = result.status();
        query_failed.store(true);
        return;
      }
      int64_t count = std::get<int64_t>(result->rows[0][0]);
      // Counts must be monotonically non-decreasing during ingestion.
      if (count < previous_count) {
        query_status = Status::Internal("count went backwards");
        query_failed.store(true);
        return;
      }
      previous_count = count;
      queries.fetch_add(1);
    }
  });

  // One source pauses halfway until a query has completed, so queries
  // overlap the rest of the ingestion.
  auto report = *ingest::RunPipeline(
      cluster.get(), SourcesPausingAtMidpoint(dataset, groups, [&] {
        return queries.load() > 0 || query_failed.load();
      }),
      {});
  done.store(true);
  query_thread.join();
  ASSERT_TRUE(query_status.ok()) << query_status;
  EXPECT_GT(queries.load(), 0);

  auto final_count = *cluster->Execute("SELECT COUNT_S(*) FROM Segment");
  EXPECT_EQ(std::get<int64_t>(final_count.rows[0][0]), report.data_points);
}

// Full Fig 13 online-analytics stress: aggregate queries (Algorithms 5/6:
// SUM/MIN/MAX/COUNT and CUBE_ time rollups) hammer a pool-parallel cluster
// while the pipeline ingests. Queries must never fail or block on the
// store mutex (snapshot scans), and once ingestion settles, the parallel
// cluster's results must be byte-identical to a parallelism=1 cluster
// over the same data.
TEST(ClusterConcurrencyTest, StressIngestionWithParallelAggregates) {
  const std::vector<std::string> kQueries = {
      "SELECT SUM_S(*), MIN_S(*), MAX_S(*), COUNT_S(*) FROM Segment",
      "SELECT Tid, SUM_S(*), MIN_S(*), MAX_S(*), COUNT_S(*) FROM Segment "
      "GROUP BY Tid",
      "SELECT CUBE_SUM_HOUR(*), CUBE_COUNT_HOUR(*) FROM Segment",
      "SELECT Tid, CUBE_SUM_DAY(*) FROM Segment GROUP BY Tid",
      "SELECT Entity, SUM_S(*) FROM Segment GROUP BY Entity",
  };

  workload::SyntheticDataset dataset = workload::SyntheticDataset::Ep(4, 2500);
  auto groups =
      *Partitioner::Partition(dataset.catalog(), dataset.BestHints());
  ModelRegistry registry = ModelRegistry::Default();

  cluster::ClusterConfig parallel_config;
  parallel_config.num_workers = 2;
  parallel_config.parallelism = 0;  // Shared hardware-sized pool.
  auto parallel = *cluster::ClusterEngine::Create(dataset.catalog(), groups,
                                                  &registry, parallel_config);

  // Aggregate queries run from several threads while ingestion proceeds.
  std::atomic<bool> done{false};
  std::atomic<int> failed_threads{0};
  std::atomic<int64_t> executed{0};
  std::vector<Status> thread_status(3);
  std::vector<std::thread> query_threads;
  for (int t = 0; t < 3; ++t) {
    query_threads.emplace_back([&, t] {
      size_t i = t;
      while (!done.load()) {
        auto result = parallel->Execute(kQueries[i++ % kQueries.size()]);
        if (!result.ok()) {
          thread_status[t] = result.status();
          failed_threads.fetch_add(1);
          return;
        }
        executed.fetch_add(1);
      }
    });
  }
  // One source pauses halfway until a query has completed (or every
  // query thread has failed), so queries overlap the rest of the
  // ingestion.
  ASSERT_TRUE(ingest::RunPipeline(
                  parallel.get(),
                  SourcesPausingAtMidpoint(dataset, groups,
                                           [&] {
                                             return executed.load() > 0 ||
                                                    failed_threads.load() == 3;
                                           }),
                  {})
                  .ok());
  done.store(true);
  for (auto& thread : query_threads) thread.join();
  for (const Status& status : thread_status) {
    EXPECT_TRUE(status.ok()) << status;
  }
  EXPECT_GT(executed.load(), 0);

  // A fully sequential twin cluster over the same (deterministic) data.
  cluster::ClusterConfig sequential_config = parallel_config;
  sequential_config.parallelism = 1;
  auto sequential = *cluster::ClusterEngine::Create(
      dataset.catalog(), groups, &registry, sequential_config);
  ASSERT_TRUE(
      ingest::RunPipeline(sequential.get(), dataset.MakeSources(groups), {})
          .ok());

  for (const std::string& sql : kQueries) {
    auto from_pool = *parallel->Execute(sql);
    auto from_sequential = *sequential->Execute(sql);
    ASSERT_EQ(from_pool.columns, from_sequential.columns) << sql;
    // Byte-identical rows: Cell operator== compares doubles exactly, so
    // this asserts the identical floating-point reduction tree.
    ASSERT_EQ(from_pool.rows, from_sequential.rows) << sql;
  }
}

TEST(ClusterConcurrencyTest, ParallelQueriesAreIndependent) {
  workload::SyntheticDataset dataset = workload::SyntheticDataset::Ep(2, 1000);
  auto groups =
      *Partitioner::Partition(dataset.catalog(), dataset.BestHints());
  ModelRegistry registry = ModelRegistry::Default();
  cluster::ClusterConfig config;
  config.num_workers = 2;
  auto cluster = *cluster::ClusterEngine::Create(dataset.catalog(), groups,
                                                 &registry, config);
  ASSERT_TRUE(
      ingest::RunPipeline(cluster.get(), dataset.MakeSources(groups), {})
          .ok());

  auto reference = *cluster->Execute(
      "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid");
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto result = cluster->Execute(
            "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid");
        if (!result.ok() || result->rows.size() != reference.rows.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t r = 0; r < reference.rows.size(); ++r) {
          if (std::get<double>(result->rows[r][1]) !=
              std::get<double>(reference.rows[r][1])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace modelardb
