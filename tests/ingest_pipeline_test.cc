#include "ingest/pipeline.h"

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "partition/partitioner.h"

namespace modelardb {
namespace ingest {
namespace {

// A scripted source: emits `rows` constant rows for `gid`.
class ScriptedSource : public GroupRowSource {
 public:
  ScriptedSource(Gid gid, int num_series, int64_t rows, Value value)
      : gid_(gid), num_series_(num_series), rows_(rows), value_(value) {}

  Gid gid() const override { return gid_; }
  Result<bool> Next(GroupRow* row) override {
    if (next_ >= rows_) return false;
    row->timestamp = next_ * 100;
    row->values.assign(num_series_, value_);
    row->present.assign(num_series_, true);
    ++next_;
    return true;
  }
  int64_t emitted() const { return next_; }

 private:
  Gid gid_;
  int num_series_;
  int64_t rows_;
  Value value_;
  int64_t next_ = 0;
};

// A source that fails after a few rows (error propagation).
class FailingSource : public GroupRowSource {
 public:
  explicit FailingSource(Gid gid) : gid_(gid) {}
  Gid gid() const override { return gid_; }
  Result<bool> Next(GroupRow* row) override {
    if (next_ >= 3) return Status::IOError("socket dropped");
    row->timestamp = next_ * 100;
    row->values.assign(1, 1.0f);
    row->present.assign(1, true);
    ++next_;
    return true;
  }

 private:
  Gid gid_;
  int64_t next_ = 0;
};

struct Fixture {
  std::unique_ptr<TimeSeriesCatalog> catalog;
  std::vector<TimeSeriesGroup> groups;
  ModelRegistry registry = ModelRegistry::Default();
  std::unique_ptr<cluster::ClusterEngine> engine;

  explicit Fixture(int num_groups, int workers = 2, int parallelism = 0) {
    catalog = std::make_unique<TimeSeriesCatalog>(std::vector<Dimension>{});
    Tid tid = 1;
    for (int g = 1; g <= num_groups; ++g) {
      TimeSeriesMeta meta;
      meta.tid = tid;
      meta.si = 100;
      meta.source = "s" + std::to_string(tid);
      EXPECT_TRUE(catalog->AddSeries(meta).ok());
      catalog->GetMutable(tid)->gid = g;
      groups.push_back({g, {tid}, 100});
      ++tid;
    }
    cluster::ClusterConfig config;
    config.num_workers = workers;
    config.parallelism = parallelism;
    engine = std::move(*cluster::ClusterEngine::Create(
        catalog.get(), groups, &registry, config));
  }
};

TEST(PipelineTest, DrainsUnevenSources) {
  Fixture fixture(3);
  std::vector<std::unique_ptr<GroupRowSource>> sources;
  sources.push_back(std::make_unique<ScriptedSource>(1, 1, 100, 1.0f));
  sources.push_back(std::make_unique<ScriptedSource>(2, 1, 5000, 2.0f));
  sources.push_back(std::make_unique<ScriptedSource>(3, 1, 1, 3.0f));
  auto report = *RunPipeline(fixture.engine.get(), std::move(sources), {});
  EXPECT_EQ(report.data_points, 100 + 5000 + 1);
  EXPECT_EQ(report.rows, 5101);
  auto counts = *fixture.engine->Execute(
      "SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid");
  ASSERT_EQ(counts.rows.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(counts.rows[0][1]), 100);
  EXPECT_EQ(std::get<int64_t>(counts.rows[1][1]), 5000);
  EXPECT_EQ(std::get<int64_t>(counts.rows[2][1]), 1);
}

TEST(PipelineTest, MicroBatchSizeDoesNotChangeResults) {
  for (int batch : {1, 7, 512}) {
    Fixture fixture(2);
    std::vector<std::unique_ptr<GroupRowSource>> sources;
    sources.push_back(std::make_unique<ScriptedSource>(1, 1, 777, 1.0f));
    sources.push_back(std::make_unique<ScriptedSource>(2, 1, 777, 2.0f));
    PipelineOptions options;
    options.micro_batch_rows = batch;
    auto report =
        *RunPipeline(fixture.engine.get(), std::move(sources), options);
    EXPECT_EQ(report.data_points, 2 * 777) << "batch " << batch;
    auto count = *fixture.engine->Execute("SELECT COUNT_S(*) FROM Segment");
    EXPECT_EQ(std::get<int64_t>(count.rows[0][0]), 2 * 777);
  }
}

TEST(PipelineTest, SingleThreadedModeMatches) {
  Fixture fixture(4, /*workers=*/3, /*parallelism=*/1);
  std::vector<std::unique_ptr<GroupRowSource>> sources;
  for (Gid g = 1; g <= 4; ++g) {
    sources.push_back(std::make_unique<ScriptedSource>(g, 1, 200, 1.0f));
  }
  auto report = *RunPipeline(fixture.engine.get(), std::move(sources), {});
  EXPECT_EQ(report.data_points, 4 * 200);
}

TEST(PipelineTest, SourceErrorPropagates) {
  Fixture fixture(1, /*workers=*/1);
  std::vector<std::unique_ptr<GroupRowSource>> sources;
  sources.push_back(std::make_unique<FailingSource>(1));
  auto report = RunPipeline(fixture.engine.get(), std::move(sources), {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIOError);
}

TEST(PipelineTest, EmptySourceListIsFine) {
  Fixture fixture(1);
  auto report = *RunPipeline(fixture.engine.get(), {}, {});
  EXPECT_EQ(report.data_points, 0);
}

TEST(PipelineTest, ThroughputReportIsConsistent) {
  Fixture fixture(2);
  std::vector<std::unique_ptr<GroupRowSource>> sources;
  sources.push_back(std::make_unique<ScriptedSource>(1, 1, 10000, 1.0f));
  sources.push_back(std::make_unique<ScriptedSource>(2, 1, 10000, 2.0f));
  auto report = *RunPipeline(fixture.engine.get(), std::move(sources), {});
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_NEAR(report.points_per_second,
              report.data_points / report.seconds,
              report.points_per_second * 1e-9);
}

}  // namespace
}  // namespace ingest
}  // namespace modelardb
