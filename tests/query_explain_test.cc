#include <gtest/gtest.h>

#include "core/segment_generator.h"
#include "query/engine.h"
#include "query/parser.h"

namespace modelardb {
namespace query {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<TimeSeriesCatalog>(std::vector<Dimension>{
        Dimension("Location", {"Park"})});
    for (Tid tid = 1; tid <= 4; ++tid) {
      TimeSeriesMeta meta;
      meta.tid = tid;
      meta.si = 100;
      meta.source = "s" + std::to_string(tid);
      meta.members = {{tid <= 2 ? "Aalborg" : "Farsoe"}};
      ASSERT_TRUE(catalog_->AddSeries(meta).ok());
      catalog_->GetMutable(tid)->gid = (tid + 1) / 2;
    }
    groups_ = {{1, {1, 2}, 100}, {2, {3, 4}, 100}};
    registry_ = ModelRegistry::Default();
    engine_ = std::make_unique<QueryEngine>(catalog_.get(), groups_,
                                            &registry_);
  }

  std::string Explain(const std::string& sql) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok()) << ast.status();
    auto text = engine_->Explain(*ast);
    EXPECT_TRUE(text.ok()) << text.status();
    return text.ok() ? *text : "";
  }

  std::unique_ptr<TimeSeriesCatalog> catalog_;
  std::vector<TimeSeriesGroup> groups_;
  ModelRegistry registry_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(ExplainTest, ShowsGidRewriting) {
  std::string plan =
      Explain("SELECT SUM_S(*) FROM Segment WHERE Tid IN (1, 2)");
  EXPECT_NE(plan.find("push-down gids: 1"), std::string::npos) << plan;
  EXPECT_NE(plan.find("series filter: 1, 2"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Algorithm 5"), std::string::npos);
}

TEST_F(ExplainTest, ShowsMemberRewriting) {
  std::string plan =
      Explain("SELECT SUM_S(*) FROM Segment WHERE Park = 'Farsoe'");
  EXPECT_NE(plan.find("push-down gids: 2"), std::string::npos) << plan;
}

TEST_F(ExplainTest, ShowsTimeValueAndCube) {
  std::string plan = Explain(
      "SELECT CUBE_SUM_HOUR(*) FROM Segment WHERE TS >= 1000 AND "
      "TS <= 9000 AND Value > 5");
  EXPECT_NE(plan.find("push-down time: [1000, 9000]"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("value range"), std::string::npos);
  EXPECT_NE(plan.find("per HOUR"), std::string::npos);
}

TEST_F(ExplainTest, NonAggregateShowsReconstruction) {
  std::string plan = Explain("SELECT * FROM DataPoint WHERE Tid = 3");
  EXPECT_NE(plan.find("view: DataPoint"), std::string::npos);
  EXPECT_NE(plan.find("reconstruct matching rows"), std::string::npos);
}

TEST_F(ExplainTest, ExplainSqlReturnsPlanRows) {
  auto store = *SegmentStore::Open(SegmentStoreOptions{});
  auto result = engine_->Execute(
      "EXPLAIN SELECT Tid, SUM_S(*) FROM Segment WHERE Tid = 1 GROUP BY Tid",
      {store.get()});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->columns, (std::vector<std::string>{"plan"}));
  ASSERT_GT(result->rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(result->rows[0][0]), "view: Segment");
}

// The plan EXPLAIN prints is the path EXPLAIN ANALYZE measures: for each
// view x aggregate class x value predicate, blocks are summarized only
// when the summary-index line says so, and segments are decoded only when
// the plan decodes them. A rollup's line names its bucket rule instead:
// only blocks and segments inside one bucket fold their summaries, so
// which of them do is the data's doing.
class ExplainPlanTest : public ExplainTest {
 protected:
  void SetUp() override {
    ExplainTest::SetUp();
    SegmentStoreOptions options;
    options.block_size = 4;
    options.registry = &registry_;
    for (const auto& g : groups_) {
      options.group_sizes[g.gid] = static_cast<int>(g.tids.size());
    }
    store_ = std::move(*SegmentStore::Open(options));
    for (const auto& g : groups_) {
      SegmentGeneratorConfig config;
      config.gid = g.gid;
      config.si = 100;
      config.num_series = static_cast<int>(g.tids.size());
      config.registry = &registry_;
      SegmentGenerator generator(config, g.tids);
      std::vector<Segment> segments;
      for (int i = 0; i < 4000; ++i) {
        // Alternating low (< 50) and high (> 50) regimes of 400 rows, so a
        // `Value > 50` predicate contains some blocks and prunes others.
        std::vector<Value> values;
        for (Tid tid : g.tids) {
          const float base = (i / 400) % 2 == 0 ? 10.0f : 80.0f;
          values.push_back(base + static_cast<float>(tid + i % 7));
        }
        ASSERT_TRUE(generator
                        .Ingest(GroupRow(static_cast<Timestamp>(i) * 100,
                                         std::move(values)),
                                &segments)
                        .ok());
      }
      ASSERT_TRUE(generator.Flush(&segments).ok());
      ASSERT_TRUE(store_->PutBatch(segments).ok());
    }
  }

  // The value of the `EXPLAIN ANALYZE` counter line "<name>: N".
  int64_t Counter(const QueryResult& analyzed, const std::string& name) {
    for (const auto& row : analyzed.rows) {
      const std::string& line = std::get<std::string>(row[0]);
      if (line.rfind(name + ": ", 0) == 0) {
        return std::stoll(line.substr(name.size() + 2));
      }
    }
    ADD_FAILURE() << "no counter " << name;
    return -1;
  }

  std::unique_ptr<SegmentStore> store_;
};

TEST_F(ExplainPlanTest, SummaryIndexLineMatchesAnalyzeCounters) {
  const std::string kSelects[] = {
      "SELECT COUNT_S(*), MIN_S(*), MAX_S(*) FROM Segment",
      "SELECT SUM_S(*), AVG_S(*) FROM Segment",
      "SELECT CUBE_SUM_HOUR(*), CUBE_COUNT_HOUR(*) FROM Segment",
      "SELECT CUBE_SUM_SECOND(*), CUBE_COUNT_SECOND(*) FROM Segment",
      "SELECT COUNT(Value), MIN(Value), MAX(Value) FROM DataPoint",
      "SELECT SUM(Value), AVG(Value) FROM DataPoint",
  };
  for (const std::string& select : kSelects) {
    for (const std::string& where : {std::string(), std::string(
                                                        " WHERE Value > 50")}) {
      const std::string sql = select + where;
      const std::string plan = Explain(sql);
      ASSERT_NE(plan.find("summary index: "), std::string::npos) << plan;
      const bool summarizes =
          plan.find("summary index: decode covered blocks") ==
          std::string::npos;
      const bool decodes_all =
          plan.find("segment summaries: not used") != std::string::npos;
      auto analyzed = engine_->Execute("EXPLAIN ANALYZE " + sql, {store_.get()});
      ASSERT_TRUE(analyzed.ok()) << sql << ": " << analyzed.status();
      const int64_t summarized = Counter(*analyzed, "blocks summarized");
      const int64_t decoded = Counter(*analyzed, "segments decoded");
      if (plan.find("time rollup: ") != std::string::npos) {
        // The data spans 400 s from time 0: every block lies inside one
        // HOUR, and every block of 4 segments straddles a SECOND.
        const bool hour = sql.find("_HOUR(") != std::string::npos;
        const std::string level = hour ? "HOUR" : "SECOND";
        EXPECT_NE(plan.find("summary index: fold per-segment summaries "
                            "(exact SUM) inside one " + level +
                            " bucket; straddling blocks deliver their "
                            "segments"),
                  std::string::npos)
            << plan;
        EXPECT_NE(plan.find("segment summaries: whole segments inside one " +
                            level + " bucket fold their summary; "
                            "straddling segments decode"),
                  std::string::npos)
            << plan;
        EXPECT_EQ(summarized > 0, hour) << sql << "\n" << plan;
        if (!hour) {
          EXPECT_GT(decoded, 0) << sql << "\n" << plan;
        } else if (where.empty()) {
          EXPECT_EQ(decoded, 0) << sql << "\n" << plan;
        }
        continue;
      }
      // Every block is fully covered (no time range), and the predicate
      // contains the high-regime blocks.
      EXPECT_EQ(summarized > 0, summarizes) << sql << "\n" << plan;
      if (decodes_all) {
        EXPECT_GT(decoded, 0) << sql << "\n" << plan;
      } else if (where.empty()) {
        EXPECT_EQ(decoded, 0) << sql << "\n" << plan;
      }
    }
  }
}

}  // namespace
}  // namespace query
}  // namespace modelardb
