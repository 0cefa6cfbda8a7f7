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

}  // namespace
}  // namespace query
}  // namespace modelardb
