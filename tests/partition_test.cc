#include "partition/partitioner.h"

#include <gtest/gtest.h>

#include <string>

#include "partition/correlation.h"

namespace modelardb {
namespace {

// Wind-turbine catalog: 2 dimensions, 6 series across 2 parks x 3 measures.
TimeSeriesCatalog WindCatalog() {
  TimeSeriesCatalog catalog(
      {Dimension("Location", {"Country", "Park", "Entity"}),
       Dimension("Measure", {"Category", "Concrete"})});
  struct Row {
    const char* source;
    const char* park;
    const char* entity;
    const char* category;
    const char* concrete;
  };
  std::vector<Row> rows = {
      {"aal1_temp.gz", "Aalborg", "T1", "Temperature", "NacelleTemp"},
      {"aal2_temp.gz", "Aalborg", "T2", "Temperature", "NacelleTemp"},
      {"aal1_power.gz", "Aalborg", "T1", "Production", "ActivePower"},
      {"far1_temp.gz", "Farsoe", "T3", "Temperature", "NacelleTemp"},
      {"far1_power.gz", "Farsoe", "T3", "Production", "ActivePower"},
      {"far2_power.gz", "Farsoe", "T4", "Production", "ActivePower"},
  };
  Tid tid = 1;
  for (const Row& row : rows) {
    TimeSeriesMeta meta;
    meta.tid = tid++;
    meta.si = 60000;
    meta.source = row.source;
    meta.members = {{"Denmark", row.park, row.entity},
                    {row.category, row.concrete}};
    EXPECT_TRUE(catalog.AddSeries(meta).ok());
  }
  return catalog;
}

std::vector<std::vector<Tid>> GroupTids(
    const std::vector<TimeSeriesGroup>& groups) {
  std::vector<std::vector<Tid>> out;
  for (const auto& g : groups) out.push_back(g.tids);
  return out;
}

TEST(PartitionerTest, NoHintsYieldsSingletons) {
  TimeSeriesCatalog catalog = WindCatalog();
  auto groups =
      *Partitioner::Partition(&catalog, PartitionHints::DisableGrouping());
  ASSERT_EQ(groups.size(), 6u);
  for (size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].gid, static_cast<Gid>(i + 1));
    EXPECT_EQ(groups[i].tids.size(), 1u);
    EXPECT_EQ(catalog.Get(groups[i].tids[0]).gid, groups[i].gid);
  }
}

TEST(PartitionerTest, MemberTripleGroupsSharedMember) {
  TimeSeriesCatalog catalog = WindCatalog();
  auto hints = *PartitionHints::Parse(
      "modelardb.correlation = Measure 1 Temperature\n");
  auto groups = *Partitioner::Partition(&catalog, hints);
  // Temperature series {1,2,4} merge; the rest stay singletons.
  EXPECT_EQ(GroupTids(groups),
            (std::vector<std::vector<Tid>>{{1, 2, 4}, {3}, {5}, {6}}));
}

TEST(PartitionerTest, AndWithinClause) {
  TimeSeriesCatalog catalog = WindCatalog();
  // Same park AND temperature: only the two Aalborg temperature series.
  auto hints = *PartitionHints::Parse(
      "modelardb.correlation = Location 2, Measure 1 Temperature\n");
  auto groups = *Partitioner::Partition(&catalog, hints);
  EXPECT_EQ(GroupTids(groups),
            (std::vector<std::vector<Tid>>{{1, 2}, {3}, {4}, {5}, {6}}));
}

TEST(PartitionerTest, OrAcrossClauses) {
  TimeSeriesCatalog catalog = WindCatalog();
  auto hints = *PartitionHints::Parse(
      "modelardb.correlation = Measure 2 NacelleTemp\n"
      "modelardb.correlation = Measure 2 ActivePower\n");
  auto groups = *Partitioner::Partition(&catalog, hints);
  EXPECT_EQ(GroupTids(groups),
            (std::vector<std::vector<Tid>>{{1, 2, 4}, {3, 5, 6}}));
}

TEST(PartitionerTest, ExplicitSeriesPrimitive) {
  TimeSeriesCatalog catalog = WindCatalog();
  auto hints = *PartitionHints::Parse(
      "modelardb.correlation = series aal1_temp.gz aal2_temp.gz\n");
  auto groups = *Partitioner::Partition(&catalog, hints);
  EXPECT_EQ(GroupTids(groups),
            (std::vector<std::vector<Tid>>{{1, 2}, {3}, {4}, {5}, {6}}));
}

TEST(PartitionerTest, LcaZeroRequiresAllLevels) {
  TimeSeriesCatalog catalog = WindCatalog();
  // Location 0: every level incl. Entity must match -> only series from the
  // same turbine merge (T1: tids 1,3; T3: tids 4,5).
  auto hints = *PartitionHints::Parse("modelardb.correlation = Location 0\n");
  auto groups = *Partitioner::Partition(&catalog, hints);
  EXPECT_EQ(GroupTids(groups),
            (std::vector<std::vector<Tid>>{{1, 3}, {2}, {4, 5}, {6}}));
}

TEST(PartitionerTest, NegativeLcaIgnoresLowestLevels) {
  TimeSeriesCatalog catalog = WindCatalog();
  // Location -1: all but the lowest level (Entity) must match -> same park.
  auto hints = *PartitionHints::Parse("modelardb.correlation = Location -1\n");
  auto groups = *Partitioner::Partition(&catalog, hints);
  EXPECT_EQ(GroupTids(groups),
            (std::vector<std::vector<Tid>>{{1, 2, 3}, {4, 5, 6}}));
}

TEST(PartitionerTest, DistanceZeroRequiresIdenticalMembers) {
  TimeSeriesCatalog catalog = WindCatalog();
  auto groups =
      *Partitioner::Partition(&catalog, PartitionHints::Distance(0.0));
  EXPECT_EQ(groups.size(), 6u);
}

TEST(PartitionerTest, DistanceOneGroupsEverything) {
  TimeSeriesCatalog catalog = WindCatalog();
  auto groups =
      *Partitioner::Partition(&catalog, PartitionHints::Distance(1.0));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].tids.size(), 6u);
}

TEST(PartitionerTest, GroupDistanceMatchesPaperExample) {
  // Fig 7 example: LCA(Tid2, Tid3) = Park (level 3), height 4:
  // distance = 1.0 * (4-3)/4 = 0.25.
  TimeSeriesCatalog catalog(
      {Dimension("Location", {"Country", "Region", "Park", "Turbine"})});
  TimeSeriesMeta m1{1, 60000, 1.0, 0, "a",
                    {{"Denmark", "Nordjylland", "Aalborg", "9632"}}};
  TimeSeriesMeta m2{2, 60000, 1.0, 0, "b",
                    {{"Denmark", "Nordjylland", "Aalborg", "9634"}}};
  ASSERT_TRUE(catalog.AddSeries(m1).ok());
  ASSERT_TRUE(catalog.AddSeries(m2).ok());
  EXPECT_DOUBLE_EQ(Partitioner::GroupDistance(catalog, {1}, {2}, {}), 0.25);
}

TEST(PartitionerTest, WeightsScaleDistanceAndClampToOne) {
  TimeSeriesCatalog catalog = WindCatalog();
  // Weight 10 on Location saturates mismatching location distances to 1.
  std::map<std::string, double> weights = {{"Location", 10.0}};
  double d = Partitioner::GroupDistance(catalog, {1}, {6}, weights);
  EXPECT_DOUBLE_EQ(d, 1.0);
}

TEST(PartitionerTest, DifferentSamplingIntervalsNeverMerge) {
  TimeSeriesCatalog catalog({Dimension("Measure", {"Category"})});
  TimeSeriesMeta a{1, 1000, 1.0, 0, "a", {{"Temp"}}};
  TimeSeriesMeta b{2, 2000, 1.0, 0, "b", {{"Temp"}}};
  ASSERT_TRUE(catalog.AddSeries(a).ok());
  ASSERT_TRUE(catalog.AddSeries(b).ok());
  auto hints = *PartitionHints::Parse(
      "modelardb.correlation = Measure 1 Temp\n");
  auto groups = *Partitioner::Partition(&catalog, hints);
  EXPECT_EQ(groups.size(), 2u);  // Definition 8 forbids merging.
}

TEST(PartitionerTest, ScalingRulesApplied) {
  TimeSeriesCatalog catalog = WindCatalog();
  auto hints = *PartitionHints::Parse(
      "modelardb.scaling = Measure 1 Production 4.75\n"
      "modelardb.scaling.series = aal1_temp.gz 2.0\n");
  ASSERT_TRUE(Partitioner::Partition(&catalog, hints).ok());
  EXPECT_DOUBLE_EQ(catalog.Get(3).scaling, 4.75);
  EXPECT_DOUBLE_EQ(catalog.Get(5).scaling, 4.75);
  EXPECT_DOUBLE_EQ(catalog.Get(6).scaling, 4.75);
  EXPECT_DOUBLE_EQ(catalog.Get(1).scaling, 2.0);
  EXPECT_DOUBLE_EQ(catalog.Get(2).scaling, 1.0);
}

TEST(PartitionerTest, NonPositiveOrNanScalingRulesRejected) {
  for (const char* factor : {"0", "-1", "nan"}) {
    TimeSeriesCatalog catalog = WindCatalog();
    auto hints = PartitionHints::Parse(
        std::string("modelardb.scaling = Measure 1 Production 4.75\n"
                    "modelardb.scaling.series = aal1_temp.gz ") +
        factor + "\n");
    ASSERT_TRUE(hints.ok()) << factor;
    auto groups = Partitioner::Partition(&catalog, *hints);
    EXPECT_EQ(groups.status().code(), StatusCode::kInvalidArgument) << factor;
    // No rule is applied when one is rejected.
    EXPECT_DOUBLE_EQ(catalog.Get(3).scaling, 1.0) << factor;
  }
}

TEST(PartitionerTest, GroupsLargerThan64AreSplit) {
  TimeSeriesCatalog catalog({Dimension("Measure", {"Category"})});
  for (Tid tid = 1; tid <= 100; ++tid) {
    TimeSeriesMeta meta{tid, 1000, 1.0, 0, "s" + std::to_string(tid),
                        {{"Temp"}}};
    ASSERT_TRUE(catalog.AddSeries(meta).ok());
  }
  auto hints =
      *PartitionHints::Parse("modelardb.correlation = Measure 1 Temp\n");
  auto groups = *Partitioner::Partition(&catalog, hints);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].tids.size(), 64u);
  EXPECT_EQ(groups[1].tids.size(), 36u);
}

TEST(CorrelationParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(PartitionHints::Parse("nonsense\n").ok());
  EXPECT_FALSE(PartitionHints::Parse("modelardb.correlation = \n").ok());
  EXPECT_FALSE(
      PartitionHints::Parse("modelardb.correlation = distance 1.5\n").ok());
  EXPECT_FALSE(
      PartitionHints::Parse("modelardb.correlation = a b c d e\n").ok());
  EXPECT_FALSE(PartitionHints::Parse("modelardb.unknown = 1\n").ok());
  EXPECT_FALSE(PartitionHints::Parse("modelardb.scaling = Measure 1 X\n").ok());
}

TEST(CorrelationParseTest, CommentsAndBlankLinesIgnored) {
  auto hints = *PartitionHints::Parse(
      "# correlation setup for EP\n"
      "\n"
      "modelardb.correlation = Production 0, Measure 1 ProductionMWh\n");
  ASSERT_EQ(hints.clauses.size(), 1u);
  EXPECT_EQ(hints.clauses[0].lca_requirements.size(), 1u);
  EXPECT_EQ(hints.clauses[0].members.size(), 1u);
}

TEST(CorrelationParseTest, WeightAndDistanceInOneClause) {
  auto hints = *PartitionHints::Parse(
      "modelardb.correlation = distance 0.25, weight Production 2.0\n");
  ASSERT_EQ(hints.clauses.size(), 1u);
  EXPECT_DOUBLE_EQ(*hints.clauses[0].distance_threshold, 0.25);
  EXPECT_DOUBLE_EQ(hints.clauses[0].weights.at("Production"), 2.0);
}

TEST(LowestDistanceTest, RuleOfThumb) {
  // EH: Location height 3, Measure height 2 -> (1/3)/2 = 0.1666...
  EXPECT_NEAR(LowestDistance({3, 2}), 0.16666667, 1e-6);
  // EP: both heights 2 -> (1/2)/2 = 0.25.
  EXPECT_DOUBLE_EQ(LowestDistance({2, 2}), 0.25);
  EXPECT_DOUBLE_EQ(LowestDistance({}), 0.0);
}

}  // namespace
}  // namespace modelardb
