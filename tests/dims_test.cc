#include "dims/dimensions.h"

#include <gtest/gtest.h>

#include <cmath>

namespace modelardb {
namespace {

// The wind-turbine Location dimension of Fig 7:
// ⊤(0) -> Country(1) -> Region(2) -> Park(3) -> Turbine(4).
TimeSeriesCatalog Fig7Catalog() {
  TimeSeriesCatalog catalog(
      {Dimension("Location", {"Country", "Region", "Park", "Turbine"})});
  // Tid=1: 9572 in Farsø; Tid=2: 9632 in Aalborg; Tid=3: 9634 in Aalborg.
  TimeSeriesMeta m1{1, 60000, 1.0, 0, "t9572.gz",
                    {{"Denmark", "Nordjylland", "Farsø", "9572"}}};
  TimeSeriesMeta m2{2, 60000, 1.0, 0, "t9632.gz",
                    {{"Denmark", "Nordjylland", "Aalborg", "9632"}}};
  TimeSeriesMeta m3{3, 60000, 1.0, 0, "t9634.gz",
                    {{"Denmark", "Nordjylland", "Aalborg", "9634"}}};
  EXPECT_TRUE(catalog.AddSeries(m1).ok());
  EXPECT_TRUE(catalog.AddSeries(m2).ok());
  EXPECT_TRUE(catalog.AddSeries(m3).ok());
  return catalog;
}

TEST(DimensionTest, HeightAndLevelNames) {
  Dimension location("Location", {"Country", "Region", "Park", "Turbine"});
  EXPECT_EQ(location.height(), 4);
  EXPECT_EQ(location.LevelName(1), "Country");
  EXPECT_EQ(location.LevelName(4), "Turbine");
  EXPECT_EQ(*location.LevelOf("Park"), 3);
  EXPECT_FALSE(location.LevelOf("Continent").ok());
}

TEST(CatalogTest, TidsMustBeDenseFromOne) {
  TimeSeriesCatalog catalog(std::vector<Dimension>{});
  TimeSeriesMeta meta{2, 1000, 1.0, 0, "a", {}};
  EXPECT_EQ(catalog.AddSeries(meta).code(), StatusCode::kInvalidArgument);
  meta.tid = 1;
  EXPECT_TRUE(catalog.AddSeries(meta).ok());
  EXPECT_TRUE(catalog.Contains(1));
  EXPECT_FALSE(catalog.Contains(2));
  EXPECT_FALSE(catalog.Contains(0));
}

TEST(CatalogTest, MemberPathMustMatchSchema) {
  TimeSeriesCatalog catalog({Dimension("Measure", {"Category", "Concrete"})});
  TimeSeriesMeta too_short{1, 1000, 1.0, 0, "a", {{"Temperature"}}};
  EXPECT_EQ(catalog.AddSeries(too_short).code(),
            StatusCode::kInvalidArgument);
  TimeSeriesMeta missing_dim{1, 1000, 1.0, 0, "a", {}};
  EXPECT_EQ(catalog.AddSeries(missing_dim).code(),
            StatusCode::kInvalidArgument);
  TimeSeriesMeta good{1, 1000, 1.0, 0, "a", {{"Temperature", "Temp3"}}};
  EXPECT_TRUE(catalog.AddSeries(good).ok());
  EXPECT_EQ(catalog.Member(1, 0, 1), "Temperature");
  EXPECT_EQ(catalog.Member(1, 0, 2), "Temp3");
}

TEST(CatalogTest, RejectsBadSiAndScaling) {
  TimeSeriesCatalog catalog(std::vector<Dimension>{});
  TimeSeriesMeta zero_si{1, 0, 1.0, 0, "a", {}};
  EXPECT_FALSE(catalog.AddSeries(zero_si).ok());
  for (double scaling : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    TimeSeriesMeta bad{1, 1000, scaling, 0, "a", {}};
    EXPECT_EQ(catalog.AddSeries(bad).code(), StatusCode::kInvalidArgument)
        << scaling;
  }
  EXPECT_EQ(catalog.NumSeries(), 0);
}

TEST(CatalogTest, LcaLevelMatchesFig7) {
  TimeSeriesCatalog catalog = Fig7Catalog();
  // Tid 2 and 3 share Aalborg at the Park level: LCA = 3 (Fig 7).
  EXPECT_EQ(catalog.LcaLevel({2, 3}, 0), 3);
  // Tid 1 and 2 only share Nordjylland: LCA = 2.
  EXPECT_EQ(catalog.LcaLevel({1, 2}, 0), 2);
  // All three share Nordjylland.
  EXPECT_EQ(catalog.LcaLevel({1, 2, 3}, 0), 2);
  // A single series' LCA is the full height.
  EXPECT_EQ(catalog.LcaLevel({2}, 0), 4);
}

TEST(CatalogTest, SeriesWithMember) {
  TimeSeriesCatalog catalog = Fig7Catalog();
  EXPECT_EQ(catalog.SeriesWithMember(0, 3, "Aalborg"),
            (std::vector<Tid>{2, 3}));
  EXPECT_EQ(catalog.SeriesWithMember(0, 1, "Denmark"),
            (std::vector<Tid>{1, 2, 3}));
  EXPECT_TRUE(catalog.SeriesWithMember(0, 3, "Copenhagen").empty());
}

TEST(CatalogTest, AllTids) {
  TimeSeriesCatalog catalog = Fig7Catalog();
  EXPECT_EQ(catalog.AllTids(), (std::vector<Tid>{1, 2, 3}));
}

}  // namespace
}  // namespace modelardb
