// Sensor outages: gaps and dynamic group splitting (paper §3.2, §4.2).
//
// Real deployments see sensors drop out (gaps) and turbines get curtailed
// or damaged so their series temporarily decorrelate from their group.
// This example drives both paths: a group of four turbines where one stops
// reporting (gap) and another is turned off (values drop to ~0, triggering
// a dynamic split; when it restarts, the groups are joined again). It then
// shows that queries see exactly the data that existed, with gaps skipped.

#include <cstdio>

#include "cluster/cluster.h"
#include "core/group_coordinator.h"
#include "query/engine.h"
#include "util/random.h"

using namespace modelardb;  // Example code only.

int main() {
  TimeSeriesCatalog catalog(std::vector<Dimension>{
      Dimension("Location", {"Park", "Turbine"})});
  for (Tid tid = 1; tid <= 4; ++tid) {
    TimeSeriesMeta meta;
    meta.tid = tid;
    meta.si = 1000;
    meta.source = "t" + std::to_string(tid);
    meta.members = {{"Aalborg", "T" + std::to_string(tid)}};
    catalog.AddSeries(meta).ok();
  }
  std::vector<TimeSeriesGroup> groups = {{1, {1, 2, 3, 4}, 1000}};
  for (Tid tid = 1; tid <= 4; ++tid) catalog.GetMutable(tid)->gid = 1;

  ModelRegistry registry = ModelRegistry::Default();
  GroupCoordinatorConfig config;
  config.generator.gid = 1;
  config.generator.si = 1000;
  config.generator.num_series = 4;
  config.generator.error_bound = ErrorBound::Relative(5.0);
  config.generator.registry = &registry;
  GroupCoordinator coordinator(config, {1, 2, 3, 4});

  auto store = SegmentStore::Open(SegmentStoreOptions{});
  Random rng(11);
  int64_t expected_points = 0;
  std::vector<Segment> segments;
  for (int i = 0; i < 6000; ++i) {
    GroupRow row;
    row.timestamp = static_cast<Timestamp>(i) * 1000;
    for (Tid tid = 1; tid <= 4; ++tid) {
      // Turbine 3's sensor is offline between instants 1000 and 1500.
      bool present = !(tid == 3 && i >= 1000 && i < 1500);
      // Turbine 4 is turned off between instants 2000 and 4000: its power
      // collapses to ~0 while the others keep producing ~100.
      double base =
          (tid == 4 && i >= 2000 && i < 4000) ? 0.5 : 100.0;
      row.present.push_back(present);
      row.values.push_back(
          static_cast<Value>(base + rng.Uniform(-0.8, 0.8)));
      if (present) ++expected_points;
    }
    if (Status s = coordinator.Ingest(row, &segments); !s.ok()) {
      std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  coordinator.Flush(&segments).ok();
  (*store)->PutBatch(segments).ok();

  const CoordinatorStats& cs = coordinator.coordinator_stats();
  std::printf("Dynamic grouping: %lld split(s), %lld join(s), "
              "%d subgroup(s) at end of stream\n",
              static_cast<long long>(cs.splits),
              static_cast<long long>(cs.joins), coordinator.NumSubgroups());

  query::QueryEngine engine(&catalog, groups, &registry);
  // A single node is a one-partition cluster.
  const query::Partitions partitions = {(*store).get()};

  auto counts = engine.Execute(
      "SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid", partitions);
  std::printf("\nData points per turbine (turbine 3 is 500 short — its "
              "outage is a gap, not fabricated data):\n%s",
              counts->ToString().c_str());

  int64_t total = 0;
  auto total_result =
      engine.Execute("SELECT COUNT_S(*) FROM Segment", partitions);
  total = std::get<int64_t>(total_result->rows[0][0]);
  std::printf("Total stored points: %lld (ingested: %lld)\n",
              static_cast<long long>(total),
              static_cast<long long>(expected_points));
  if (total != expected_points) {
    std::fprintf(stderr, "coverage mismatch!\n");
    return 1;
  }

  // The outage window of turbine 4, hour by hour.
  auto profile = engine.Execute(
      "SELECT CUBE_AVG_HOUR(*) FROM Segment WHERE Tid = 4 LIMIT 3",
      partitions);
  std::printf("\nTurbine 4, average power per hour (the curtailment is "
              "visible in the second hour):\n%s",
              profile->ToString().c_str());
  return 0;
}
