// Segment summary index: whole-range and selective aggregates on a large
// segment population, indexed (block size 256) vs exhaustive decoding (a
// store without a decoder registry, so no segment has a summary and every
// surviving segment is decoded). The acceptance target is a >= 5x speedup
// for a whole-range SELECT SUM_S(*) over >= 100k segments with
// byte-identical results; the property test (query_summary_index_test)
// proves identity across block sizes and placements, this bench re-checks
// it on the bench data set.

#include <cstring>

#include "bench/harness.h"
#include "query/engine.h"

namespace {

using namespace modelardb;

constexpr int kGroups = 24;
constexpr int kSeriesPerGroup = 2;
constexpr int kSegmentsPerGroup = 5000;  // 120k segments total.
constexpr SamplingInterval kSi = 100;
constexpr int kRowsPerSegment = 10;

Segment MakeSegment(Gid gid, int j) {
  Segment s;
  s.gid = gid;
  s.start_time = static_cast<Timestamp>(j) * kRowsPerSegment * kSi;
  s.end_time = s.start_time + (kRowsPerSegment - 1) * kSi;
  s.si = kSi;
  s.mid = kMidPmcMean;
  float value = 0.5f * static_cast<float>(j % 1000) +
                static_cast<float>(gid);
  s.parameters.resize(sizeof(float));
  std::memcpy(s.parameters.data(), &value, sizeof(float));
  s.min_value = value;
  s.max_value = value;
  return s;
}

bool SameRows(const query::QueryResult& a, const query::QueryResult& b) {
  return a.columns == b.columns && a.rows == b.rows;
}

}  // namespace

int main() {
  bench::PrintHeader("Summary index", "whole-range + selective aggregates");
  bench::JsonReport json("summary_index");

  TimeSeriesCatalog catalog(std::vector<Dimension>{});
  std::vector<TimeSeriesGroup> groups;
  Tid next_tid = 1;
  for (int g = 1; g <= kGroups; ++g) {
    TimeSeriesGroup group;
    group.gid = g;
    group.si = kSi;
    for (int s = 0; s < kSeriesPerGroup; ++s) {
      TimeSeriesMeta meta;
      meta.tid = next_tid;
      meta.si = kSi;
      meta.scaling = (next_tid % 4 == 0) ? 2.0 : 1.0;
      meta.source = "s" + std::to_string(next_tid);
      meta.gid = g;
      bench::CheckOk(catalog.AddSeries(meta), "catalog");
      group.tids.push_back(next_tid++);
    }
    groups.push_back(std::move(group));
  }
  ModelRegistry registry = ModelRegistry::Default();

  std::vector<Segment> segments;
  segments.reserve(static_cast<size_t>(kGroups) * kSegmentsPerGroup);
  for (int g = 1; g <= kGroups; ++g) {
    for (int j = 0; j < kSegmentsPerGroup; ++j) {
      segments.push_back(MakeSegment(g, j));
    }
  }
  std::printf("%zu segments, %d groups\n\n", segments.size(), kGroups);
  json.Add("segments", static_cast<int64_t>(segments.size()));

  auto open_store = [&](const ModelRegistry* summaries_from) {
    SegmentStoreOptions options;
    options.registry = summaries_from;
    for (const auto& group : groups) {
      options.group_sizes[group.gid] =
          static_cast<int>(group.tids.size());
    }
    auto store = bench::CheckOk(SegmentStore::Open(options), "store");
    bench::CheckOk(store->PutBatch(segments), "put");
    return store;
  };
  auto indexed = open_store(&registry);
  auto exhaustive = open_store(nullptr);

  query::QueryEngine engine(&catalog, groups, &registry);

  const Timestamp max_time =
      static_cast<Timestamp>(kSegmentsPerGroup) * kRowsPerSegment * kSi - 1;
  struct Workload {
    const char* name;
    std::string sql;
    int repeats;
  };
  const std::vector<Workload> workloads = {
      {"whole-range SUM",
       "SELECT SUM_S(*), COUNT_S(*), MIN_S(*), MAX_S(*) FROM Segment", 5},
      {"whole-range COUNT by Tid",
       "SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid ORDER BY Tid", 5},
      {"10% range SUM",
       "SELECT SUM_S(*), COUNT_S(*) FROM Segment WHERE TS <= " +
           std::to_string(max_time / 10),
       10},
      {"1% range SUM",
       "SELECT SUM_S(*), COUNT_S(*) FROM Segment WHERE TS <= " +
           std::to_string(max_time / 100),
       20},
  };

  std::printf("%-26s %12s %12s %9s\n", "workload", "indexed s",
              "exhaustive s", "speedup");
  double whole_range_speedup = 0.0;
  bool identical = true;
  for (const Workload& w : workloads) {
    auto run = [&](const SegmentStore* store, double* seconds) {
      query::QueryResult result;
      Stopwatch stopwatch;
      for (int r = 0; r < w.repeats; ++r) {
        result = bench::CheckOk(engine.Execute(w.sql, {store}), w.name);
      }
      *seconds = stopwatch.ElapsedSeconds() / w.repeats;
      return result;
    };
    double indexed_s = 0, exhaustive_s = 0;
    query::QueryResult from_index = run(indexed.get(), &indexed_s);
    query::QueryResult from_decode = run(exhaustive.get(), &exhaustive_s);
    if (!SameRows(from_index, from_decode)) {
      identical = false;
      std::printf("MISMATCH on %s\n", w.name);
    }
    double speedup = indexed_s > 0 ? exhaustive_s / indexed_s : 0.0;
    if (w.name == workloads[0].name) whole_range_speedup = speedup;
    std::printf("%-26s %12.5f %12.5f %8.1fx\n", w.name, indexed_s,
                exhaustive_s, speedup);
    std::string key = w.name;
    for (char& c : key) {
      if (c == ' ' || c == '%') c = '_';
    }
    json.Add(key + "_indexed_seconds", indexed_s);
    json.Add(key + "_exhaustive_seconds", exhaustive_s);
    json.Add(key + "_speedup", speedup);
  }
  json.Add("whole_range_speedup", whole_range_speedup);
  json.Add("results_identical", identical ? int64_t{1} : int64_t{0});

  bench::PrintNote(identical
                       ? "indexed and exhaustive results byte-identical"
                       : "RESULT MISMATCH — summary index is broken");
  if (!identical) return 1;
  if (whole_range_speedup < 5.0) {
    bench::PrintNote("WARNING: whole-range speedup below 5x target");
  }
  return 0;
}
