#include "query/similarity.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace modelardb {
namespace query {
namespace {

// A contiguous run of segments of one series (no gaps in between).
struct Run {
  std::vector<Segment> segments;      // Ordered by start_time.
  std::vector<int> columns;           // Decoder column of the series.
  int64_t total_rows = 0;
};

double Square(double x) { return x * x; }

// Distance between the closed intervals [a_lo, a_hi] and [b_lo, b_hi].
double IntervalGap(double a_lo, double a_hi, double b_lo, double b_hi) {
  if (a_hi < b_lo) return b_lo - a_hi;
  if (b_hi < a_lo) return a_lo - b_hi;
  return 0.0;
}

}  // namespace

Result<std::vector<SimilarityMatch>> SimilaritySearch::TopK(
    const Partitions& partitions, Tid tid, const std::vector<Value>& pattern,
    int k, SimilarityStats* stats) const {
  if (!catalog_->Contains(tid)) {
    return Status::InvalidArgument("unknown Tid: " + std::to_string(tid));
  }
  if (pattern.empty()) {
    return Status::InvalidArgument("pattern must not be empty");
  }
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  const double scaling = catalog_->Get(tid).scaling;
  const Gid gid = engine_->GidOf(tid);
  const TimeSeriesGroup& group = engine_->groups()[gid - 1];
  int position = 0;
  for (size_t i = 0; i < group.tids.size(); ++i) {
    if (group.tids[i] == tid) position = static_cast<int>(i);
  }

  // Collect the series' segments ordered by time.
  std::vector<Segment> segments;
  SegmentFilter filter;
  filter.gids = {gid};
  for (const SegmentStore* store : partitions) {
    MODELARDB_RETURN_NOT_OK(store->Scan(
        filter, [&](const Segment& segment) {
          if (!segment.SeriesInGap(position)) segments.push_back(segment);
          return Status::OK();
        }));
  }
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) {
              return a.start_time < b.start_time;
            });

  // Split into contiguous runs.
  std::vector<Run> runs;
  for (const Segment& segment : segments) {
    int column = 0;
    for (int p = 0; p < position; ++p) {
      if (!segment.SeriesInGap(p)) ++column;
    }
    if (runs.empty() ||
        runs.back().segments.back().end_time + segment.si !=
            segment.start_time) {
      runs.emplace_back();
    }
    runs.back().segments.push_back(segment);
    runs.back().columns.push_back(column);
    runs.back().total_rows += segment.Length();
  }

  const int64_t w = static_cast<int64_t>(pattern.size());
  double pattern_min = pattern[0];
  double pattern_max = pattern[0];
  for (Value v : pattern) {
    pattern_min = std::min(pattern_min, static_cast<double>(v));
    pattern_max = std::max(pattern_max, static_cast<double>(v));
  }

  // Top-k: max-heap of (distance, start, tid); top() is the current worst.
  using Entry = std::pair<double, SimilarityMatch>;
  auto worse = [](const Entry& a, const Entry& b) {
    return a.first < b.first;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> best(worse);
  auto threshold = [&]() {
    return static_cast<int>(best.size()) < k
               ? std::numeric_limits<double>::infinity()
               : best.top().first;
  };

  for (const Run& run : runs) {
    if (run.total_rows < w) continue;
    // Per-row squared lower bound from segment statistics (prefix-summed):
    // every point of a segment is at least IntervalGap away from every
    // pattern value.
    std::vector<double> prefix(run.total_rows + 1, 0.0);
    {
      int64_t row = 0;
      for (const Segment& segment : run.segments) {
        double gap = IntervalGap(segment.min_value / scaling,
                                 segment.max_value / scaling, pattern_min,
                                 pattern_max);
        double g2 = Square(gap);
        for (int64_t r = 0; r < segment.Length(); ++r, ++row) {
          prefix[row + 1] = prefix[row] + g2;
        }
      }
    }
    // Lazily decoded values of the run (only when a window survives the
    // statistics bound).
    std::vector<Value> values;
    auto ensure_decoded = [&]() -> Status {
      if (!values.empty()) return Status::OK();
      values.reserve(run.total_rows);
      for (size_t i = 0; i < run.segments.size(); ++i) {
        const Segment& segment = run.segments[i];
        int represented = segment.RepresentedSeries(
            static_cast<int>(group.tids.size()));
        MODELARDB_ASSIGN_OR_RETURN(
            auto decoder,
            registry_->CreateDecoder(segment.mid, segment.parameters,
                                     represented,
                                     static_cast<int>(segment.Length())));
        if (stats != nullptr) ++stats->segments_decoded;
        for (int64_t r = 0; r < segment.Length(); ++r) {
          values.push_back(decoder->ValueAt(static_cast<int>(r),
                                            run.columns[i]));
        }
      }
      return Status::OK();
    };

    const Timestamp run_start = run.segments.front().start_time;
    const SamplingInterval si = run.segments.front().si;
    for (int64_t t = 0; t + w <= run.total_rows; ++t) {
      if (stats != nullptr) ++stats->windows_considered;
      double bound = prefix[t + w] - prefix[t];
      double limit = threshold();
      if (bound >= limit * limit && limit !=
          std::numeric_limits<double>::infinity()) {
        if (stats != nullptr) ++stats->windows_pruned;
        continue;
      }
      MODELARDB_RETURN_NOT_OK(ensure_decoded());
      // Exact distance with early abandonment at the current threshold.
      double limit_sq = limit == std::numeric_limits<double>::infinity()
                            ? limit
                            : limit * limit;
      double d2 = 0.0;
      bool abandoned = false;
      for (int64_t j = 0; j < w; ++j) {
        double diff =
            static_cast<double>(values[t + j]) / scaling - pattern[j];
        d2 += diff * diff;
        if (d2 >= limit_sq) {
          abandoned = true;
          break;
        }
      }
      if (abandoned) continue;
      SimilarityMatch match;
      match.tid = tid;
      match.start_time = run_start + t * si;
      match.distance = std::sqrt(d2);
      best.emplace(match.distance, match);
      if (static_cast<int>(best.size()) > k) best.pop();
    }
  }

  std::vector<SimilarityMatch> out;
  while (!best.empty()) {
    out.push_back(best.top().second);
    best.pop();
  }
  std::sort(out.begin(), out.end(),
            [](const SimilarityMatch& a, const SimilarityMatch& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.start_time != b.start_time) {
                return a.start_time < b.start_time;
              }
              return a.tid < b.tid;
            });
  return out;
}

Result<std::vector<SimilarityMatch>> SimilaritySearch::TopKAll(
    const Partitions& partitions, const std::vector<Value>& pattern, int k,
    SimilarityStats* stats) const {
  std::vector<SimilarityMatch> all;
  for (Tid tid = 1; tid <= catalog_->NumSeries(); ++tid) {
    MODELARDB_ASSIGN_OR_RETURN(std::vector<SimilarityMatch> matches,
                               TopK(partitions, tid, pattern, k, stats));
    all.insert(all.end(), matches.begin(), matches.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SimilarityMatch& a, const SimilarityMatch& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.start_time < b.start_time;
            });
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

}  // namespace query
}  // namespace modelardb
