#include "query/engine.h"

#include <algorithm>
#include <iterator>

#include "obs/event_ring.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "query/parser.h"
#include "util/logging.h"
#include "util/strings.h"

namespace modelardb {
namespace query {
namespace {

// Row-index range of `segment` intersected with the query's time range.
// Returns false when the intersection is empty.
bool RowRange(const Segment& segment, const SegmentFilter& filter,
              int64_t* from_row, int64_t* to_row) {
  Timestamp eff_min = std::max(filter.min_time, segment.start_time);
  Timestamp eff_max = std::min(filter.max_time, segment.end_time);
  if (eff_min > eff_max) return false;
  *from_row = (eff_min - segment.start_time + segment.si - 1) / segment.si;
  *to_row = (eff_max - segment.start_time) / segment.si;
  return *from_row <= *to_row;
}

void UpdateState(AggState* state, const AggregateSummary& summary,
                 double scaling) {
  state->count += summary.count;
  state->sum += summary.sum / scaling;
  state->min = std::min(state->min, summary.min / scaling);
  state->max = std::max(state->max, summary.max / scaling);
}

void UpdateState(AggState* state, double value) {
  ++state->count;
  state->sum += value;
  state->min = std::min(state->min, value);
  state->max = std::max(state->max, value);
}

Cell FinalizeAggregate(AggregateFunction fn, const AggState& state) {
  switch (fn) {
    case AggregateFunction::kCount:
      return state.count;
    case AggregateFunction::kSum:
      return state.sum;
    case AggregateFunction::kAvg:
      return state.count == 0 ? 0.0 : state.sum / state.count;
    case AggregateFunction::kMin:
      return state.count == 0 ? 0.0 : state.min;
    case AggregateFunction::kMax:
      return state.count == 0 ? 0.0 : state.max;
  }
  return 0.0;
}

// How a segment's value statistics relate to a compiled value predicate
// for a series with a given scaling constant.
enum class StatsRelation { kDisjoint, kContained, kOverlapping };

StatsRelation RelateStats(const CompiledQuery& compiled,
                          const Segment& segment, double scaling) {
  if (!compiled.has_value_predicate) return StatsRelation::kContained;
  // Statistics are in stored units; predicates are in raw units (§6.1).
  double lo = segment.min_value / scaling;
  double hi = segment.max_value / scaling;
  if (hi < compiled.min_value || lo > compiled.max_value) {
    return StatsRelation::kDisjoint;
  }
  if (lo >= compiled.min_value && hi <= compiled.max_value) {
    return StatsRelation::kContained;
  }
  return StatsRelation::kOverlapping;
}

// True when some selected aggregate reads the sum lane (SUM/AVG). Those
// need the exact per-segment reduction tree; COUNT/MIN/MAX are order-free
// and can consume whole-block pre-folded aggregates bit-identically.
bool NeedsExactSumFold(const Query& ast) {
  for (const SelectItem& item : ast.select) {
    if ((item.kind == SelectItem::Kind::kAggregate ||
         item.kind == SelectItem::Kind::kCubeAggregate) &&
        (item.aggregate == AggregateFunction::kSum ||
         item.aggregate == AggregateFunction::kAvg)) {
      return true;
    }
  }
  return false;
}

// The Gids a query runs over in one partition, ascending: every group in
// the store, or those of the push-down Gids (ascending too) it stores.
std::vector<Gid> MorselGids(const CompiledQuery& compiled,
                            const SegmentStore& store) {
  std::vector<Gid> stored = store.Gids();
  if (compiled.filter.gids.empty()) return stored;
  // A named Gid another partition owns would cost an empty morsel, span,
  // estimate and snapshot here.
  std::vector<Gid> gids;
  std::set_intersection(compiled.filter.gids.begin(),
                        compiled.filter.gids.end(), stored.begin(),
                        stored.end(), std::back_inserter(gids));
  return gids;
}

void ApplyLimit(const std::optional<int64_t>& limit, QueryResult* result) {
  if (limit.has_value() &&
      static_cast<int64_t>(result->rows.size()) > *limit) {
    result->rows.resize(*limit);
  }
}

// SELECT * FROM METRICS(): one row per counter/gauge, two per histogram
// (<name>_count and <name>_sum), over a consistent registry snapshot.
QueryResult MetricsTable(const std::optional<int64_t>& limit) {
  QueryResult result;
  result.columns = {"name", "label", "type", "value"};
  for (const obs::MetricSample& sample :
       obs::MetricsRegistry::Global().Snapshot()) {
    switch (sample.kind) {
      case obs::MetricKind::kCounter:
        result.rows.push_back({Cell(sample.name), Cell(sample.label),
                               Cell(std::string("counter")),
                               Cell(sample.counter_value)});
        break;
      case obs::MetricKind::kGauge:
        result.rows.push_back({Cell(sample.name), Cell(sample.label),
                               Cell(std::string("gauge")),
                               Cell(sample.gauge_value)});
        break;
      case obs::MetricKind::kHistogram:
        result.rows.push_back({Cell(sample.name + "_count"),
                               Cell(sample.label),
                               Cell(std::string("histogram")),
                               Cell(sample.histogram.count)});
        result.rows.push_back({Cell(sample.name + "_sum"),
                               Cell(sample.label),
                               Cell(std::string("histogram")),
                               Cell(sample.histogram.sum_seconds)});
        break;
    }
  }
  ApplyLimit(limit, &result);
  return result;
}

// SELECT * FROM TRACES(): one row per span of the retained query traces,
// newest trace first, spans in creation order.
QueryResult TracesTable(const std::optional<int64_t>& limit) {
  QueryResult result;
  result.columns = {"trace", "query",    "span",   "parent",
                    "name",  "start_ms", "wall_ms", "cpu_ms"};
  for (const obs::TraceRecord& trace : obs::Tracer::Global().Recent()) {
    for (const obs::SpanRecord& span : trace.spans) {
      result.rows.push_back(
          {Cell(trace.trace_id), Cell(trace.label),
           Cell(static_cast<int64_t>(span.id)),
           Cell(static_cast<int64_t>(span.parent)), Cell(span.name),
           Cell(static_cast<double>(span.start_ns) * 1e-6),
           Cell(static_cast<double>(span.wall_ns) * 1e-6),
           Cell(static_cast<double>(span.cpu_ns) * 1e-6)});
    }
  }
  ApplyLimit(limit, &result);
  return result;
}

// SELECT * FROM HEALTH(): one field/value row per verdict component, from
// a fresh watchdog check (works whether or not the background thread runs).
QueryResult HealthTable(const std::optional<int64_t>& limit) {
  obs::HealthReport report = obs::Watchdog::Global().Check();
  QueryResult result;
  result.columns = {"field", "value"};
  result.rows.push_back({Cell(std::string("status")),
                         Cell(std::string(obs::HealthStatusName(
                             report.status)))});
  for (const std::string& reason : report.reasons) {
    result.rows.push_back({Cell(std::string("reason")), Cell(reason)});
  }
  result.rows.push_back(
      {Cell(std::string("inflight_ops")), Cell(report.inflight_ops)});
  result.rows.push_back(
      {Cell(std::string("queue_depth")), Cell(report.queue_depth)});
  result.rows.push_back({Cell(std::string("checks")), Cell(report.checks)});
  if (report.last_checkpoint_ns >= 0) {
    result.rows.push_back(
        {Cell(std::string("last_checkpoint_ms")),
         Cell(static_cast<double>(report.last_checkpoint_ns) * 1e-6)});
  }
  if (report.last_wal_sync_ns >= 0) {
    result.rows.push_back(
        {Cell(std::string("last_wal_sync_ms")),
         Cell(static_cast<double>(report.last_wal_sync_ns) * 1e-6)});
  }
  ApplyLimit(limit, &result);
  return result;
}

}  // namespace

// Logs queries slower than the threshold with their resource breakdown and
// records them in the flight recorder.
void MaybeLogSlowQuery(int64_t latency_ns, const ScanStats& scan,
                       int64_t rows) {
  const int64_t threshold_ns = obs::SlowQueryThresholdNs();
  if (threshold_ns < 0 || latency_ns < threshold_ns) return;
  static obs::Counter& slow = obs::MetricsRegistry::Global().GetCounter(
      obs::kQuerySlowTotal);
  slow.Add();
  obs::EventRing::Global().Record(obs::EventKind::kSlowQuery, latency_ns,
                                  rows, "query");
  MODELARDB_LOG(kWarn) << "slow query: " << (latency_ns / 1000000) << " ms, rows=" << rows
                       << ", segments scanned=" << scan.segments_scanned
                       << ", segments decoded=" << scan.segments_decoded
                       << ", bytes decoded=" << scan.bytes_decoded
                       << ", cold pins=" << scan.cold_pins
                       << ", hot pins=" << scan.hot_pins
                       << ", morsel cpu=" << (scan.cpu_ns / 1000000)
                       << " ms, queue wait=" << (scan.queue_wait_ns / 1000000)
                       << " ms";
}


void Fold::Merge(Fold&& other) {
  if (groups.empty()) {
    // The other's states move whole: the same result as emplacing them
    // key by key.
    groups = std::move(other.groups);
  } else {
    for (auto& [key, states] : other.groups) {
      auto it = groups.lower_bound(key);
      if (it == groups.end() || groups.key_comp()(key, it->first)) {
        groups.emplace_hint(it, key, std::move(states));
      } else {
        for (size_t i = 0; i < states.size(); ++i) {
          it->second[i].Merge(states[i]);
        }
      }
    }
  }
  if (rows.empty()) {
    rows = std::move(other.rows);
  } else {
    rows.insert(rows.end(), std::make_move_iterator(other.rows.begin()),
                std::make_move_iterator(other.rows.end()));
  }
}

std::vector<std::string> ScanStatsLines(const ScanStats& stats) {
  return {
      "blocks skipped: " + std::to_string(stats.blocks_skipped),
      "blocks summarized: " + std::to_string(stats.blocks_summarized),
      "blocks scanned: " + std::to_string(stats.blocks_scanned),
      "segments scanned: " + std::to_string(stats.segments_scanned),
      "segments decoded: " + std::to_string(stats.segments_decoded),
      "bytes decoded: " + std::to_string(stats.bytes_decoded),
      "cold pins: " + std::to_string(stats.cold_pins),
      "hot pins: " + std::to_string(stats.hot_pins),
      "morsel cpu ms: " + std::to_string(stats.cpu_ns / 1000000),
      "queue wait ms: " + std::to_string(stats.queue_wait_ns / 1000000),
  };
}

QueryEngine::QueryEngine(const TimeSeriesCatalog* catalog,
                         std::vector<TimeSeriesGroup> groups,
                         const ModelRegistry* registry)
    : catalog_(catalog), groups_(std::move(groups)), registry_(registry) {
  gid_of_.assign(catalog_->NumSeries(), 0);
  for (const TimeSeriesGroup& group : groups_) {
    for (Tid tid : group.tids) gid_of_[tid - 1] = group.gid;
  }
}

Result<std::pair<int, int>> QueryEngine::ResolveDimensionColumn(
    const std::string& name) const {
  // Qualified forms: "Dimension.Level" or "Dimension_Level".
  for (char sep : {'.', '_'}) {
    size_t pos = name.find(sep);
    if (pos != std::string::npos) {
      std::string dim_name = name.substr(0, pos);
      std::string level_name = name.substr(pos + 1);
      Result<int> dim = catalog_->DimensionIndex(dim_name);
      if (dim.ok()) {
        MODELARDB_ASSIGN_OR_RETURN(
            int level, catalog_->dimensions()[*dim].LevelOf(level_name));
        return std::make_pair(*dim, level);
      }
    }
  }
  // Unqualified level name; must be unique across dimensions.
  std::optional<std::pair<int, int>> found;
  for (size_t d = 0; d < catalog_->dimensions().size(); ++d) {
    Result<int> level = catalog_->dimensions()[d].LevelOf(name);
    if (level.ok()) {
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous dimension column: " + name);
      }
      found = std::make_pair(static_cast<int>(d), *level);
    }
  }
  if (!found.has_value()) {
    return Status::NotFound("unknown column: " + name);
  }
  return *found;
}

Result<CompiledQuery> QueryEngine::Compile(const Query& ast) const {
  if (ast.view == View::kMetrics || ast.view == View::kTraces ||
      ast.view == View::kHealth) {
    // Introspection views never touch the scan pipeline; Execute answers
    // them directly from the obs subsystem.
    return Status::InvalidArgument(
        "METRICS()/TRACES()/HEALTH() cannot be compiled for distributed "
        "execution");
  }
  CompiledQuery compiled;
  compiled.ast = ast;

  // Conjunction of predicates over series: intersect Tid sets with the
  // Tid sets of member predicates (rewriting of §6.2).
  bool restricted = false;
  std::set<Tid> selected;
  auto intersect = [&](const std::vector<Tid>& tids) {
    std::set<Tid> incoming(tids.begin(), tids.end());
    if (!restricted) {
      selected = std::move(incoming);
      restricted = true;
    } else {
      std::set<Tid> merged;
      std::set_intersection(selected.begin(), selected.end(),
                            incoming.begin(), incoming.end(),
                            std::inserter(merged, merged.begin()));
      selected = std::move(merged);
    }
  };

  for (const Predicate& pred : ast.where) {
    switch (pred.kind) {
      case Predicate::Kind::kTidEquals:
      case Predicate::Kind::kTidIn: {
        for (Tid tid : pred.tids) {
          if (!catalog_->Contains(tid)) {
            return Status::InvalidArgument("unknown Tid: " +
                                           std::to_string(tid));
          }
        }
        intersect(pred.tids);
        break;
      }
      case Predicate::Kind::kTimeRange: {
        compiled.filter.min_time =
            std::max(compiled.filter.min_time, pred.min_time);
        compiled.filter.max_time =
            std::min(compiled.filter.max_time, pred.max_time);
        break;
      }
      case Predicate::Kind::kMemberEquals: {
        MODELARDB_ASSIGN_OR_RETURN(auto resolved,
                                   ResolveDimensionColumn(pred.column));
        intersect(catalog_->SeriesWithMember(resolved.first, resolved.second,
                                             pred.member));
        break;
      }
      case Predicate::Kind::kValueRange: {
        compiled.min_value = std::max(compiled.min_value, pred.min_value);
        compiled.max_value = std::min(compiled.max_value, pred.max_value);
        compiled.has_value_predicate = true;
        break;
      }
    }
  }
  if (restricted) {
    compiled.selected_tids = std::move(selected);
    // Rewrite to Gids for push-down (Figure 11: Tids -> Gid IN (...)).
    std::set<Gid> gids;
    for (Tid tid : compiled.selected_tids) gids.insert(GidOf(tid));
    compiled.filter.gids.assign(gids.begin(), gids.end());
  }

  for (const std::string& column : ast.group_by) {
    KeyPart part;
    if (EqualsIgnoreCase(column, "Tid")) {
      part.kind = KeyPart::Kind::kTid;
      part.display = "Tid";
    } else {
      MODELARDB_ASSIGN_OR_RETURN(auto resolved,
                                 ResolveDimensionColumn(column));
      part.kind = KeyPart::Kind::kMember;
      part.dim_index = resolved.first;
      part.level = resolved.second;
      part.display = column;
    }
    compiled.key_parts.push_back(std::move(part));
  }

  for (const SelectItem& item : ast.select) {
    if (item.kind == SelectItem::Kind::kCubeAggregate) {
      if (compiled.cube_level.has_value() &&
          *compiled.cube_level != item.cube_level) {
        return Status::InvalidArgument(
            "all CUBE_ aggregates in a query must use one time level");
      }
      compiled.cube_level = item.cube_level;
    }
    if (item.kind == SelectItem::Kind::kColumn &&
        !EqualsIgnoreCase(item.column, "Tid") &&
        !EqualsIgnoreCase(item.column, "TS") &&
        !EqualsIgnoreCase(item.column, "Value") &&
        !EqualsIgnoreCase(item.column, "StartTime") &&
        !EqualsIgnoreCase(item.column, "EndTime") &&
        !EqualsIgnoreCase(item.column, "SI") &&
        !EqualsIgnoreCase(item.column, "Mid")) {
      MODELARDB_RETURN_NOT_OK(ResolveDimensionColumn(item.column).status());
    }
  }
  return compiled;
}

std::vector<QueryEngine::SelectedSeries> QueryEngine::SelectSeries(
    const CompiledQuery& compiled, const Segment& segment) const {
  std::vector<SelectedSeries> out;
  const TimeSeriesGroup& group = groups_[segment.gid - 1];
  int column = 0;
  for (size_t pos = 0; pos < group.tids.size(); ++pos) {
    if (segment.SeriesInGap(static_cast<int>(pos))) continue;
    Tid tid = group.tids[pos];
    if (compiled.selected_tids.empty() ||
        compiled.selected_tids.count(tid) > 0) {
      out.push_back(SelectedSeries{tid, column, catalog_->Get(tid).scaling});
    }
    ++column;
  }
  return out;
}

std::vector<Cell> QueryEngine::KeyFor(const CompiledQuery& compiled,
                                      Tid tid) const {
  std::vector<Cell> key;
  key.reserve(compiled.key_parts.size());
  for (const KeyPart& part : compiled.key_parts) {
    if (part.kind == KeyPart::Kind::kTid) {
      key.emplace_back(static_cast<int64_t>(tid));
    } else {
      key.emplace_back(catalog_->Member(tid, part.dim_index, part.level));
    }
  }
  return key;
}

Result<BlockAction> QueryEngine::ConsumeCoveredBlock(
    const CompiledQuery& compiled, const BlockView& view, size_t num_aggs,
    bool needs_sum, Fold* fold) const {
  const SealedBlock& block = *view.block;
  const TimeSeriesGroup& group = groups_[view.gid - 1];
  const size_t group_size = group.tids.size();
  if (block.counts.size() != group_size) return BlockAction::kFallback;

  // Resolve the selected group positions once per block, applying the
  // value zone map. The zone map bounds every segment's statistics, so a
  // contained/disjoint decision here implies the same RelateStats verdict
  // for each segment the exhaustive path would have reached.
  struct Sel {
    int pos;
    Tid tid;
    double scaling;
  };
  std::vector<Sel> selected;
  selected.reserve(group_size);
  for (size_t pos = 0; pos < group_size; ++pos) {
    // A position no segment of the block represents contributes nothing;
    // dropping it here also keeps its group-by key uncreated, exactly as
    // the exhaustive path leaves it.
    if (block.counts[pos] == 0) continue;
    Tid tid = group.tids[pos];
    if (!compiled.selected_tids.empty() &&
        compiled.selected_tids.count(tid) == 0) {
      continue;
    }
    double scaling = catalog_->Get(tid).scaling;
    if (compiled.has_value_predicate) {
      // Division by a non-positive scaling flips/degenerates the bounds;
      // let the per-segment path reason about it.
      if (!(scaling > 0.0)) return BlockAction::kFallback;
      double lo = block.min_value / scaling;
      double hi = block.max_value / scaling;
      if (hi < compiled.min_value || lo > compiled.max_value) {
        continue;  // Every segment is kDisjoint for this series.
      }
      if (!(lo >= compiled.min_value && hi <= compiled.max_value)) {
        return BlockAction::kFallback;  // Straddles: decide per segment.
      }
    }
    selected.push_back(Sel{static_cast<int>(pos), tid, scaling});
  }
  if (selected.empty()) return BlockAction::kSkipped;

  if (!needs_sum) {
    // COUNT/MIN/MAX only: the block's pre-folded aggregates are order-free
    // exact folds, so consuming them matches the per-segment fold bit for
    // bit. (The sum lane is also folded in but never finalized.)
    for (const Sel& s : selected) {
      AggregateSummary summary;
      summary.sum = block.sums[s.pos];
      summary.min = block.mins[s.pos];
      summary.max = block.maxs[s.pos];
      summary.count = block.counts[s.pos];
      auto& states = fold->groups[KeyFor(compiled, s.tid)];
      if (states.empty()) states.resize(num_aggs);
      for (auto& state : states) UpdateState(&state, summary, s.scaling);
    }
    return BlockAction::kSummarized;
  }

  // SUM/AVG selected: fold the per-segment materialized summaries in
  // segment order — exactly the values and order the decoding path
  // produces, preserving the floating-point reduction tree. The group-by
  // states are resolved once per block (std::map references are stable),
  // not once per segment; the segment-major, position-minor fold order is
  // unchanged, which matters when several positions share one key.
  std::vector<std::vector<AggState>*> states_of(selected.size());
  for (size_t k = 0; k < selected.size(); ++k) {
    auto& states = fold->groups[KeyFor(compiled, selected[k].tid)];
    if (states.empty()) states.resize(num_aggs);
    states_of[k] = &states;
  }
  auto fold_segment = [&](const Segment& segment,
                          const SegmentSummary* summary) {
    if (segment.gap_mask == 0) {
      // Gap-free segment (the common case): decoder columns equal group
      // positions, no matching scan needed.
      for (size_t k = 0; k < selected.size(); ++k) {
        const Sel& s = selected[k];
        AggregateSummary agg;
        agg.sum = summary->sum(s.pos);
        agg.min = summary->min(s.pos);
        agg.max = summary->max(s.pos);
        agg.count = segment.Length();
        for (auto& state : *states_of[k]) UpdateState(&state, agg, s.scaling);
      }
      return Status::OK();
    }
    int column = 0;
    size_t next = 0;
    for (size_t pos = 0; pos < group_size && next < selected.size(); ++pos) {
      if (segment.SeriesInGap(static_cast<int>(pos))) continue;
      int col = column++;
      while (next < selected.size() &&
             selected[next].pos < static_cast<int>(pos)) {
        ++next;
      }
      if (next >= selected.size() ||
          selected[next].pos != static_cast<int>(pos)) {
        continue;
      }
      const Sel& s = selected[next];
      AggregateSummary agg;
      agg.sum = summary->sum(col);
      agg.min = summary->min(col);
      agg.max = summary->max(col);
      agg.count = segment.Length();
      for (auto& state : *states_of[next]) UpdateState(&state, agg, s.scaling);
    }
    return Status::OK();
  };
  MODELARDB_RETURN_NOT_OK(view.ForEachSegment(fold_segment));
  return BlockAction::kSummarized;
}

Status QueryEngine::SegmentViewFold(const CompiledQuery& compiled,
                                    const SegmentStore& store,
                                    const SegmentFilter& filter, Fold* fold,
                                    ScanStats* stats) const {
  const bool has_agg = compiled.ast.HasAggregates();
  size_t num_aggs = 0;
  for (const SelectItem& item : compiled.ast.select) {
    if (item.kind != SelectItem::Kind::kColumn &&
        item.kind != SelectItem::Kind::kStar) {
      ++num_aggs;
    }
  }
  const bool needs_sum = NeedsExactSumFold(compiled.ast);

  IndexedScanCallbacks callbacks;
  if (has_agg && !compiled.cube_level.has_value()) {
    // Rollups bucket by calendar interval inside segments, so they always
    // decode; plain aggregates answer covered blocks from summaries.
    callbacks.on_covered_block = [&](const BlockView& view) {
      return ConsumeCoveredBlock(compiled, view, num_aggs, needs_sum, fold);
    };
  }
  callbacks.on_segment = [&](const Segment& segment,
                             const SegmentSummary* seg_summary) -> Status {
        std::vector<SelectedSeries> series = SelectSeries(compiled, segment);
        if (series.empty()) return Status::OK();
        if (!has_agg) {
          // Segment metadata rows (one per selected series).
          for (const SelectedSeries& s : series) {
            std::vector<Cell> row;
            for (const SelectItem& item : compiled.ast.select) {
              if (item.kind == SelectItem::Kind::kStar) {
                row.emplace_back(static_cast<int64_t>(s.tid));
                row.emplace_back(segment.start_time);
                row.emplace_back(segment.end_time);
                row.emplace_back(static_cast<int64_t>(segment.si));
                row.emplace_back(static_cast<int64_t>(segment.mid));
              } else if (EqualsIgnoreCase(item.column, "Tid")) {
                row.emplace_back(static_cast<int64_t>(s.tid));
              } else if (EqualsIgnoreCase(item.column, "StartTime")) {
                row.emplace_back(segment.start_time);
              } else if (EqualsIgnoreCase(item.column, "EndTime")) {
                row.emplace_back(segment.end_time);
              } else if (EqualsIgnoreCase(item.column, "SI")) {
                row.emplace_back(static_cast<int64_t>(segment.si));
              } else if (EqualsIgnoreCase(item.column, "Mid")) {
                row.emplace_back(static_cast<int64_t>(segment.mid));
              } else {
                auto resolved = ResolveDimensionColumn(item.column);
                if (!resolved.ok()) return resolved.status();
                row.emplace_back(catalog_->Member(s.tid, resolved->first,
                                                  resolved->second));
              }
            }
            fold->rows.push_back(std::move(row));
          }
          return Status::OK();
        }

        int64_t from_row, to_row;
        if (!RowRange(segment, compiled.filter, &from_row, &to_row)) {
          return Status::OK();
        }
        const bool full_range =
            from_row == 0 &&
            to_row == static_cast<int64_t>(segment.Length()) - 1;
        // Decoders are created lazily: fully covered segments with
        // materialized summaries never need one.
        std::unique_ptr<SegmentDecoder> decoder;
        auto ensure_decoder = [&]() -> Status {
          if (decoder != nullptr) return Status::OK();
          int represented = segment.RepresentedSeries(
              static_cast<int>(groups_[segment.gid - 1].tids.size()));
          auto decoder_result = registry_->CreateDecoder(
              segment.mid, segment.parameters, represented,
              static_cast<int>(segment.Length()));
          if (!decoder_result.ok()) return decoder_result.status();
          decoder = std::move(*decoder_result);
          ++stats->segments_decoded;
          stats->bytes_decoded +=
              static_cast<int64_t>(segment.StorageBytes());
          return Status::OK();
        };

        for (const SelectedSeries& s : series) {
          StatsRelation relation = RelateStats(compiled, segment, s.scaling);
          if (relation == StatsRelation::kDisjoint) continue;  // Pruned.
          std::vector<Cell> base_key = KeyFor(compiled, s.tid);
          if (relation == StatsRelation::kOverlapping) {
            // The segment straddles the value range: reconstruct and
            // filter point-wise (the statistics only prune whole
            // segments).
            MODELARDB_RETURN_NOT_OK(ensure_decoder());
            for (int64_t row = from_row; row <= to_row; ++row) {
              double value =
                  static_cast<double>(
                      decoder->ValueAt(static_cast<int>(row), s.column)) /
                  s.scaling;
              if (value < compiled.min_value || value > compiled.max_value) {
                continue;
              }
              std::vector<Cell> key = base_key;
              if (compiled.cube_level.has_value()) {
                Timestamp ts = segment.start_time + row * segment.si;
                key.emplace_back(TimeBucket(ts, *compiled.cube_level));
              }
              auto& states = fold->groups[key];
              if (states.empty()) states.resize(num_aggs);
              for (auto& state : states) UpdateState(&state, value);
            }
            continue;
          }
          if (!compiled.cube_level.has_value()) {
            AggregateSummary summary;
            if (full_range && seg_summary != nullptr && seg_summary->valid()) {
              // Materialized full-range aggregates: bit-identical to the
              // AggregateRange call below by construction.
              summary.count = segment.Length();
              summary.sum = seg_summary->sum(s.column);
              summary.min = seg_summary->min(s.column);
              summary.max = seg_summary->max(s.column);
            } else {
              MODELARDB_RETURN_NOT_OK(ensure_decoder());
              summary = decoder->AggregateRange(static_cast<int>(from_row),
                                                static_cast<int>(to_row),
                                                s.column);
            }
            auto& states = fold->groups[base_key];
            if (states.empty()) states.resize(num_aggs);
            for (auto& state : states) UpdateState(&state, summary, s.scaling);
          } else {
            // Algorithm 6: per calendar interval of the requested level.
            MODELARDB_RETURN_NOT_OK(ensure_decoder());
            TimeLevel level = *compiled.cube_level;
            int64_t row = from_row;
            while (row <= to_row) {
              Timestamp ts0 = segment.start_time + row * segment.si;
              Timestamp boundary = CeilToLevel(ts0, level);
              Timestamp last_ts = std::min(
                  segment.start_time + to_row * segment.si, boundary - 1);
              int64_t row2 = (last_ts - segment.start_time) / segment.si;
              AggregateSummary summary = decoder->AggregateRange(
                  static_cast<int>(row), static_cast<int>(row2), s.column);
              std::vector<Cell> key = base_key;
              key.emplace_back(TimeBucket(ts0, level));
              auto& states = fold->groups[key];
              if (states.empty()) states.resize(num_aggs);
              for (auto& state : states) {
                UpdateState(&state, summary, s.scaling);
              }
              row = row2 + 1;
            }
          }
        }
        return Status::OK();
  };
  return store.ScanIndexed(filter, callbacks, stats);
}

Status QueryEngine::DataPointViewFold(const CompiledQuery& compiled,
                                      const SegmentStore& store,
                                      const SegmentFilter& filter,
                                      Fold* fold, ScanStats* stats) const {
  const bool has_agg = compiled.ast.HasAggregates();
  size_t num_aggs = 0;
  for (const SelectItem& item : compiled.ast.select) {
    if (item.kind == SelectItem::Kind::kAggregate) ++num_aggs;
  }
  const bool needs_sum = NeedsExactSumFold(compiled.ast);

  IndexedScanCallbacks callbacks;
  if (has_agg && !needs_sum) {
    // The Data Point View folds per point, so SUM/AVG depend on the
    // per-point summation order and always decode; COUNT/MIN/MAX folds
    // are order-free and match the summaries bit for bit.
    callbacks.on_covered_block = [&](const BlockView& view) {
      return ConsumeCoveredBlock(compiled, view, num_aggs,
                                 /*needs_sum=*/false, fold);
    };
  }
  callbacks.on_segment = [&](const Segment& segment,
                             const SegmentSummary* seg_summary) -> Status {
        std::vector<SelectedSeries> series = SelectSeries(compiled, segment);
        if (series.empty()) return Status::OK();
        int64_t from_row, to_row;
        if (!RowRange(segment, compiled.filter, &from_row, &to_row)) {
          return Status::OK();
        }
        const bool full_range =
            from_row == 0 &&
            to_row == static_cast<int64_t>(segment.Length()) - 1;
        std::unique_ptr<SegmentDecoder> decoder;
        auto ensure_decoder = [&]() -> Status {
          if (decoder != nullptr) return Status::OK();
          int represented = segment.RepresentedSeries(
              static_cast<int>(groups_[segment.gid - 1].tids.size()));
          auto decoder_result = registry_->CreateDecoder(
              segment.mid, segment.parameters, represented,
              static_cast<int>(segment.Length()));
          if (!decoder_result.ok()) return decoder_result.status();
          decoder = std::move(*decoder_result);
          ++stats->segments_decoded;
          stats->bytes_decoded +=
              static_cast<int64_t>(segment.StorageBytes());
          return Status::OK();
        };

        for (const SelectedSeries& s : series) {
          StatsRelation relation = RelateStats(compiled, segment, s.scaling);
          if (relation == StatsRelation::kDisjoint) continue;  // Pruned.
          bool must_filter = relation == StatsRelation::kOverlapping;
          std::vector<Cell> base_key;
          if (has_agg) base_key = KeyFor(compiled, s.tid);
          if (has_agg && !needs_sum && !must_filter && full_range &&
              seg_summary != nullptr && seg_summary->valid()) {
            // COUNT/MIN/MAX over the whole segment: the materialized
            // aggregates fold to the same states as the per-point loop
            // (min/max are order-free; division by a positive scaling is
            // monotone, so min/max commute with it bitwise).
            AggregateSummary summary;
            summary.count = segment.Length();
            summary.sum = seg_summary->sum(s.column);
            summary.min = seg_summary->min(s.column);
            summary.max = seg_summary->max(s.column);
            auto& states = fold->groups[base_key];
            if (states.empty()) states.resize(num_aggs);
            for (auto& state : states) UpdateState(&state, summary, s.scaling);
            continue;
          }
          MODELARDB_RETURN_NOT_OK(ensure_decoder());
          if (has_agg && !must_filter) {
            // No value predicate to apply per point: fold the contiguous
            // decoded span through the dispatched SIMD kernels. The
            // canonical reduction tree makes the result byte-identical
            // to the scalar tier at any parallelism (DESIGN.md §3f);
            // scaling divides per element inside the fold, matching the
            // per-point loop below.
            AggregateSummary folded = decoder->AggregateRangeScaled(
                static_cast<int>(from_row), static_cast<int>(to_row),
                s.column, s.scaling);
            auto& states = fold->groups[base_key];
            if (states.empty()) states.resize(num_aggs);
            for (auto& state : states) {
              UpdateState(&state, folded, /*scaling=*/1.0);
            }
            continue;
          }
          for (int64_t row = from_row; row <= to_row; ++row) {
            Timestamp ts = segment.start_time + row * segment.si;
            double value =
                static_cast<double>(decoder->ValueAt(static_cast<int>(row),
                                                     s.column)) /
                s.scaling;
            if (must_filter &&
                (value < compiled.min_value || value > compiled.max_value)) {
              continue;
            }
            if (has_agg) {
              auto& states = fold->groups[base_key];
              if (states.empty()) states.resize(num_aggs);
              for (auto& state : states) UpdateState(&state, value);
            } else {
              std::vector<Cell> out_row;
              for (const SelectItem& item : compiled.ast.select) {
                if (item.kind == SelectItem::Kind::kStar) {
                  out_row.emplace_back(static_cast<int64_t>(s.tid));
                  out_row.emplace_back(ts);
                  out_row.emplace_back(value);
                } else if (EqualsIgnoreCase(item.column, "Tid")) {
                  out_row.emplace_back(static_cast<int64_t>(s.tid));
                } else if (EqualsIgnoreCase(item.column, "TS")) {
                  out_row.emplace_back(ts);
                } else if (EqualsIgnoreCase(item.column, "Value")) {
                  out_row.emplace_back(value);
                } else {
                  auto resolved = ResolveDimensionColumn(item.column);
                  if (!resolved.ok()) return resolved.status();
                  out_row.emplace_back(catalog_->Member(
                      s.tid, resolved->first, resolved->second));
                }
              }
              fold->rows.push_back(std::move(out_row));
            }
          }
        }
        return Status::OK();
  };
  return store.ScanIndexed(filter, callbacks, stats);
}

Result<PartialResult> QueryEngine::ExecutePartial(
    const CompiledQuery& compiled, const SegmentStore& store,
    ThreadPool* pool, obs::Trace* trace, int32_t parent_span) const {
  // One morsel per Gid, returned in ascending Gid.
  const std::vector<Gid> gids = MorselGids(compiled, store);
  const size_t n = gids.size();
  // Submit heavy morsels first: weight each Gid by the summary index's
  // surviving-segment estimate (fence-based, O(blocks)).
  std::vector<std::pair<int64_t, size_t>> submit_order;
  submit_order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    submit_order.emplace_back(
        store.EstimateSurvivingSegments(gids[i], compiled.filter), i);
  }
  std::stable_sort(submit_order.begin(), submit_order.end(),
                   [](const std::pair<int64_t, size_t>& a,
                      const std::pair<int64_t, size_t>& b) {
                     return a.first > b.first;
                   });
  // Lock-free by design (outside the thread-safety analyzer's view): every
  // task owns slot i of `partial.morsels`/`stats`/`statuses` exclusively,
  // and TaskGroup::Wait() is the release/acquire barrier that publishes
  // the slots to this thread — the same disjoint-slot pattern as Execute
  // and ingest::RunPipeline.
  PartialResult partial;
  partial.morsels.resize(n);
  std::vector<ScanStats> stats(n);
  std::vector<Status> statuses(n);
  obs::ScopedSpan fan_out(trace, "morsel fan-out", parent_span);
  TaskGroup group(pool);
  for (const auto& [weight, i] : submit_order) {
    // Per-query resource accounting: submit-to-start wait and thread CPU
    // time of each morsel land in its ScanStats.
    const int64_t submit_ns = obs::MonotonicNanos();
    group.Submit([this, &compiled, &store, &gids, &partial, &stats,
                  &statuses, trace, fan_out_id = fan_out.id(), submit_ns,
                  i = i] {
      const int64_t start_ns = obs::MonotonicNanos();
      const int64_t cpu_begin_ns = obs::ThreadCpuNanos();
      obs::ScopedSpan span(trace, "morsel gid=" + std::to_string(gids[i]),
                           fan_out_id);
      // A morsel is the query's filter restricted to one Gid. It folds
      // into task-local state, published to its slot once at the end:
      // adjacent slots share cache lines across threads.
      SegmentFilter filter = compiled.filter;
      filter.gids = {gids[i]};
      Fold fold;
      ScanStats morsel_stats;
      statuses[i] = compiled.ast.view == View::kSegment
                        ? SegmentViewFold(compiled, store, filter, &fold,
                                          &morsel_stats)
                        : DataPointViewFold(compiled, store, filter, &fold,
                                            &morsel_stats);
      morsel_stats.queue_wait_ns = start_ns - submit_ns;
      morsel_stats.cpu_ns = obs::ThreadCpuNanos() - cpu_begin_ns;
      partial.morsels[i] = {gids[i], std::move(fold)};
      stats[i] = morsel_stats;
    });
  }
  group.Wait();
  fan_out.End();
  for (size_t i = 0; i < n; ++i) {
    MODELARDB_RETURN_NOT_OK(statuses[i]);
    partial.scan.Merge(stats[i]);
  }
  return partial;
}

Result<QueryResult> QueryEngine::MergeFinalize(
    const CompiledQuery& compiled, std::vector<PartialResult> partials) const {
  // The one reduction tree: every morsel fold, ascending Gid across all
  // partials. Each partial is already ascending, so a stable sort of their
  // concatenation breaks ties by partial order.
  std::vector<std::pair<Gid, Fold>*> morsels;
  ScanStats scan;
  for (PartialResult& partial : partials) {
    scan.Merge(partial.scan);
    for (auto& morsel : partial.morsels) morsels.push_back(&morsel);
  }
  std::stable_sort(morsels.begin(), morsels.end(),
                   [](const std::pair<Gid, Fold>* a,
                      const std::pair<Gid, Fold>* b) {
                     return a->first < b->first;
                   });
  Fold merged;
  for (auto* morsel : morsels) merged.Merge(std::move(morsel->second));
  if (scan.segments_decoded != 0) {
    static obs::Counter& decoded = obs::MetricsRegistry::Global().GetCounter(
        obs::kQuerySegmentsDecodedTotal);
    decoded.Add(scan.segments_decoded);
  }

  QueryResult result;
  const bool has_agg = compiled.ast.HasAggregates();
  if (has_agg) {
    for (const KeyPart& part : compiled.key_parts) {
      result.columns.push_back(part.display);
    }
    if (compiled.cube_level.has_value()) {
      result.columns.push_back(TimeLevelName(*compiled.cube_level));
    }
    std::vector<AggregateFunction> functions;
    for (const SelectItem& item : compiled.ast.select) {
      if (item.kind == SelectItem::Kind::kAggregate ||
          item.kind == SelectItem::Kind::kCubeAggregate) {
        result.columns.push_back(item.display);
        functions.push_back(item.aggregate);
      }
    }
    // Global aggregates over an empty selection still yield one row.
    if (merged.groups.empty() && compiled.key_parts.empty() &&
        !compiled.cube_level.has_value()) {
      merged.groups.emplace(std::vector<Cell>{},
                            std::vector<AggState>(functions.size()));
    }
    for (const auto& [key, states] : merged.groups) {
      std::vector<Cell> row = key;
      for (size_t i = 0; i < functions.size(); ++i) {
        row.push_back(FinalizeAggregate(functions[i], states[i]));
      }
      result.rows.push_back(std::move(row));
    }
  } else {
    for (const SelectItem& item : compiled.ast.select) {
      if (item.kind == SelectItem::Kind::kStar) {
        if (compiled.ast.view == View::kSegment) {
          result.columns.insert(result.columns.end(),
                                {"Tid", "StartTime", "EndTime", "SI", "Mid"});
        } else {
          result.columns.insert(result.columns.end(), {"Tid", "TS", "Value"});
        }
      } else {
        result.columns.push_back(item.display);
      }
    }
    result.rows = std::move(merged.rows);
    std::sort(result.rows.begin(), result.rows.end(),
              [](const std::vector<Cell>& a, const std::vector<Cell>& b) {
                return a < b;
              });
  }

  if (compiled.ast.order_by.has_value()) {
    const OrderBy& order = *compiled.ast.order_by;
    int index = -1;
    for (size_t c = 0; c < result.columns.size(); ++c) {
      if (EqualsIgnoreCase(result.columns[c], order.column)) {
        index = static_cast<int>(c);
        break;
      }
    }
    if (index < 0) {
      return Status::InvalidArgument("ORDER BY column not in result: " +
                                     order.column);
    }
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const std::vector<Cell>& a,
                         const std::vector<Cell>& b) {
                       return order.descending ? CellLess(b[index], a[index])
                                               : CellLess(a[index], b[index]);
                     });
  }
  if (compiled.ast.limit.has_value() &&
      static_cast<int64_t>(result.rows.size()) > *compiled.ast.limit) {
    result.rows.resize(*compiled.ast.limit);
  }
  return result;
}

Result<std::string> QueryEngine::Explain(const Query& ast) const {
  Query stripped = ast;
  stripped.explain = false;
  stripped.analyze = false;
  MODELARDB_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(stripped));
  std::string out;
  out += std::string("view: ") +
         (ast.view == View::kSegment ? "Segment" : "DataPoint") + "\n";
  out += "push-down gids: ";
  if (compiled.filter.gids.empty()) {
    out += "all";
  } else {
    for (size_t i = 0; i < compiled.filter.gids.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(compiled.filter.gids[i]);
    }
  }
  out += "\n";
  if (compiled.filter.min_time != std::numeric_limits<Timestamp>::min() ||
      compiled.filter.max_time != std::numeric_limits<Timestamp>::max()) {
    out += "push-down time: [" + std::to_string(compiled.filter.min_time) +
           ", " + std::to_string(compiled.filter.max_time) + "]\n";
  }
  if (!compiled.selected_tids.empty()) {
    out += "series filter: ";
    bool first = true;
    for (Tid tid : compiled.selected_tids) {
      out += (first ? "" : ", ") + std::to_string(tid);
      first = false;
    }
    out += "\n";
  }
  if (compiled.has_value_predicate) {
    out += "value range (segment statistics pruning): [" +
           std::to_string(compiled.min_value) + ", " +
           std::to_string(compiled.max_value) + "]\n";
  }
  if (!compiled.key_parts.empty()) {
    out += "group by:";
    for (const KeyPart& part : compiled.key_parts) {
      out += " " + part.display;
    }
    out += "\n";
  }
  if (compiled.cube_level.has_value()) {
    out += std::string("time rollup: per ") +
           TimeLevelName(*compiled.cube_level) + " (Algorithm 6)\n";
  }
  if (ast.HasAggregates()) {
    out += "summary index: ";
    if (compiled.cube_level.has_value()) {
      out += "rollup decodes per interval\n";
    } else if (NeedsExactSumFold(stripped)) {
      out += "fold per-segment summaries (exact SUM)\n";
    } else {
      out += "consume block aggregates\n";
    }
  }
  out += ast.HasAggregates()
             ? "execution: iterate aggregates on models (Algorithm 5)\n"
             : "execution: reconstruct matching rows\n";
  return out;
}

Result<QueryResult> QueryEngine::Execute(const Query& ast,
                                         const Partitions& partitions,
                                         ThreadPool* pool,
                                         obs::Trace* trace) const {
  // Introspection views are answered straight from the obs subsystem.
  if (ast.view == View::kMetrics) return MetricsTable(ast.limit);
  if (ast.view == View::kTraces) return TracesTable(ast.limit);
  if (ast.view == View::kHealth) return HealthTable(ast.limit);
  QueryResult plan;
  if (ast.explain) {
    MODELARDB_ASSIGN_OR_RETURN(std::string text, Explain(ast));
    plan.columns = {"plan"};
    for (const std::string& line : SplitString(text, '\n')) {
      if (!line.empty()) plan.rows.push_back({line});
    }
  }
  Query stripped = ast;
  stripped.explain = false;
  stripped.analyze = false;
  if (ast.explain && !ast.analyze) {
    // Plain EXPLAIN must stay cheap on large stores: report the block
    // fences' surviving-segment upper bound instead of executing.
    MODELARDB_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(stripped));
    int64_t estimate = 0;
    for (const SegmentStore* store : partitions) {
      for (Gid gid : MorselGids(compiled, *store)) {
        estimate += store->EstimateSurvivingSegments(gid, compiled.filter);
      }
    }
    plan.rows.push_back(
        {"estimated surviving segments: " + std::to_string(estimate)});
    plan.rows.push_back(
        {"hint: EXPLAIN ANALYZE runs the scan and reports exact pruning "
         "counters"});
    return plan;
  }
  // EXPLAIN ANALYZE runs the query's own fan-out below under a forced
  // trace, so its counters and span tree describe the real execution.
  std::unique_ptr<obs::Trace> forced_trace;
  if (ast.analyze && trace == nullptr) {
    forced_trace = obs::Tracer::Global().StartForcedTrace("EXPLAIN ANALYZE");
    trace = forced_trace.get();
  }
  const bool timed = obs::Enabled();
  const int64_t start_ns = timed ? obs::MonotonicNanos() : 0;
  obs::ScopedSpan plan_span(trace, "plan");
  MODELARDB_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(stripped));
  plan_span.End();
  // One task per partition on the pool; each fans its per-Gid morsels out
  // onto the same pool (TaskGroup::Wait helps run them, so the nesting
  // cannot deadlock). Lock-free by design: task i exclusively owns
  // partials[i]/statuses[i], and TaskGroup::Wait() is the barrier that
  // publishes the slots back to this thread.
  std::vector<PartialResult> partials(partitions.size());
  std::vector<Status> statuses(partitions.size());
  obs::ScopedSpan scan_span(trace, "scan");
  TaskGroup group(pool);
  for (size_t i = 0; i < partitions.size(); ++i) {
    group.Submit([this, &compiled, &partitions, &partials, &statuses, pool,
                  trace, scan_id = scan_span.id(), i] {
      obs::ScopedSpan worker_span(trace, "worker " + std::to_string(i),
                                  scan_id);
      auto result = ExecutePartial(compiled, *partitions[i], pool, trace,
                                   worker_span.id());
      if (result.ok()) {
        partials[i] = std::move(*result);
      } else {
        statuses[i] = result.status();
      }
    });
  }
  group.Wait();
  scan_span.End();
  ScanStats scan;
  for (size_t i = 0; i < partitions.size(); ++i) {
    MODELARDB_RETURN_NOT_OK(statuses[i]);
    scan.Merge(partials[i].scan);
  }
  obs::ScopedSpan merge_span(trace, "merge");
  Result<QueryResult> result = MergeFinalize(compiled, std::move(partials));
  merge_span.End();

  if (ast.analyze) {
    MODELARDB_RETURN_NOT_OK(result.status());
    for (const std::string& line : ScanStatsLines(scan)) {
      plan.rows.push_back({line});
    }
    if (trace != nullptr) {  // Null only while obs is disabled.
      plan.rows.push_back({Cell(std::string("span tree"))});
      std::string rendered = obs::RenderSpanTree(trace->Spans(), "  ");
      for (const std::string& line : SplitString(rendered, '\n')) {
        if (!line.empty()) plan.rows.push_back({Cell(line)});
      }
    }
    obs::Tracer::Global().Finish(std::move(forced_trace));
    return plan;
  }
  static obs::Counter& queries = obs::MetricsRegistry::Global().GetCounter(
      obs::kQueryQueriesTotal);
  static obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram(obs::kQuerySeconds);
  queries.Add();
  if (timed) {
    const int64_t latency_ns = obs::MonotonicNanos() - start_ns;
    latency.Observe(static_cast<double>(latency_ns) * 1e-9);
    if (result.ok()) {
      MaybeLogSlowQuery(latency_ns, scan,
                        static_cast<int64_t>(result->rows.size()));
    }
  }
  return result;
}

Result<QueryResult> QueryEngine::Execute(const std::string& sql,
                                         const Partitions& partitions,
                                         ThreadPool* pool) const {
  std::unique_ptr<obs::Trace> trace = obs::Tracer::Global().StartTrace(sql);
  obs::ScopedSpan parse_span(trace.get(), "parse");
  MODELARDB_ASSIGN_OR_RETURN(Query ast, ParseQuery(sql));
  parse_span.End();
  Result<QueryResult> result = Execute(ast, partitions, pool, trace.get());
  obs::Tracer::Global().Finish(std::move(trace));
  return result;
}

}  // namespace query
}  // namespace modelardb
