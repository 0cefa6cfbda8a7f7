#include "partition/partitioner.h"

#include <algorithm>

namespace modelardb {
namespace {

// Union of two ascending Tid vectors.
std::vector<Tid> Union(const std::vector<Tid>& a, const std::vector<Tid>& b) {
  std::vector<Tid> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

bool SameSamplingInterval(const TimeSeriesCatalog& catalog,
                          const std::vector<Tid>& group1,
                          const std::vector<Tid>& group2) {
  return catalog.Get(group1.front()).si == catalog.Get(group2.front()).si;
}

}  // namespace

double Partitioner::GroupDistance(const TimeSeriesCatalog& catalog,
                                  const std::vector<Tid>& group1,
                                  const std::vector<Tid>& group2,
                                  const std::map<std::string, double>& weights) {
  const std::vector<Dimension>& dimensions = catalog.dimensions();
  if (dimensions.empty()) return 0.0;
  std::vector<Tid> all = Union(group1, group2);
  double sum_distance = 0.0;
  for (size_t d = 0; d < dimensions.size(); ++d) {
    int ancestor = catalog.LcaLevel(all, static_cast<int>(d));
    int height = dimensions[d].height();
    auto it = weights.find(dimensions[d].name());
    double weight = it == weights.end() ? 1.0 : it->second;
    double distance =
        height == 0 ? 0.0
                    : static_cast<double>(height - ancestor) / height;
    sum_distance += weight * distance;
  }
  double normalized = sum_distance / static_cast<double>(dimensions.size());
  // User-defined weights can push the sum above 1 (§4.1).
  return std::min(normalized, 1.0);
}

Result<bool> Partitioner::ClauseHolds(const TimeSeriesCatalog& catalog,
                                      const CorrelationClause& clause,
                                      const std::vector<Tid>& group1,
                                      const std::vector<Tid>& group2) {
  std::vector<Tid> all = Union(group1, group2);

  if (!clause.sources.empty()) {
    for (Tid tid : all) {
      if (clause.sources.count(catalog.Get(tid).source) == 0) return false;
    }
  }

  for (const MemberTriple& triple : clause.members) {
    MODELARDB_ASSIGN_OR_RETURN(int dim_index,
                               catalog.DimensionIndex(triple.dimension));
    const Dimension& dimension = catalog.dimensions()[dim_index];
    if (triple.level < 1 || triple.level > dimension.height()) {
      return Status::InvalidArgument("level out of range for dimension " +
                                     triple.dimension);
    }
    for (Tid tid : all) {
      if (catalog.Member(tid, dim_index, triple.level) != triple.member) {
        return false;
      }
    }
  }

  for (const LcaRequirement& requirement : clause.lca_requirements) {
    MODELARDB_ASSIGN_OR_RETURN(int dim_index,
                               catalog.DimensionIndex(requirement.dimension));
    int height = catalog.dimensions()[dim_index].height();
    // 0 means all levels must match; -k means all but the lowest k (§4.1).
    int required = requirement.level > 0 ? requirement.level
                                         : height + requirement.level;
    if (required < 0 || required > height) {
      return Status::InvalidArgument("LCA level out of range for dimension " +
                                     requirement.dimension);
    }
    if (catalog.LcaLevel(all, dim_index) < required) return false;
  }

  if (clause.distance_threshold.has_value()) {
    double distance =
        GroupDistance(catalog, group1, group2, clause.weights);
    if (distance > *clause.distance_threshold) return false;
  }

  return true;
}

Result<std::vector<TimeSeriesGroup>> Partitioner::Partition(
    TimeSeriesCatalog* catalog, const PartitionHints& hints) {
  // Apply scaling rules first so Definition 8's alignment of values is in
  // place before ingestion. All are checked before any is applied.
  for (const ScalingRule& rule : hints.scaling_rules) {
    MODELARDB_RETURN_NOT_OK(CheckScaling(rule.factor));
  }
  for (const ScalingRule& rule : hints.scaling_rules) {
    if (!rule.source.empty()) {
      for (Tid tid : catalog->AllTids()) {
        if (catalog->Get(tid).source == rule.source) {
          catalog->GetMutable(tid)->scaling = rule.factor;
        }
      }
    } else {
      MODELARDB_ASSIGN_OR_RETURN(int dim_index,
                                 catalog->DimensionIndex(rule.dimension));
      for (Tid tid :
           catalog->SeriesWithMember(dim_index, rule.level, rule.member)) {
        catalog->GetMutable(tid)->scaling = rule.factor;
      }
    }
  }

  // Algorithm 1: one group per series, merge to a fixpoint.
  std::vector<std::vector<Tid>> groups;
  for (Tid tid : catalog->AllTids()) groups.push_back({tid});

  if (!hints.clauses.empty()) {
    bool groups_modified = true;
    while (groups_modified) {
      groups_modified = false;
      for (size_t i = 0; i < groups.size() && !groups_modified; ++i) {
        for (size_t j = i + 1; j < groups.size(); ++j) {
          // Definition 8: a group's series must share one SI.
          if (!SameSamplingInterval(*catalog, groups[i], groups[j])) continue;
          bool correlated = false;
          for (const CorrelationClause& clause : hints.clauses) {
            MODELARDB_ASSIGN_OR_RETURN(
                correlated,
                ClauseHolds(*catalog, clause, groups[i], groups[j]));
            if (correlated) break;
          }
          if (correlated) {
            groups[i] = Union(groups[i], groups[j]);
            groups.erase(groups.begin() + j);
            groups_modified = true;
            break;
          }
        }
      }
    }
  }

  // The Gaps bitmask caps group size at 64 members; split oversized groups
  // (keeping correlated runs together) rather than failing.
  std::vector<std::vector<Tid>> bounded;
  for (std::vector<Tid>& group : groups) {
    for (size_t off = 0; off < group.size(); off += 64) {
      size_t end = std::min(off + 64, group.size());
      bounded.emplace_back(group.begin() + off, group.begin() + end);
    }
  }

  // Deterministic group order (by first Tid) and dense Gid assignment.
  std::sort(bounded.begin(), bounded.end(),
            [](const std::vector<Tid>& a, const std::vector<Tid>& b) {
              return a.front() < b.front();
            });
  std::vector<TimeSeriesGroup> out;
  out.reserve(bounded.size());
  for (size_t i = 0; i < bounded.size(); ++i) {
    TimeSeriesGroup group;
    group.gid = static_cast<Gid>(i + 1);
    group.tids = std::move(bounded[i]);
    group.si = catalog->Get(group.tids.front()).si;
    for (Tid tid : group.tids) catalog->GetMutable(tid)->gid = group.gid;
    out.push_back(std::move(group));
  }
  return out;
}

}  // namespace modelardb
