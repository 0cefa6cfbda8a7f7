#include "dims/dimensions.h"

#include <algorithm>
#include <cmath>

namespace modelardb {

Result<int> Dimension::LevelOf(const std::string& level_name) const {
  for (int i = 0; i < height(); ++i) {
    if (level_names_[i] == level_name) return i + 1;
  }
  return Status::NotFound("no level named '" + level_name + "' in dimension " +
                          name_);
}

Status CheckScaling(double scaling) {
  if (scaling > 0.0 && std::isfinite(scaling)) return Status::OK();
  return Status::InvalidArgument(
      "scaling constant must be positive and finite: " +
      std::to_string(scaling));
}

Result<int> TimeSeriesCatalog::DimensionIndex(const std::string& name) const {
  for (size_t i = 0; i < dimensions_.size(); ++i) {
    if (dimensions_[i].name() == name) return static_cast<int>(i);
  }
  return Status::NotFound("no dimension named '" + name + "'");
}

Status TimeSeriesCatalog::AddSeries(TimeSeriesMeta meta) {
  Tid expected = static_cast<Tid>(series_.size()) + 1;
  if (meta.tid != expected) {
    return Status::InvalidArgument(
        "Tids must be dense and start at 1; expected " +
        std::to_string(expected) + " got " + std::to_string(meta.tid));
  }
  if (meta.members.size() != dimensions_.size()) {
    return Status::InvalidArgument("series " + std::to_string(meta.tid) +
                                   " has " +
                                   std::to_string(meta.members.size()) +
                                   " member paths, schema has " +
                                   std::to_string(dimensions_.size()));
  }
  for (size_t d = 0; d < dimensions_.size(); ++d) {
    if (static_cast<int>(meta.members[d].size()) != dimensions_[d].height()) {
      return Status::InvalidArgument(
          "member path length mismatch for dimension " +
          dimensions_[d].name());
    }
  }
  if (meta.si <= 0) {
    return Status::InvalidArgument("sampling interval must be positive");
  }
  MODELARDB_RETURN_NOT_OK(CheckScaling(meta.scaling));
  series_.push_back(std::move(meta));
  return Status::OK();
}

int TimeSeriesCatalog::LcaLevel(const std::vector<Tid>& tids,
                                int dim_index) const {
  if (tids.empty()) return 0;
  int height = dimensions_[dim_index].height();
  const MemberPath& first = series_[tids[0] - 1].members[dim_index];
  int lca = height;
  for (size_t i = 1; i < tids.size(); ++i) {
    const MemberPath& other = series_[tids[i] - 1].members[dim_index];
    int match = 0;
    while (match < lca && first[match] == other[match]) ++match;
    lca = match;
    if (lca == 0) break;
  }
  return lca;
}

std::vector<Tid> TimeSeriesCatalog::SeriesWithMember(
    int dim_index, int level, const std::string& member) const {
  std::vector<Tid> out;
  for (const TimeSeriesMeta& meta : series_) {
    if (meta.members[dim_index][level - 1] == member) out.push_back(meta.tid);
  }
  return out;
}

std::vector<Tid> TimeSeriesCatalog::AllTids() const {
  std::vector<Tid> out(series_.size());
  for (size_t i = 0; i < series_.size(); ++i) out[i] = static_cast<Tid>(i + 1);
  return out;
}

}  // namespace modelardb
