// User-defined dimensions (paper §2, Definition 7) and the denormalized
// time series metadata table (Fig 6).
//
// A dimension is a hierarchy of members with the special top element ⊤ at
// level 0; each time series carries one member per level, from level 1
// (directly below ⊤) down to the most detailed level n. Following the
// paper's storage schema, the members are stored denormalized per series.

#ifndef MODELARDB_DIMS_DIMENSIONS_H_
#define MODELARDB_DIMS_DIMENSIONS_H_

#include <map>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace modelardb {

// Schema of one dimension: its name and the names of levels 1..n, ordered
// from just below ⊤ (level 1) to the most detailed level n where time
// series attach. Example: {"Location", {"Country", "Region", "Park",
// "Turbine"}} gives Turbine level 4.
class Dimension {
 public:
  Dimension(std::string name, std::vector<std::string> level_names)
      : name_(std::move(name)), level_names_(std::move(level_names)) {}

  const std::string& name() const { return name_; }

  // Number of levels excluding ⊤ (the `height` of Algorithm 2).
  int height() const { return static_cast<int>(level_names_.size()); }

  // Name of level k, 1 <= k <= height().
  const std::string& LevelName(int level) const {
    return level_names_[level - 1];
  }

  // Level number of a named level, or NotFound.
  Result<int> LevelOf(const std::string& level_name) const;

 private:
  std::string name_;
  std::vector<std::string> level_names_;
};

// A member path of one series in one dimension: element 0 is the level-1
// member, element height-1 the most detailed member.
using MemberPath = std::vector<std::string>;

// Metadata of one time series: one row of the Time Series table (Fig 6),
// including the denormalized dimension members.
struct TimeSeriesMeta {
  Tid tid = 0;
  SamplingInterval si = 0;
  double scaling = 1.0;
  Gid gid = 0;  // Assigned by the Partitioner.
  std::string source;  // File/socket location (used by explicit hints §4.1).
  std::vector<MemberPath> members;  // Parallel to the schema's dimensions.
};

// A scaling constant must be positive and finite: values are divided by
// it during iterate (§6.1), which must keep them ordered and finite.
// Returns InvalidArgument otherwise.
Status CheckScaling(double scaling);

// The dimension schema plus the metadata rows of all time series. Acts as
// the paper's Metadata Cache: an in-memory, Tid-indexed table used for the
// array-based dimension hash-join during query processing (§6.1).
class TimeSeriesCatalog {
 public:
  explicit TimeSeriesCatalog(std::vector<Dimension> dimensions = {})
      : dimensions_(std::move(dimensions)) {}

  const std::vector<Dimension>& dimensions() const { return dimensions_; }
  Result<int> DimensionIndex(const std::string& name) const;

  // Adds a series; its Tid must be the next consecutive integer starting
  // at 1 (the paper's array-join relies on dense Tids), and its member
  // paths must match the schema's dimension heights.
  Status AddSeries(TimeSeriesMeta meta);

  int NumSeries() const { return static_cast<int>(series_.size()); }
  bool Contains(Tid tid) const {
    return tid >= 1 && tid <= static_cast<Tid>(series_.size());
  }

  // Precondition: Contains(tid).
  const TimeSeriesMeta& Get(Tid tid) const { return series_[tid - 1]; }
  TimeSeriesMeta* GetMutable(Tid tid) { return &series_[tid - 1]; }

  // Member of `tid` at (dimension index, level). Level is 1-based.
  const std::string& Member(Tid tid, int dim_index, int level) const {
    return series_[tid - 1].members[dim_index][level - 1];
  }

  // Level of the lowest common ancestor of `tids` in dimension `dim_index`:
  // the deepest level (counted from ⊤) at which every series shares the
  // same member; 0 when they already differ at level 1 (§4.1, Fig 7).
  int LcaLevel(const std::vector<Tid>& tids, int dim_index) const;

  // All Tids whose member at (dimension, level) equals `member`. Used for
  // rewriting dimensional predicates to Gids (§6.2).
  std::vector<Tid> SeriesWithMember(int dim_index, int level,
                                    const std::string& member) const;

  // Tids of every series, 1..NumSeries().
  std::vector<Tid> AllTids() const;

 private:
  std::vector<Dimension> dimensions_;
  std::vector<TimeSeriesMeta> series_;  // Index tid-1.
};

}  // namespace modelardb

#endif  // MODELARDB_DIMS_DIMENSIONS_H_
