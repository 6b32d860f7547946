#ifndef GEOALIGN_CORE_PIPELINE_H_
#define GEOALIGN_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/unit_index.h"
#include "core/geoalign.h"

namespace geoalign::core {

/// End-to-end aggregate data integration (the system sketched in the
/// paper's conclusion): joins an aggregate table reported on source
/// units with a table reported on target units by realigning the
/// former — the Fig. 1 steam-consumption ⋈ per-capita-income join.
///
/// Unit identifiers are strings (zip codes, county FIPS, ...); the
/// pipeline handles name→index resolution, runs the interpolator, and
/// emits a joined table keyed by target unit.
class CrosswalkPipeline {
 public:
  /// `references` carry the crosswalk knowledge (aggregates + DMs in
  /// the index order of the unit name lists); each must have the unit
  /// lists' shape (sparse::CheckReferenceShape). `method` defaults to
  /// GeoAlign with default options when null. A duplicate name within
  /// either unit list is InvalidArgument `duplicate <source|target>
  /// unit name '<name>'` (common::UnitIndex; it would otherwise shadow
  /// an earlier index during column resolution).
  ///
  /// Create is the COMPILE step of the serving path: it builds one
  /// common::UnitIndex per unit list and, when `method` is GeoAlign,
  /// compiles the shared CrosswalkPlan once; Realign/RealignMany then
  /// only resolve names and execute.
  /// (If plan compilation fails — e.g. a reference GeoAlign cannot
  /// normalize — Create still succeeds and the error surfaces at
  /// Realign time, matching the legacy behaviour.)
  static Result<CrosswalkPipeline> Create(
      std::vector<std::string> source_units,
      std::vector<std::string> target_units,
      std::vector<ReferenceAttribute> references,
      std::shared_ptr<const Interpolator> method = nullptr);

  /// Realigns a (unit name, value) column from source to target units.
  /// Unknown unit names error; source units absent from the column get
  /// value 0. Returns estimates in target-unit index order.
  Result<CrosswalkResult> Realign(
      const std::vector<std::pair<std::string, double>>& objective) const;

  /// A (unit name, value) objective column, as accepted by Realign.
  using Column = std::vector<std::pair<std::string, double>>;

  /// Realigns many independent objective columns concurrently — the
  /// portal shape of the paper's §6: every column of a table realigned
  /// at once. `threads`: 0 = one per hardware thread, 1 = sequential.
  /// Results are index-aligned with `objectives` and bit-identical to
  /// looping over Realign for every thread count; on error the
  /// lowest-index failing column's status is returned.
  ///
  /// Column names resolve one column per task over `threads`
  /// (common::ParallelFor); the resolved columns then execute through
  /// CrosswalkPlan::ExecuteMany(columns, threads, output), which owns
  /// the lane choice, the column panels and the scheduling rule.
  /// Without a compiled plan each column runs the per-call
  /// method instead. `output` selects the result shape:
  /// ExecuteOutput::kAggregatesOnly serves each column through the
  /// fused zero-materialization lane (results carry an empty
  /// estimated_dm; target_estimates, weights, and zero_rows are
  /// bit-identical to kFullDm).
  Result<std::vector<CrosswalkResult>> RealignMany(
      const std::vector<Column>& objectives, size_t threads = 0,
      ExecuteOutput output = ExecuteOutput::kFullDm) const;

  /// One row of the joined output.
  struct JoinedRow {
    std::string target_unit;
    double objective_estimate;
    double target_value;
  };

  /// Realigns `objective` and joins with `target_attribute` (a column
  /// keyed by target unit name); target units absent from the column
  /// get value 0.
  Result<std::vector<JoinedRow>> Join(
      const std::vector<std::pair<std::string, double>>& objective,
      const std::vector<std::pair<std::string, double>>& target_attribute)
      const;

  const std::vector<std::string>& source_units() const {
    return source_index_.names();
  }
  const std::vector<std::string>& target_units() const {
    return target_index_.names();
  }
  const Interpolator& method() const { return *method_; }

  /// The compiled plan shared by Realign/RealignMany, or null when the
  /// method is not GeoAlign (or its references failed to compile).
  const CrosswalkPlan* plan() const { return plan_.get(); }

 private:
  CrosswalkPipeline(common::UnitIndex source_index,
                    common::UnitIndex target_index,
                    std::vector<ReferenceAttribute> references,
                    std::shared_ptr<const Interpolator> method);

  /// Sums `column`'s values into `out` (resized to the unit count) by
  /// unit index, in column order; an unknown unit name is NotFound.
  static Status ResolveColumn(
      const std::vector<std::pair<std::string, double>>& column,
      const common::UnitIndex& index, linalg::Vector* out);

  /// Realigns one resolved column through `method_` per call — the
  /// path for interpolators without a compiled plan.
  Result<CrosswalkResult> RealignPerCall(linalg::Vector objective_source) const;

  /// The unit name lists and their name→index tables, built (and
  /// checked for duplicates) once in Create; the only copy of the names.
  common::UnitIndex source_index_;
  common::UnitIndex target_index_;
  /// Reference attributes, kept only for interpolators that take the
  /// per-call CrosswalkInput path; empty once `plan_` is compiled.
  std::vector<ReferenceAttribute> references_;
  std::shared_ptr<const Interpolator> method_;
  std::shared_ptr<const CrosswalkPlan> plan_;
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_PIPELINE_H_
