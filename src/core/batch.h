#ifndef GEOALIGN_CORE_BATCH_H_
#define GEOALIGN_CORE_BATCH_H_

#include <string>
#include <vector>

#include "core/crosswalk_plan.h"
#include "core/geoalign.h"

namespace geoalign::core {

/// Realigns MANY objective attributes over one shared reference set —
/// the shape of the paper's envisioned "automatic aggregate data
/// integration system" (§6), where a data portal realigns every
/// column of every table onto a canonical unit system.
///
/// A thin batching façade over CrosswalkPlan: `Create` compiles the
/// plan once (normalized design matrix, Gram matrix, per-reference
/// normalizers, DM structure), `Run` executes it for every objective
/// through CrosswalkPlan::ExecuteMany. With R references and B
/// objectives this removes the O(B · R · |U^s|) re-normalization and
/// O(B · R² · |U^s|) Gram rebuild that looping over
/// `GeoAlign::Crosswalk` would pay. Every WeightSolver is supported
/// (the plan hoists the Gram matrix only for kSimplex).
class BatchCrosswalk {
 public:
  /// Compiles the shared references (CrosswalkPlan::Compile, with its
  /// checks and messages). All objectives passed to `Run` must use
  /// source vectors of `references[0]`'s length.
  static Result<BatchCrosswalk> Create(
      std::vector<ReferenceAttribute> references,
      GeoAlignOptions options = {});

  /// One objective column to realign.
  struct Objective {
    std::string name;
    linalg::Vector source;  ///< a^s_o
  };

  /// One realigned column. The batch surface never exposes DM̂_o, so
  /// Run executes through the fused aggregates-only lane — the DM is
  /// never materialized on this path.
  struct BatchResult {
    std::string name;
    linalg::Vector target_estimates;
    linalg::Vector weights;
    std::vector<size_t> zero_rows;
  };

  /// Realigns every objective; results are index-aligned with input.
  /// A thin wrapper over CrosswalkPlan::ExecuteMany(columns,
  /// options.threads, kAggregatesOnly): the independent objectives (or
  /// their column panels, on aligned plans) run concurrently — the
  /// paper-§6 portal shape, every column of every table realigned at
  /// once. Outputs are bit-identical to the sequential order for any
  /// thread count; on error the lowest-index failing objective's
  /// status is returned (a wrong-length objective keeps its
  /// Batch-specific message).
  Result<std::vector<BatchResult>> Run(
      const std::vector<Objective>& objectives) const;

  size_t NumSourceUnits() const { return plan_.num_source_units(); }
  size_t NumTargetUnits() const { return plan_.num_target_units(); }

  /// The compiled plan executed per objective (also exposes the
  /// prepared references).
  const CrosswalkPlan& plan() const { return plan_; }

 private:
  explicit BatchCrosswalk(CrosswalkPlan plan);

  CrosswalkPlan plan_;
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_BATCH_H_
