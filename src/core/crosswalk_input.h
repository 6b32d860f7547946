#ifndef GEOALIGN_CORE_CROSSWALK_INPUT_H_
#define GEOALIGN_CORE_CROSSWALK_INPUT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/vector_ops.h"
#include "sparse/csr_matrix.h"
#include "sparse/prepared_reference.h"

namespace geoalign::core {

/// One reference attribute α_r: its aggregate vector on the source
/// units plus its disaggregation matrix DM_r between source and target
/// units (paper §3.3). Every compile path rejects a reference whose
/// aggregates or DM entries are NaN, ±Inf or negative, whose
/// aggregates are all zero, or whose shape is off
/// (sparse::CheckReference). The matrix rows should also sum to the
/// source aggregates; compile accepts a gap (DenominatorMode::
/// kFromDmRowSums keeps Eq. 16 exact for it), `CrosswalkInput::Validate`
/// rejects it.
struct ReferenceAttribute {
  std::string name;
  linalg::Vector source_aggregates;  ///< a^s_r, one entry per source unit
  sparse::CsrMatrix disaggregation;  ///< DM_r, |U^s| x |U^t|

  /// a^t_r = column sums of DM_r, handy for metrics/diagnostics.
  linalg::Vector TargetAggregates() const {
    return disaggregation.ColSums();
  }
};

/// Everything an aggregate-interpolation method may consume: the
/// objective attribute's source aggregates and the available reference
/// attributes (Algorithm 1's inputs).
struct CrosswalkInput {
  linalg::Vector objective_source;  ///< a^s_o
  std::vector<ReferenceAttribute> references;

  size_t NumSourceUnits() const { return objective_source.size(); }
  size_t NumTargetUnits() const {
    return references.empty() ? 0 : references[0].disaggregation.cols();
  }

  /// Checks the whole input, in this order:
  ///  - at least one reference;
  ///  - every reference passes sparse::CheckReference, the check every
  ///    compile path runs (same messages);
  ///  - the objective passes CheckObjective, the check every execute
  ///    path runs (same messages);
  ///  - each DM_r's rows sum to a^s_r within `consistency_tol`
  ///    (relative; partition::CheckDmConsistency), the precondition
  ///    for exact volume preservation. Compile does not check this.
  Status Validate(double consistency_tol = 1e-6) const;

  /// Returns the index of the reference named `name`.
  Result<size_t> FindReference(const std::string& name) const;

  /// Copy of this input restricted to the given reference indices
  /// (order preserved as listed). Used by leave-n-out experiments.
  Result<CrosswalkInput> WithReferenceSubset(
      const std::vector<size_t>& keep) const;
};

/// The library's one objective check, run by CrosswalkInput::Validate,
/// CrosswalkPlan::LearnWeights and Execute (so by every serving path,
/// the C ABI included) and CrosswalkUncompiled, so each fault reads one
/// message everywhere. Fails with InvalidArgument, prefixed
/// "objective: ", when `objective` does not have `num_source` entries,
/// or an entry is NaN, ±Inf or negative, or all entries are zero. On
/// success returns the max-normalized objective (Eq. 15's b): the
/// value check is the normalization pass itself, as in
/// sparse::CheckReference.
Result<linalg::Vector> CheckObjective(common::ColumnView objective,
                                      size_t num_source);

/// Zero-copy flavor of ReferenceAttribute: the aggregate column is a
/// borrowed view (optionally guarded by a keepalive) and the DM is a
/// CsrMatrix — a copy of the caller's, which shares its arrays, or one
/// over borrowed arrays (CsrMatrix::FromBorrowed). Identical to — and
/// directly consumed as — the sparse layer's Prepare input.
using ReferenceAttributeView = sparse::ReferenceDataView;

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_CROSSWALK_INPUT_H_
