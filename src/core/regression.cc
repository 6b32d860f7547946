#include "core/regression.h"

#include <algorithm>

#include "linalg/qr.h"

namespace geoalign::core {

RegressionBaseline::RegressionBaseline(RegressionOptions options)
    : options_(options) {}

Result<CrosswalkResult> RegressionBaseline::Crosswalk(
    const CrosswalkInput& input) const {
  if (input.references.empty()) {
    return Status::InvalidArgument("Regression: no references");
  }
  size_t ns = input.NumSourceUnits();
  size_t nt = input.NumTargetUnits();
  size_t num_refs = input.references.size();
  CrosswalkResult result;

  // Design matrix at source level; prediction matrix at target level.
  size_t cols = num_refs + (options_.include_intercept ? 1 : 0);
  linalg::Matrix design(ns, cols);
  linalg::Matrix predict(nt, cols);
  for (size_t k = 0; k < num_refs; ++k) {
    const ReferenceAttribute& ref = input.references[k];
    for (size_t i = 0; i < ns; ++i) design(i, k) = ref.source_aggregates[i];
    linalg::Vector target = ref.TargetAggregates();
    for (size_t j = 0; j < nt; ++j) predict(j, k) = target[j];
  }
  if (options_.include_intercept) {
    for (size_t i = 0; i < ns; ++i) design(i, num_refs) = 1.0;
    // An intercept contributes per-unit; at target level the unit
    // count differs, so scale by the unit-count ratio to keep totals
    // comparable (the standard per-areal-unit regression convention).
    double ratio = static_cast<double>(ns) / static_cast<double>(nt);
    for (size_t j = 0; j < nt; ++j) predict(j, num_refs) = ratio;
  }

  auto coeffs = linalg::LeastSquaresQr(design, input.objective_source);
  if (!coeffs.ok()) {
    // Rank-deficient design (duplicate references): drop to a uniform
    // mix rather than failing outright.
    linalg::Vector uniform(cols, 0.0);
    double total = 0.0;
    for (size_t k = 0; k < num_refs; ++k) {
      total += linalg::Sum(input.references[k].source_aggregates);
    }
    double objective_total = linalg::Sum(input.objective_source);
    for (size_t k = 0; k < num_refs; ++k) {
      uniform[k] = total > 0.0 ? objective_total / total : 0.0;
    }
    coeffs = uniform;
  }

  result.target_estimates = predict.MatVec(*coeffs);
  if (options_.clamp_non_negative) {
    for (double& v : result.target_estimates) v = std::max(0.0, v);
  }
  result.weights = std::move(coeffs).value();
  result.estimated_dm = sparse::CsrMatrix(ns, nt);
  return result;
}

}  // namespace geoalign::core
