#include "core/geoalign.h"

#include <cmath>

#include "sparse/coo_builder.h"
#include "sparse/sparse_ops.h"
#include "common/float_eq.h"

namespace geoalign::core {

namespace {

// Builds the normalized design matrix A (columns = a'^s_rk) and b
// (= a'^s_o) of Eq. 15.
Result<std::pair<linalg::Matrix, linalg::Vector>> BuildNormalizedSystem(
    const CrosswalkInput& input) {
  std::vector<linalg::Vector> cols;
  cols.reserve(input.references.size());
  for (const ReferenceAttribute& ref : input.references) {
    GEOALIGN_ASSIGN_OR_RETURN(linalg::Vector norm,
                              linalg::NormalizeByMax(ref.source_aggregates));
    cols.push_back(std::move(norm));
  }
  GEOALIGN_ASSIGN_OR_RETURN(linalg::Vector b,
                            linalg::NormalizeByMax(input.objective_source));
  return std::make_pair(linalg::Matrix::FromColumns(cols), std::move(b));
}

}  // namespace

GeoAlign::GeoAlign(GeoAlignOptions options) : options_(std::move(options)) {}

Result<linalg::Vector> GeoAlign::LearnWeights(
    const CrosswalkInput& input) const {
  GEOALIGN_ASSIGN_OR_RETURN(auto system, BuildNormalizedSystem(input));
  return internal::SolveWeightsForDesign(system.first, system.second,
                                         options_);
}

Result<CrosswalkPlan> GeoAlign::Compile(const CrosswalkInput& input) const {
  return CrosswalkPlan::Compile(input, options_);
}

Result<CrosswalkPlan> GeoAlign::Compile(
    const std::vector<ReferenceAttribute>& references) const {
  return CrosswalkPlan::Compile(references, options_);
}

Result<CrosswalkResult> GeoAlign::Crosswalk(
    const CrosswalkInput& input) const {
  // Thin compile-then-execute wrapper: one-shot callers pay one plan
  // compilation (what the legacy path redid inline anyway); repeated
  // callers should hold the plan. Bit-identical to CrosswalkUncompiled
  // by the CrosswalkPlan contract, which plan_equivalence_test pins.
  // The plan dies with this call, so it borrows `input`'s arrays
  // through the view Compile instead of copying them.
  std::vector<ReferenceAttributeView> views;
  views.reserve(input.references.size());
  for (const ReferenceAttribute& ref : input.references) {
    views.push_back({ref.name, ref.source_aggregates,
                     ref.disaggregation.Borrow(), nullptr});
  }
  GEOALIGN_ASSIGN_OR_RETURN(CrosswalkPlan plan,
                            CrosswalkPlan::Compile(std::move(views), options_));
  return plan.Execute(input.objective_source);
}

Result<CrosswalkResult> CrosswalkUncompiled(const CrosswalkInput& input,
                                            const GeoAlignOptions& options) {
  if (input.references.empty()) {
    return Status::InvalidArgument("GeoAlign: no reference attributes");
  }
  if (options.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
      options.fallback_dm == nullptr) {
    return Status::InvalidArgument(
        "GeoAlign: kFallbackDm requires options.fallback_dm");
  }
  CrosswalkResult result;

  // Step 1: weight learning (Eq. 15).
  GEOALIGN_ASSIGN_OR_RETURN(auto system, BuildNormalizedSystem(input));
  GEOALIGN_ASSIGN_OR_RETURN(
      linalg::Vector beta,
      internal::SolveWeightsForDesign(system.first, system.second, options));

  // Step 2: disaggregation (Eq. 14). Effective per-reference weight
  // folds the β_k together with the normalization factor so a single
  // sparse weighted sum produces both the numerator matrix and (via
  // the reference source vectors) the denominators.
  size_t num_refs = input.references.size();
  linalg::Vector effective(num_refs, 0.0);
  for (size_t k = 0; k < num_refs; ++k) {
    double norm = 1.0;
    if (options.scale_mode == ScaleMode::kNormalized) {
      norm = linalg::Max(input.references[k].source_aggregates);
      if (norm <= 0.0) {
        return Status::InvalidArgument(
            "GeoAlign: reference '" + input.references[k].name +
            "' has all-zero source aggregates");
      }
    }
    effective[k] = beta[k] / norm;
  }

  std::vector<const sparse::CsrMatrix*> dms;
  dms.reserve(num_refs);
  for (const ReferenceAttribute& ref : input.references) {
    dms.push_back(&ref.disaggregation);
  }
  GEOALIGN_ASSIGN_OR_RETURN(sparse::CsrMatrix numerator,
                            sparse::WeightedSum(dms, effective));

  linalg::Vector denom;
  if (options.denominator == DenominatorMode::kFromDmRowSums) {
    denom = numerator.RowSums();
  } else {
    denom.assign(input.NumSourceUnits(), 0.0);
    for (size_t k = 0; k < num_refs; ++k) {
      if (ExactlyZero(effective[k])) continue;
      linalg::Axpy(effective[k], input.references[k].source_aggregates,
                   denom);
    }
  }

  // Rows scale by a^s_o[i] / denom[i]; zero denominators fall back.
  std::vector<size_t> zero_rows;
  sparse::DivideRowsOrZero(numerator, denom, options.zero_tolerance,
                           &zero_rows);
  numerator.ScaleRows(input.objective_source);
  sparse::CsrMatrix estimated = std::move(numerator);

  if (options.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
      !zero_rows.empty()) {
    const sparse::CsrMatrix& fb = *options.fallback_dm;
    if (fb.rows() != estimated.rows() || fb.cols() != estimated.cols()) {
      return Status::InvalidArgument("GeoAlign: fallback DM shape mismatch");
    }
    // Rebuild the matrix, replacing the unsupported rows with the
    // fallback DM's rows rescaled to carry the objective mass.
    linalg::Vector fb_sums = fb.RowSums();
    std::vector<bool> is_zero_row(estimated.rows(), false);
    for (size_t r : zero_rows) is_zero_row[r] = true;
    sparse::CooBuilder builder(estimated.rows(), estimated.cols());
    for (size_t r = 0; r < estimated.rows(); ++r) {
      if (!is_zero_row[r]) {
        sparse::CsrMatrix::RowView row = estimated.Row(r);
        for (size_t k = 0; k < row.size; ++k) {
          builder.Add(r, row.cols[k], row.values[k]);
        }
        continue;
      }
      if (fb_sums[r] <= 0.0) continue;  // no fallback support either
      double scale = input.objective_source[r] / fb_sums[r];
      sparse::CsrMatrix::RowView row = fb.Row(r);
      for (size_t k = 0; k < row.size; ++k) {
        builder.Add(r, row.cols[k], row.values[k] * scale);
      }
    }
    estimated = builder.Build();
  }

  // Step 3: re-aggregation (Eq. 17).
  result.target_estimates = estimated.ColSums();

  result.estimated_dm = std::move(estimated);
  result.weights = std::move(beta);
  result.zero_rows = std::move(zero_rows);
  return result;
}

}  // namespace geoalign::core
