#include "core/three_class_dasymetric.h"

#include <algorithm>
#include <cmath>

#include "linalg/nnls.h"
#include "linalg/stats.h"
#include "sparse/coo_builder.h"

namespace geoalign::core {

ThreeClassDasymetric::ThreeClassDasymetric(sparse::CsrMatrix measure_dm,
                                           ThreeClassOptions options)
    : measure_dm_(std::move(measure_dm)), options_(options) {}

Result<CrosswalkResult> ThreeClassDasymetric::Crosswalk(
    const CrosswalkInput& input) const {
  size_t ref_index = options_.reference_index;
  if (!options_.reference_name.empty()) {
    GEOALIGN_ASSIGN_OR_RETURN(ref_index,
                              input.FindReference(options_.reference_name));
  }
  if (ref_index >= input.references.size()) {
    return Status::OutOfRange("3-class dasymetric: reference index");
  }
  if (options_.num_classes == 0) {
    return Status::InvalidArgument("3-class dasymetric: zero classes");
  }
  size_t ns = input.NumSourceUnits();
  if (measure_dm_.rows() != ns) {
    return Status::InvalidArgument(
        "3-class dasymetric: measure DM does not match input");
  }
  const sparse::CsrMatrix& ref_dm =
      input.references[ref_index].disaggregation;
  if (ref_dm.rows() != ns || ref_dm.cols() != measure_dm_.cols()) {
    return Status::InvalidArgument(
        "3-class dasymetric: reference DM shape mismatch");
  }
  CrosswalkResult result;

  // 1. Density of the classifying reference per intersection cell, and
  // the class thresholds (quantiles over cells weighted equally).
  linalg::Vector densities;
  for (size_t i = 0; i < ns; ++i) {
    sparse::CsrMatrix::RowView area_row = measure_dm_.Row(i);
    for (size_t k = 0; k < area_row.size; ++k) {
      double area = area_row.values[k];
      if (area <= 0.0) continue;
      densities.push_back(ref_dm.At(i, area_row.cols[k]) / area);
    }
  }
  if (densities.empty()) {
    return Status::InvalidArgument("3-class dasymetric: empty measure DM");
  }
  std::vector<double> thresholds;
  for (size_t c = 1; c < options_.num_classes; ++c) {
    thresholds.push_back(linalg::Quantile(
        densities, static_cast<double>(c) /
                       static_cast<double>(options_.num_classes)));
  }
  auto class_of = [&thresholds](double density) {
    size_t c = 0;
    while (c < thresholds.size() && density > thresholds[c]) ++c;
    return c;
  };

  // 2. Per-source-unit area in each class, and the NNLS fit of the
  // objective's per-class densities: a^s_o[i] ~ sum_c d_c * A[i][c].
  linalg::Matrix class_areas(ns, options_.num_classes);
  for (size_t i = 0; i < ns; ++i) {
    sparse::CsrMatrix::RowView area_row = measure_dm_.Row(i);
    for (size_t k = 0; k < area_row.size; ++k) {
      double area = area_row.values[k];
      if (area <= 0.0) continue;
      double density = ref_dm.At(i, area_row.cols[k]) / area;
      class_areas(i, class_of(density)) += area;
    }
  }
  GEOALIGN_ASSIGN_OR_RETURN(
      linalg::NnlsSolution fit,
      linalg::SolveNnls(class_areas, input.objective_source));
  result.weights = fit.x;  // the estimated class densities

  // 3. Spread each source unit by d_class * area, rescaled to the
  // unit's actual aggregate (volume preservation). Units whose class
  // weights vanish fall back to plain area weighting.
  sparse::CooBuilder builder(ns, measure_dm_.cols());
  std::vector<size_t> zero_rows;
  for (size_t i = 0; i < ns; ++i) {
    sparse::CsrMatrix::RowView area_row = measure_dm_.Row(i);
    double total = 0.0;
    double area_total = 0.0;
    for (size_t k = 0; k < area_row.size; ++k) {
      double area = area_row.values[k];
      if (area <= 0.0) continue;
      double density = ref_dm.At(i, area_row.cols[k]) / area;
      total += fit.x[class_of(density)] * area;
      area_total += area;
    }
    bool fallback = total <= 0.0;
    if (fallback && area_total <= 0.0) {
      zero_rows.push_back(i);
      continue;
    }
    double scale = input.objective_source[i] / (fallback ? area_total : total);
    for (size_t k = 0; k < area_row.size; ++k) {
      double area = area_row.values[k];
      if (area <= 0.0) continue;
      double density = ref_dm.At(i, area_row.cols[k]) / area;
      double w = fallback ? area : fit.x[class_of(density)] * area;
      if (w > 0.0) builder.Add(i, area_row.cols[k], w * scale);
    }
  }
  result.estimated_dm = builder.Build();
  result.target_estimates = result.estimated_dm.ColSums();
  result.zero_rows = std::move(zero_rows);
  return result;
}

}  // namespace geoalign::core
