#include "partition/disaggregation.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "sparse/coo_builder.h"
#include "common/float_eq.h"

namespace geoalign::partition {

Result<sparse::CsrMatrix> DmFromAtomValues(
    const OverlayResult& overlay, const linalg::Vector& atom_values) {
  if (overlay.atom_to_cell.empty()) {
    return Status::InvalidArgument(
        "DmFromAtomValues: overlay has no atom mapping (not a cell overlay)");
  }
  if (atom_values.size() != overlay.atom_to_cell.size()) {
    return Status::InvalidArgument("DmFromAtomValues: atom count mismatch");
  }
  // Accumulate per intersection cell, then scatter into the matrix.
  linalg::Vector cell_totals(overlay.cells.size(), 0.0);
  for (size_t a = 0; a < atom_values.size(); ++a) {
    cell_totals[overlay.atom_to_cell[a]] += atom_values[a];
  }
  sparse::CooBuilder builder(overlay.num_source, overlay.num_target);
  for (size_t k = 0; k < overlay.cells.size(); ++k) {
    if (!ExactlyZero(cell_totals[k])) {
      builder.Add(overlay.cells[k].source, overlay.cells[k].target,
                  cell_totals[k]);
    }
  }
  return builder.Build();
}

Result<sparse::CsrMatrix> DmFromPoints(const PolygonPartition& source,
                                       const PolygonPartition& target,
                                       const std::vector<geom::Point>& points,
                                       const linalg::Vector& weights,
                                       size_t* dropped_points) {
  GEOALIGN_TRACE_SPAN("dm.from_points");
  if (points.size() != weights.size()) {
    return Status::InvalidArgument("DmFromPoints: weight count mismatch");
  }
  sparse::CooBuilder builder(source.NumUnits(), target.NumUnits());
  size_t dropped = 0;
  for (size_t p = 0; p < points.size(); ++p) {
    auto si = source.Locate(points[p]);
    auto ti = target.Locate(points[p]);
    if (!si.ok() || !ti.ok()) {
      ++dropped;
      continue;
    }
    builder.Add(*si, *ti, weights[p]);
  }
  if (dropped_points != nullptr) *dropped_points = dropped;
  return builder.Build();
}

linalg::Vector AggregatePoints(const PolygonPartition& layer,
                               const std::vector<geom::Point>& points,
                               const linalg::Vector& weights,
                               size_t* dropped_points) {
  GEOALIGN_TRACE_SPAN("dm.aggregate_points");
  GEOALIGN_CHECK(points.size() == weights.size())
      << "AggregatePoints: weight count mismatch";
  linalg::Vector out(layer.NumUnits(), 0.0);
  size_t dropped = 0;
  for (size_t p = 0; p < points.size(); ++p) {
    auto unit = layer.Locate(points[p]);
    if (!unit.ok()) {
      ++dropped;
      continue;
    }
    out[*unit] += weights[p];
  }
  if (dropped_points != nullptr) *dropped_points = dropped;
  return out;
}

Status CheckDmConsistency(const sparse::CsrMatrix& dm,
                          common::ConstSpan<double> source_aggregates,
                          double tol) {
  if (dm.rows() != source_aggregates.size()) {
    return Status::InvalidArgument("CheckDmConsistency: row count mismatch");
  }
  linalg::Vector sums = dm.RowSums();
  for (size_t i = 0; i < sums.size(); ++i) {
    double lim = tol * std::max(1.0, std::fabs(source_aggregates[i]));
    double diff = std::fabs(sums[i] - source_aggregates[i]);
    // A NaN or infinite row sum or aggregate leaves diff non-finite,
    // and NaN compares false against any limit, so test that first.
    if (!std::isfinite(diff) || diff > lim) {
      return Status::FailedPrecondition(StrFormat(
          "DM row %zu sums to %.12g but source aggregate is %.12g", i,
          sums[i], source_aggregates[i]));
    }
  }
  return Status::OK();
}

}  // namespace geoalign::partition
