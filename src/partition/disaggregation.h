#ifndef GEOALIGN_PARTITION_DISAGGREGATION_H_
#define GEOALIGN_PARTITION_DISAGGREGATION_H_

#include "common/span.h"
#include "geom/point.h"
#include "partition/overlay.h"
#include "sparse/csr_matrix.h"

namespace geoalign::partition {

/// Builders for attribute disaggregation matrices DM_x[i,j] = aggregate
/// of attribute x in u^s_i ∩ u^t_j (paper Eq. 13) and for aggregate
/// vectors — the "crosswalk relationship files" real pipelines obtain
/// from ArcGIS overlays or HUD-USPS crosswalk downloads.

/// DM from per-atom attribute values over a cell-partition overlay
/// (the overlay must carry `atom_to_cell`). Exact.
Result<sparse::CsrMatrix> DmFromAtomValues(const OverlayResult& overlay,
                                           const linalg::Vector& atom_values);

/// DM from weighted 2-D point data: each point is located in both
/// polygon layers and its weight accumulates in the matching cell.
/// Points outside either layer are skipped and counted in
/// `dropped_points` when non-null.
Result<sparse::CsrMatrix> DmFromPoints(const PolygonPartition& source,
                                       const PolygonPartition& target,
                                       const std::vector<geom::Point>& points,
                                       const linalg::Vector& weights,
                                       size_t* dropped_points = nullptr);

/// Aggregate vector of weighted 2-D points per polygon unit (points in
/// no unit are skipped, counted in `dropped_points` when non-null).
linalg::Vector AggregatePoints(const PolygonPartition& layer,
                               const std::vector<geom::Point>& points,
                               const linalg::Vector& weights,
                               size_t* dropped_points = nullptr);

/// Checks DM/source-vector consistency: row i of `dm` must sum to
/// `source_aggregates[i]` within `tol * max(1, |a_i|)`; a NaN or
/// infinite row sum or aggregate fails. GeoAlign's
/// volume-preservation guarantee (Eq. 16) relies on this. The
/// library's one row-sum check: core::CrosswalkInput::Validate and
/// geoalign_plan_compile call it; compile itself accepts a gap.
Status CheckDmConsistency(const sparse::CsrMatrix& dm,
                          common::ConstSpan<double> source_aggregates,
                          double tol = 1e-9);

}  // namespace geoalign::partition

#endif  // GEOALIGN_PARTITION_DISAGGREGATION_H_
