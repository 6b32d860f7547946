#ifndef GEOALIGN_PARTITION_OVERLAY_H_
#define GEOALIGN_PARTITION_OVERLAY_H_

#include <cstdint>
#include <vector>

#include "partition/box_partition.h"
#include "partition/cell_partition.h"
#include "partition/interval_partition.h"
#include "partition/polygon_partition.h"
#include "sparse/csr_matrix.h"

namespace geoalign::partition {

/// One intersection unit u^st_k = u^s_i ∩ u^t_j with its measure.
struct IntersectionCell {
  uint32_t source;
  uint32_t target;
  double measure;
};

/// The intersection unit system U^st of a source and a target unit
/// system (paper §3.1), with measures. This is the geometric half of
/// what an ArcGIS-style overlay produces; attribute disaggregation
/// matrices are built on top of it (disaggregation.h).
struct OverlayResult {
  uint32_t num_source = 0;
  uint32_t num_target = 0;

  /// Non-empty intersection units, sorted by (source, target) with
  /// unique keys. Every Overlay* producer guarantees this, and
  /// MeasureDm relies on it.
  std::vector<IntersectionCell> cells;

  /// For cell-partition overlays: atom -> index into `cells`; empty
  /// for geometric overlays.
  std::vector<uint32_t> atom_to_cell;

  /// The measure (area) disaggregation matrix DM_area[i,j] =
  /// |u^s_i ∩ u^t_j| — the reference the areal weighting method uses.
  /// One pass over `cells`; the arrays equal a CooBuilder build's.
  sparse::CsrMatrix MeasureDm() const;

  /// Sum of cell measures (should equal the universe measure).
  double TotalMeasure() const;
};

/// Exact 1-D overlay by merging breakpoints. Both partitions must span
/// the same universe interval (within `tol`).
Result<OverlayResult> OverlayIntervals(const IntervalPartition& source,
                                       const IntervalPartition& target,
                                       double tol = 1e-9);

/// Exact n-D product-grid overlay (per-axis interval overlays
/// combined). Partitions must have equal dimension and spans.
Result<OverlayResult> OverlayBoxes(const BoxPartition& source,
                                   const BoxPartition& target,
                                   double tol = 1e-9);

/// Options for the geometric overlay engine.
struct OverlayOptions {
  /// Cells with area <= min_area are dropped.
  double min_area = 0.0;

  /// Worker threads for the candidate and clip passes (0 = one per
  /// hardware thread, 1 = inline). Any thread count produces
  /// bit-identical cells: each pair's area is computed wholly inside
  /// one chunk, and output order comes from candidate order alone.
  size_t threads = 1;
};

/// Geometric 2-D overlay: the exact intersection area of every
/// bbox-candidate pair of units, bit-identical to
/// OverlayPolygonsReference. Two fan-outs (common::ParallelFor): chunks of
/// source units query the target layer's box grid and emit their
/// candidates in (source, target) order, then chunks of that pair
/// list clip each
/// pair with the heap-free geom::TriangleIntersectionArea. Target fans
/// and triangle bboxes are cached once (PreparedOverlayLayer); a
/// chunk recomputes the source fan only when the pair's source
/// changes. Chunks share no writable cache line, and the concatenated
/// chunk lists are already the sorted cell list.
Result<OverlayResult> OverlayPolygons(const PolygonPartition& source,
                                      const PolygonPartition& target,
                                      const OverlayOptions& options = {});

/// The pre-engine overlay, kept as the differential oracle: per-target
/// candidate queries + per-pair IntersectionArea, no caching. It shares
/// the triangle kernel with the engine, so it checks candidates,
/// fans, pruning and order, not the kernel (geom_test.cc checks that
/// against ConvexIntersectionArea). tests/overlay_engine_test.cc
/// asserts the engine is bit-identical to this for every universe ×
/// thread count; bench/overlay_scale measures the speedup against it.
Result<OverlayResult> OverlayPolygonsReference(const PolygonPartition& source,
                                               const PolygonPartition& target,
                                               double min_area = 0.0,
                                               size_t threads = 1);

/// Exact label-join overlay of two partitions of the SAME atom space:
/// cell (i, j) collects atoms with source label i and target label j.
Result<OverlayResult> OverlayCells(const CellPartition& source,
                                   const CellPartition& target);

}  // namespace geoalign::partition

#endif  // GEOALIGN_PARTITION_OVERLAY_H_
