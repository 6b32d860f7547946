#ifndef GEOALIGN_GEOM_BOOLEAN_OPS_H_
#define GEOALIGN_GEOM_BOOLEAN_OPS_H_

#include "geom/convex_clip.h"
#include "geom/polygon.h"

namespace geoalign::geom {

/// Exact area of intersection of two simple polygons (holes allowed,
/// convexity NOT required).
///
/// Method: each polygon is decomposed into a signed triangle fan (so
/// that the signed indicator functions sum to the winding number, 1
/// inside and 0 outside for a simple polygon); the intersection area
/// is then the double sum of signed pairwise triangle-triangle
/// intersection areas, each computed by convex clipping. O(|A|·|B|)
/// triangle pairs.
///
/// This measure-only operator is what the areal-interpolation overlay
/// needs (aggregates in intersections, never intersection shapes); see
/// DESIGN.md §2. Geometric output of boolean ops is provided for
/// convex operands via `ClipRingToConvex`.
double IntersectionArea(const Polygon& a, const Polygon& b);

/// |A ∪ B| via inclusion–exclusion.
double UnionArea(const Polygon& a, const Polygon& b);

/// |A \ B| = |A| - |A ∩ B|.
double DifferenceArea(const Polygon& a, const Polygon& b);

/// |A Δ B| = |A| + |B| - 2 |A ∩ B|.
double SymmetricDifferenceArea(const Polygon& a, const Polygon& b);

/// A signed triangle used in fan decompositions.
struct SignedTriangle {
  Point a, b, c;  ///< CCW order
  double sign;    ///< +1 or -1
};

/// Signed fan decomposition of a polygon (outer ring fans positive,
/// hole rings negative); degenerate triangles are dropped. Exposed for
/// testing and reuse.
std::vector<SignedTriangle> SignedFan(const Polygon& poly);

/// Bounding boxes of fan triangles, one per triangle, computed with
/// the same Expand sequence the per-pair path used — so pruning
/// decisions based on them are bit-identical to recomputing boxes in
/// the tri×tri loop.
std::vector<BBox> FanBBoxes(const std::vector<SignedTriangle>& fan);

/// Per-worker scratch for the prepared-fan intersection kernel: the
/// clip ping/pong rings plus the two staging triangle rings. Reserve
/// once (overlay workers own one each), then IntersectionAreaPrepared
/// never allocates.
struct FanScratch {
  ClipScratch clip;
  Ring tri_a;
  Ring tri_b;

  /// Pre-grows the clip rings for subjects of up to `max_vertices`
  /// vertices (a triangle clipped by a triangle needs 8). Monotonic.
  void Reserve(size_t max_vertices);
};

/// The cached-fan core of IntersectionArea: both polygons arrive as
/// precomputed signed fans with per-triangle bboxes (`SignedFan` +
/// `FanBBoxes`), and every intermediate ring comes from `scratch`.
/// Arithmetic, pruning, and accumulation order are exactly those of
/// IntersectionArea, so the result is bit-identical — the overlay
/// engine leans on this to cache fans per unit instead of
/// re-decomposing per candidate pair. Callers are responsible for the
/// polygon-bounds prune that IntersectionArea performs up front.
double IntersectionAreaPrepared(const SignedTriangle* fan_a,
                                const BBox* boxes_a, size_t size_a,
                                const SignedTriangle* fan_b,
                                const BBox* boxes_b, size_t size_b,
                                FanScratch* scratch);

}  // namespace geoalign::geom

#endif  // GEOALIGN_GEOM_BOOLEAN_OPS_H_
