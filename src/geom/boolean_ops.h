#ifndef GEOALIGN_GEOM_BOOLEAN_OPS_H_
#define GEOALIGN_GEOM_BOOLEAN_OPS_H_

#include <vector>

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

/// Appends the signed fan decomposition of `poly` to `*out` (outer
/// ring fans positive, hole rings negative); degenerate triangles are
/// dropped. A ring of n vertices adds at most n - 2 triangles.
void SignedFan(const Polygon& poly, std::vector<SignedTriangle>* out);

/// Appends one bounding box per triangle of `fan` to `*out`, computed
/// with the same Expand sequence the per-pair path used — so pruning
/// decisions based on them are bit-identical to recomputing boxes in
/// the tri×tri loop.
void FanBBoxes(const std::vector<SignedTriangle>& fan, std::vector<BBox>* out);

/// Area of a ∩ b for two CCW triangles (their signs are not read):
/// Sutherland–Hodgman of `a` against `b`'s three edges on two fixed
/// Point[9] arrays, so it never touches the heap. It runs
/// ClipRingToHalfPlane's and RingArea's arithmetic in the same order,
/// so it equals ConvexIntersectionArea on the two 3-vertex rings bit
/// for bit.
double TriangleIntersectionArea(const SignedTriangle& a,
                                const SignedTriangle& b);

/// The cached-fan core of IntersectionArea: both polygons arrive as
/// precomputed signed fans with per-triangle bboxes (`SignedFan` +
/// `FanBBoxes`), and every bbox-overlapping triangle pair goes through
/// TriangleIntersectionArea. Arithmetic, pruning, and accumulation
/// order are exactly those of IntersectionArea, so the result is
/// bit-identical — the overlay engine leans on this to reuse fans
/// across candidate pairs. Callers are responsible for the
/// polygon-bounds prune that IntersectionArea performs up front.
double IntersectionAreaPrepared(const SignedTriangle* fan_a,
                                const BBox* boxes_a, size_t size_a,
                                const SignedTriangle* fan_b,
                                const BBox* boxes_b, size_t size_b);

}  // namespace geoalign::geom

#endif  // GEOALIGN_GEOM_BOOLEAN_OPS_H_
