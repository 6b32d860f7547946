#ifndef GEOALIGN_GEOM_CONVEX_CLIP_H_
#define GEOALIGN_GEOM_CONVEX_CLIP_H_

#include "geom/polygon.h"

namespace geoalign::geom {

/// A half-plane {p : dot(normal, p) <= offset}. The boundary line is
/// dot(normal, p) == offset; points on it are kept by clipping.
struct HalfPlane {
  Point normal;
  double offset = 0.0;

  /// The half-plane of points at least as close to `a` as to `b`
  /// (the Voronoi bisector constraint). Requires a != b.
  static HalfPlane Bisector(const Point& a, const Point& b);

  bool Contains(const Point& p, double tol = 0.0) const {
    return Dot(normal, p) <= offset + tol;
  }
};

/// Clips `subject` (any simple ring) to the half-plane. The result may
/// be empty or degenerate; callers should check RingArea.
Ring ClipRingToHalfPlane(const Ring& subject, const HalfPlane& hp);

/// Sutherland–Hodgman: clips `subject` (any simple ring) against a
/// CONVEX clip ring given in counter-clockwise order. Exact for convex
/// `subject`; for non-convex subjects the classic caveat applies
/// (output may contain zero-width bridges but its area is correct).
Ring ClipRingToConvex(const Ring& subject, const Ring& convex_clip);

/// Area of the intersection of two CONVEX rings. On two triangles it
/// is the reference that geom::TriangleIntersectionArea, the overlay's
/// heap-free kernel, must match bit for bit (tests/geom_test.cc).
double ConvexIntersectionArea(const Ring& a, const Ring& b);

}  // namespace geoalign::geom

#endif  // GEOALIGN_GEOM_CONVEX_CLIP_H_
