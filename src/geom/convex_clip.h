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

/// Allocation-free variant: clears `*out` and appends the clipped
/// ring. Identical arithmetic (and therefore bit-identical output) to
/// ClipRingToHalfPlane; reuses out's capacity, growing it only when
/// the result cannot fit. `out` must not alias `subject`.
void ClipRingToHalfPlaneInto(const Ring& subject, const HalfPlane& hp,
                             Ring* out);

/// Sutherland–Hodgman: clips `subject` (any simple ring) against a
/// CONVEX clip ring given in counter-clockwise order. Exact for convex
/// `subject`; for non-convex subjects the classic caveat applies
/// (output may contain zero-width bridges but its area is correct).
Ring ClipRingToConvex(const Ring& subject, const Ring& convex_clip);

/// Area of the intersection of two CONVEX rings.
double ConvexIntersectionArea(const Ring& a, const Ring& b);

/// Reusable ping/pong rings for the allocation-free clipping path.
/// One scratch serves one clip at a time; overlay workers each own one
/// (inside a FanScratch) and Reserve it once, so steady-state clipping
/// never touches the heap.
struct ClipScratch {
  Ring ping;
  Ring pong;

  /// Pre-grows both rings for subjects/clips of up to `max_vertices`
  /// vertices each (a subject of n vertices clipped by m half-planes
  /// has at most n + m vertices). Monotonic.
  void Reserve(size_t max_vertices);
};

/// Allocation-free ConvexIntersectionArea: same arithmetic in the same
/// order (bit-identical result), with every intermediate ring drawn
/// from `scratch` instead of freshly allocated. The subject ring `a`
/// is copied into the scratch, so `a`/`b` may be long-lived geometry.
double ConvexIntersectionAreaWith(const Ring& a, const Ring& b,
                                  ClipScratch* scratch);

}  // namespace geoalign::geom

#endif  // GEOALIGN_GEOM_CONVEX_CLIP_H_
