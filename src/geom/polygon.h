#ifndef GEOALIGN_GEOM_POLYGON_H_
#define GEOALIGN_GEOM_POLYGON_H_

#include <vector>

#include "common/status.h"
#include "geom/bbox.h"
#include "geom/point.h"

namespace geoalign::geom {

/// A ring is an implicitly closed sequence of vertices (the closing
/// edge from back() to front() is not stored). Outer rings are
/// counter-clockwise by convention; holes clockwise.
using Ring = std::vector<Point>;

/// Signed shoelace area of a ring (positive for counter-clockwise).
double SignedRingArea(const Ring& ring);

/// |SignedRingArea|.
double RingArea(const Ring& ring);

/// Reverses orientation in place.
void ReverseRing(Ring& ring);

/// Centroid of the region enclosed by the ring (area-weighted);
/// returns the vertex mean for degenerate (zero-area) rings.
Point RingCentroid(const Ring& ring);

/// Simple polygon with optional holes.
class Polygon {
 public:
  Polygon() = default;
  /// Takes the outer ring; orientation is normalized to CCW.
  explicit Polygon(Ring outer);

  /// Validates basic structure: outer ring with >= 3 vertices and
  /// nonzero area; each hole >= 3 vertices. (Self-intersection is not
  /// checked; inputs are expected to be simple.)
  static Result<Polygon> Create(Ring outer, std::vector<Ring> holes = {});

  /// Axis-aligned rectangle polygon.
  static Polygon FromBBox(const BBox& box);

  /// Convex regular n-gon around `center` (n >= 3).
  static Polygon RegularNgon(const Point& center, double radius, int n,
                             double phase = 0.0);

  const Ring& outer() const { return outer_; }
  const std::vector<Ring>& holes() const { return holes_; }

  /// Area of outer ring minus holes.
  double Area() const;

  /// Area-weighted centroid (holes subtracted).
  Point Centroid() const;

  /// Bounding box of the outer ring.
  const BBox& Bounds() const { return bounds_; }

  /// True if p is inside (on-boundary counts as inside) the outer ring
  /// and outside every hole.
  bool Contains(const Point& p) const;

  /// Number of vertices over all rings.
  size_t VertexCount() const;

 private:
  Ring outer_;
  std::vector<Ring> holes_;
  BBox bounds_;
};

}  // namespace geoalign::geom

#endif  // GEOALIGN_GEOM_POLYGON_H_
