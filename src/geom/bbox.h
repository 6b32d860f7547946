#ifndef GEOALIGN_GEOM_BBOX_H_
#define GEOALIGN_GEOM_BBOX_H_

#include <limits>

#include "geom/point.h"

namespace geoalign::geom {

/// Axis-aligned bounding box. A default-constructed box is empty
/// (min > max) and absorbs points/boxes via Expand.
struct BBox {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  BBox() = default;
  BBox(double x0, double y0, double x1, double y1)
      : min_x(x0), min_y(y0), max_x(x1), max_y(y1) {}

  /// True when the box contains no points.
  bool Empty() const { return min_x > max_x || min_y > max_y; }

  /// Grows to cover p / other.
  void Expand(const Point& p);
  void Expand(const BBox& other);

  /// Closed-interval containment.
  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  /// True when the closed boxes share at least one point.
  bool Intersects(const BBox& other) const {
    if (Empty() || other.Empty()) return false;
    return min_x <= other.max_x && other.min_x <= max_x &&
           min_y <= other.max_y && other.min_y <= max_y;
  }

  /// Geometric intersection (may be empty).
  BBox Intersection(const BBox& other) const;

  /// Width * height; 0 for empty boxes.
  double Area() const;

  /// Center point (undefined for empty boxes).
  Point Center() const { return {(min_x + max_x) / 2, (min_y + max_y) / 2}; }

  double width() const { return Empty() ? 0.0 : max_x - min_x; }
  double height() const { return Empty() ? 0.0 : max_y - min_y; }
};

}  // namespace geoalign::geom

#endif  // GEOALIGN_GEOM_BBOX_H_
