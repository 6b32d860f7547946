#include "geom/point.h"

namespace geoalign::geom {

double Distance(const Point& a, const Point& b) {
  return std::sqrt(DistanceSquared(a, b));
}

double DistanceSquared(const Point& a, const Point& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

Point Midpoint(const Point& a, const Point& b) {
  return {(a.x + b.x) * 0.5, (a.y + b.y) * 0.5};
}

}  // namespace geoalign::geom
