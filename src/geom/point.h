#ifndef GEOALIGN_GEOM_POINT_H_
#define GEOALIGN_GEOM_POINT_H_

#include <cmath>

namespace geoalign::geom {

/// 2-D point / vector with double coordinates.
struct Point {
  double x = 0.0;
  double y = 0.0;

  Point() = default;
  Point(double px, double py) : x(px), y(py) {}

  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  Point operator*(double s) const { return {x * s, y * s}; }

  bool operator==(const Point& o) const { return x == o.x && y == o.y; }
  bool operator!=(const Point& o) const { return !(*this == o); }
};

/// Dot product of vectors a and b. Inline: the overlay's triangle
/// clip evaluates it once per vertex per edge.
inline double Dot(const Point& a, const Point& b) {
  return a.x * b.x + a.y * b.y;
}

/// Z-component of the cross product a x b. Inline: the point-in-ring
/// test evaluates it once per edge.
inline double Cross(const Point& a, const Point& b) {
  return a.x * b.y - a.y * b.x;
}

/// Euclidean distance.
double Distance(const Point& a, const Point& b);

/// Squared Euclidean distance (no sqrt).
double DistanceSquared(const Point& a, const Point& b);

/// Midpoint of segment ab.
Point Midpoint(const Point& a, const Point& b);

}  // namespace geoalign::geom

#endif  // GEOALIGN_GEOM_POINT_H_
