#ifndef GEOALIGN_GEOM_PREDICATES_H_
#define GEOALIGN_GEOM_PREDICATES_H_

#include <optional>

#include "geom/point.h"
#include "geom/polygon.h"

namespace geoalign::geom {

/// Orientation of c relative to the directed line a->b:
/// > 0 left (counter-clockwise), < 0 right, == 0 collinear.
double Orient2d(const Point& a, const Point& b, const Point& c);

/// True if p lies on the closed segment [a, b].
bool PointOnSegment(const Point& p, const Point& a, const Point& b,
                    double tol = 0.0);

/// Point-in-ring test (crossing number); points on the boundary count
/// as inside. The ring may have either orientation.
bool PointInRing(const Point& p, const Ring& ring);

/// Strict interior test: boundary points count as outside.
bool PointStrictlyInRing(const Point& p, const Ring& ring);

/// Proper + improper intersection of closed segments [a,b] and [c,d].
/// Returns a representative intersection point, or nullopt when the
/// segments are disjoint. For overlapping collinear segments an
/// endpoint of the overlap is returned.
std::optional<Point> SegmentIntersection(const Point& a, const Point& b,
                                         const Point& c, const Point& d);

/// Distance from p to the closed segment [a, b].
double PointSegmentDistance(const Point& p, const Point& a, const Point& b);

}  // namespace geoalign::geom

#endif  // GEOALIGN_GEOM_PREDICATES_H_
