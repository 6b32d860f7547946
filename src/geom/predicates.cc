#include "geom/predicates.h"

#include <algorithm>
#include <cmath>

#include "common/float_eq.h"

namespace geoalign::geom {

double Orient2d(const Point& a, const Point& b, const Point& c) {
  return Cross(b - a, c - a);
}

bool PointOnSegment(const Point& p, const Point& a, const Point& b,
                    double tol) {
  if (std::fabs(Orient2d(a, b, p)) > tol) return false;
  return p.x >= std::min(a.x, b.x) - tol && p.x <= std::max(a.x, b.x) + tol &&
         p.y >= std::min(a.y, b.y) - tol && p.y <= std::max(a.y, b.y) + tol;
}

namespace {

enum class RingSide { kOutside, kBoundary, kInside };

// One pass over the edges: each edge first takes the boundary test
// (PointOnSegment at 1e-12), then the crossing-number toggle. Any
// boundary edge decides at once, so the answer is the same as a full
// boundary scan followed by a full crossing count.
RingSide ClassifyPointInRing(const Point& p, const Ring& ring) {
  bool inside = false;
  size_t n = ring.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = ring[i];
    const Point& b = ring[j];
    if (PointOnSegment(p, b, a, 1e-12)) return RingSide::kBoundary;
    // Half-open rule on y avoids double-counting vertices.
    if ((a.y > p.y) != (b.y > p.y)) {
      double x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside ? RingSide::kInside : RingSide::kOutside;
}

}  // namespace

bool PointInRing(const Point& p, const Ring& ring) {
  if (ring.size() < 3) return false;
  return ClassifyPointInRing(p, ring) != RingSide::kOutside;
}

bool PointStrictlyInRing(const Point& p, const Ring& ring) {
  if (ring.size() < 3) return false;
  return ClassifyPointInRing(p, ring) == RingSide::kInside;
}

std::optional<Point> SegmentIntersection(const Point& a, const Point& b,
                                         const Point& c, const Point& d) {
  Point r = b - a;
  Point s = d - c;
  double denom = Cross(r, s);
  Point qp = c - a;
  if (ExactlyZero(denom)) {
    // Parallel. Collinear overlap?
    if (!ExactlyZero(Cross(qp, r))) return std::nullopt;
    double rr = Dot(r, r);
    if (ExactlyZero(rr)) {
      // a == b degenerate segment.
      if (PointOnSegment(a, c, d)) return a;
      return std::nullopt;
    }
    double t0 = Dot(qp, r) / rr;
    double t1 = t0 + Dot(s, r) / rr;
    double lo = std::min(t0, t1);
    double hi = std::max(t0, t1);
    if (hi < 0.0 || lo > 1.0) return std::nullopt;
    double t = std::max(0.0, lo);
    return Point{a.x + t * r.x, a.y + t * r.y};
  }
  double t = Cross(qp, s) / denom;
  double u = Cross(qp, r) / denom;
  if (t < 0.0 || t > 1.0 || u < 0.0 || u > 1.0) return std::nullopt;
  return Point{a.x + t * r.x, a.y + t * r.y};
}

double PointSegmentDistance(const Point& p, const Point& a, const Point& b) {
  Point ab = b - a;
  double len2 = Dot(ab, ab);
  if (ExactlyZero(len2)) return Distance(p, a);
  double t = std::clamp(Dot(p - a, ab) / len2, 0.0, 1.0);
  Point proj{a.x + t * ab.x, a.y + t * ab.y};
  return Distance(p, proj);
}

}  // namespace geoalign::geom
