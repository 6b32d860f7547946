#include "geom/polygon.h"

#include <cmath>

#include "geom/predicates.h"
#include "common/float_eq.h"

namespace geoalign::geom {

double SignedRingArea(const Ring& ring) {
  double acc = 0.0;
  size_t n = ring.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& a = ring[i];
    // Conditional wrap instead of % n: no integer division in a loop
    // the overlay clip runs once per candidate pair.
    const Point& b = i + 1 < n ? ring[i + 1] : ring[0];
    acc += a.x * b.y - b.x * a.y;
  }
  return acc * 0.5;
}

double RingArea(const Ring& ring) { return std::fabs(SignedRingArea(ring)); }

void ReverseRing(Ring& ring) {
  for (size_t i = 1, j = ring.size() - 1; i < j; ++i, --j) {
    std::swap(ring[i], ring[j]);
  }
}

Point RingCentroid(const Ring& ring) {
  double a = SignedRingArea(ring);
  size_t n = ring.size();
  if (std::fabs(a) < 1e-300 || n == 0) {
    Point mean;
    for (const Point& p : ring) {
      mean.x += p.x;
      mean.y += p.y;
    }
    if (n > 0) {
      mean.x /= static_cast<double>(n);
      mean.y /= static_cast<double>(n);
    }
    return mean;
  }
  double cx = 0.0;
  double cy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Point& p = ring[i];
    const Point& q = ring[(i + 1) % n];
    double w = p.x * q.y - q.x * p.y;
    cx += (p.x + q.x) * w;
    cy += (p.y + q.y) * w;
  }
  return {cx / (6.0 * a), cy / (6.0 * a)};
}

Polygon::Polygon(Ring outer) : outer_(std::move(outer)) {
  if (SignedRingArea(outer_) < 0.0) ReverseRing(outer_);
  for (const Point& p : outer_) bounds_.Expand(p);
}

Result<Polygon> Polygon::Create(Ring outer, std::vector<Ring> holes) {
  if (outer.size() < 3) {
    return Status::InvalidArgument("Polygon: outer ring needs >= 3 vertices");
  }
  if (ExactlyZero(RingArea(outer))) {
    return Status::InvalidArgument("Polygon: outer ring has zero area");
  }
  Polygon poly(std::move(outer));
  for (Ring& hole : holes) {
    if (hole.size() < 3) {
      return Status::InvalidArgument("Polygon: hole needs >= 3 vertices");
    }
    // Holes are clockwise by convention.
    if (SignedRingArea(hole) > 0.0) ReverseRing(hole);
    poly.holes_.push_back(std::move(hole));
  }
  return poly;
}

Polygon Polygon::FromBBox(const BBox& box) {
  Ring r = {{box.min_x, box.min_y},
            {box.max_x, box.min_y},
            {box.max_x, box.max_y},
            {box.min_x, box.max_y}};
  return Polygon(std::move(r));
}

Polygon Polygon::RegularNgon(const Point& center, double radius, int n,
                             double phase) {
  Ring r;
  r.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double t = phase + 2.0 * M_PI * i / n;
    r.push_back({center.x + radius * std::cos(t),
                 center.y + radius * std::sin(t)});
  }
  return Polygon(std::move(r));
}

double Polygon::Area() const {
  double a = RingArea(outer_);
  for (const Ring& h : holes_) a -= RingArea(h);
  return a;
}

Point Polygon::Centroid() const {
  double total_area = RingArea(outer_);
  Point c = RingCentroid(outer_);
  double cx = c.x * total_area;
  double cy = c.y * total_area;
  for (const Ring& h : holes_) {
    double ha = RingArea(h);
    Point hc = RingCentroid(h);
    cx -= hc.x * ha;
    cy -= hc.y * ha;
    total_area -= ha;
  }
  if (total_area <= 0.0) return RingCentroid(outer_);
  return {cx / total_area, cy / total_area};
}

bool Polygon::Contains(const Point& p) const {
  if (!bounds_.Contains(p)) return false;
  if (!PointInRing(p, outer_)) return false;
  for (const Ring& h : holes_) {
    if (PointStrictlyInRing(p, h)) return false;
  }
  return true;
}

size_t Polygon::VertexCount() const {
  size_t n = outer_.size();
  for (const Ring& h : holes_) n += h.size();
  return n;
}

}  // namespace geoalign::geom
