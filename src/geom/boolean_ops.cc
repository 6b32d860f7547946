#include "geom/boolean_ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/float_eq.h"
#include "common/logging.h"
#include "geom/predicates.h"

namespace geoalign::geom {

namespace {

// Appends the signed fan of one ring. `ring_sign` is +1 for outer
// rings, -1 for holes; the per-triangle sign additionally flips with
// the triangle's own orientation so the decomposition telescopes to
// the ring's winding number.
void AppendRingFan(const Ring& ring, double ring_sign,
                   std::vector<SignedTriangle>* out) {
  if (ring.size() < 3) return;
  // Ensure we fan a CCW version so ring_sign semantics are uniform.
  const Point& origin = ring[0];
  double orient = SignedRingArea(ring) >= 0.0 ? 1.0 : -1.0;
  for (size_t i = 1; i + 1 < ring.size(); ++i) {
    Point p = ring[i];
    Point q = ring[i + 1];
    double tri_signed = Orient2d(origin, p, q);
    if (ExactlyZero(tri_signed)) continue;
    SignedTriangle t;
    t.sign = ring_sign * orient * (tri_signed > 0.0 ? 1.0 : -1.0);
    if (tri_signed > 0.0) {
      t.a = origin;
      t.b = p;
      t.c = q;
    } else {
      t.a = origin;
      t.b = q;
      t.c = p;
    }
    out->push_back(t);
  }
}

}  // namespace

void SignedFan(const Polygon& poly, std::vector<SignedTriangle>* out) {
  AppendRingFan(poly.outer(), 1.0, out);
  for (const Ring& hole : poly.holes()) {
    AppendRingFan(hole, -1.0, out);
  }
}

void FanBBoxes(const std::vector<SignedTriangle>& fan,
               std::vector<BBox>* out) {
  for (const SignedTriangle& t : fan) {
    BBox box;
    box.Expand(t.a);
    box.Expand(t.b);
    box.Expand(t.c);
    out->push_back(box);
  }
}

double TriangleIntersectionArea(const SignedTriangle& a,
                                const SignedTriangle& b) {
  // One half-plane step emits (#inside + #sign changes) vertices. Each
  // sign change pairs an inside vertex with an outside one, so that is
  // at most floor(1.5 n): a triangle grows at most 3 -> 4 -> 6 -> 9.
  // Both buffers list their first slots, so the compiler fills the
  // rest with plain stores: a fully default-constructed Point[9]
  // compiles to `rep stos`, which cost about a tenth of a clip.
  constexpr size_t kMaxVertices = 9;
  Point ping[kMaxVertices] = {a.a, a.b, a.c};
  Point pong[kMaxVertices] = {a.a, a.b, a.c};
  Point* ring = ping;
  Point* next = pong;
  size_t n = 3;
  const Point clip[3] = {b.a, b.b, b.c};
  // GEOALIGN_HOT_LOOP_BEGIN (overlay triangle clip: fixed arrays only)
  for (size_t e = 0; e < 3 && n >= 3; ++e) {
    // ClipRingToConvex's half-plane of edge pq, then ClipRingToHalfPlane.
    const Point& p = clip[e];
    const Point& q = clip[e + 1 < 3 ? e + 1 : 0];
    const Point normal{q.y - p.y, p.x - q.x};
    const double offset = Dot(normal, p);
    const double d0 = Dot(normal, ring[0]) - offset;
    double dc = d0;
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      const Point& cur = ring[i];
      const Point& nxt = i + 1 < n ? ring[i + 1] : ring[0];
      const double dn = i + 1 < n ? Dot(normal, nxt) - offset : d0;
      const bool cur_in = dc <= 0.0;
      const bool nxt_in = dn <= 0.0;
      if (cur_in) next[m++] = cur;
      if (cur_in != nxt_in) {
        const double t = dc / (dc - dn);
        next[m++] = {cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y)};
      }
      dc = dn;
    }
    GEOALIGN_DCHECK(m <= n + n / 2);
    std::swap(ring, next);
    n = m;
  }
  // GEOALIGN_HOT_LOOP_END
  if (n < 3) return 0.0;
  // RingArea: the shoelace sum from +0.0, halved, then its magnitude.
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Point& p = ring[i];
    const Point& q = i + 1 < n ? ring[i + 1] : ring[0];
    acc += p.x * q.y - q.x * p.y;
  }
  return std::fabs(acc * 0.5);
}

double IntersectionAreaPrepared(const SignedTriangle* fan_a,
                                const BBox* boxes_a, size_t size_a,
                                const SignedTriangle* fan_b,
                                const BBox* boxes_b, size_t size_b) {
  double acc = 0.0;
  // GEOALIGN_HOT_LOOP_BEGIN (overlay tri×tri loop: no heap)
  for (size_t i = 0; i < size_a; ++i) {
    const SignedTriangle& ta = fan_a[i];
    const BBox& ba = boxes_a[i];
    for (size_t j = 0; j < size_b; ++j) {
      if (!ba.Intersects(boxes_b[j])) continue;
      const SignedTriangle& tb = fan_b[j];
      double inter = TriangleIntersectionArea(ta, tb);
      if (inter > 0.0) acc += ta.sign * tb.sign * inter;
    }
  }
  // GEOALIGN_HOT_LOOP_END
  return std::max(acc, 0.0);
}

double IntersectionArea(const Polygon& a, const Polygon& b) {
  if (!a.Bounds().Intersects(b.Bounds())) return 0.0;
  std::vector<SignedTriangle> fa;
  std::vector<SignedTriangle> fb;
  SignedFan(a, &fa);
  SignedFan(b, &fb);
  std::vector<BBox> ba;
  std::vector<BBox> bb;
  FanBBoxes(fa, &ba);
  FanBBoxes(fb, &bb);
  return IntersectionAreaPrepared(fa.data(), ba.data(), fa.size(), fb.data(),
                                  bb.data(), fb.size());
}

double UnionArea(const Polygon& a, const Polygon& b) {
  return a.Area() + b.Area() - IntersectionArea(a, b);
}

double DifferenceArea(const Polygon& a, const Polygon& b) {
  return std::max(a.Area() - IntersectionArea(a, b), 0.0);
}

double SymmetricDifferenceArea(const Polygon& a, const Polygon& b) {
  return std::max(a.Area() + b.Area() - 2.0 * IntersectionArea(a, b), 0.0);
}

}  // namespace geoalign::geom
