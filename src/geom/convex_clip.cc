#include "geom/convex_clip.h"

#include "common/logging.h"
#include "geom/predicates.h"

namespace geoalign::geom {

HalfPlane HalfPlane::Bisector(const Point& a, const Point& b) {
  GEOALIGN_DCHECK(a != b);
  // dot(b - a, p) <= dot(b - a, midpoint) keeps the side nearer to a.
  HalfPlane hp;
  hp.normal = b - a;
  hp.offset = Dot(hp.normal, Midpoint(a, b));
  return hp;
}

// The Sutherland–Hodgman half-plane step. geom::TriangleIntersectionArea
// replays this arithmetic in this order on fixed arrays, so the two
// agree bit for bit on triangles.
Ring ClipRingToHalfPlane(const Ring& subject, const HalfPlane& hp) {
  Ring out;
  size_t n = subject.size();
  if (n == 0) return out;
  out.reserve(n + 2);
  // Each vertex's signed distance is computed once and carried to the
  // next iteration.
  const double d0 = Dot(hp.normal, subject[0]) - hp.offset;
  double dc = d0;
  for (size_t i = 0; i < n; ++i) {
    const Point& cur = subject[i];
    const Point& nxt = i + 1 < n ? subject[i + 1] : subject[0];
    double dn = i + 1 < n ? Dot(hp.normal, nxt) - hp.offset : d0;
    bool cur_in = dc <= 0.0;
    bool nxt_in = dn <= 0.0;
    if (cur_in) out.push_back(cur);
    if (cur_in != nxt_in) {
      double t = dc / (dc - dn);
      out.push_back(
          {cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y)});
    }
    dc = dn;
  }
  return out;
}

Ring ClipRingToConvex(const Ring& subject, const Ring& convex_clip) {
  Ring out = subject;
  size_t n = convex_clip.size();
  // Below 3 vertices no later half-plane can recover positive area;
  // stop (TriangleIntersectionArea stops at the same point).
  for (size_t i = 0; i < n && out.size() >= 3; ++i) {
    const Point& a = convex_clip[i];
    const Point& b = convex_clip[(i + 1) % n];
    // For a CCW convex ring the interior is to the left of each edge:
    // cross(b - a, p - a) >= 0, i.e. dot(normal, p) <= offset with
    // normal = (dy, -dx).
    HalfPlane hp;
    hp.normal = {b.y - a.y, a.x - b.x};
    hp.offset = Dot(hp.normal, a);
    out = ClipRingToHalfPlane(out, hp);
  }
  return out;
}

double ConvexIntersectionArea(const Ring& a, const Ring& b) {
  if (a.size() < 3 || b.size() < 3) return 0.0;
  Ring clipped = ClipRingToConvex(a, b);
  if (clipped.size() < 3) return 0.0;
  return RingArea(clipped);
}

}  // namespace geoalign::geom
