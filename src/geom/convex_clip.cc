#include "geom/convex_clip.h"

#include <utility>

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

Ring ClipRingToHalfPlane(const Ring& subject, const HalfPlane& hp) {
  Ring out;
  size_t n = subject.size();
  if (n == 0) return out;
  out.reserve(n + 2);
  ClipRingToHalfPlaneInto(subject, hp, &out);
  return out;
}

// The one Sutherland–Hodgman half-plane step. Every clipping path in
// the tree funnels through this loop, so the arithmetic (and with it
// the bit pattern of every intersection vertex) is decided in exactly
// one place.
// GEOALIGN_HOT_LOOP_BEGIN (overlay clipping: no heap growth when the
// caller Reserved enough capacity)
void ClipRingToHalfPlaneInto(const Ring& subject, const HalfPlane& hp,
                             Ring* out) {
  out->clear();
  size_t n = subject.size();
  if (n == 0) return;
  // Each vertex's signed distance is computed exactly once and carried
  // to the next iteration — the same expression the two-evaluations
  // version computed, so every emitted vertex is bit-identical.
  const double d0 = Dot(hp.normal, subject[0]) - hp.offset;
  double dc = d0;
  for (size_t i = 0; i < n; ++i) {
    const Point& cur = subject[i];
    const Point& nxt = i + 1 < n ? subject[i + 1] : subject[0];
    double dn = i + 1 < n ? Dot(hp.normal, nxt) - hp.offset : d0;
    bool cur_in = dc <= 0.0;
    bool nxt_in = dn <= 0.0;
    // Capacity comes from ClipScratch::Reserve (or the reserve in
    // ClipRingToHalfPlane); a short reservation only costs a growth,
    // never correctness.
    if (cur_in) out->push_back(cur);  // NOLINT(geoalign-hot-alloc)
    if (cur_in != nxt_in) {
      double t = dc / (dc - dn);
      out->push_back({cur.x + t * (nxt.x - cur.x),  // NOLINT(geoalign-hot-alloc)
                      cur.y + t * (nxt.y - cur.y)});
    }
    dc = dn;
  }
}
// GEOALIGN_HOT_LOOP_END

Ring ClipRingToConvex(const Ring& subject, const Ring& convex_clip) {
  Ring out = subject;
  size_t n = convex_clip.size();
  // Below 3 vertices no later half-plane can recover positive area;
  // stop (mirrored by ConvexIntersectionAreaWith so the scratch and
  // allocating variants stay bit-identical).
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

void ClipScratch::Reserve(size_t max_vertices) {
  // Capacity beyond the request absorbs the odd extra intersection
  // vertex a degenerate subject can produce.
  if (ping.capacity() < max_vertices) ping.reserve(max_vertices);
  if (pong.capacity() < max_vertices) pong.reserve(max_vertices);
}

double ConvexIntersectionAreaWith(const Ring& a, const Ring& b,
                                  ClipScratch* scratch) {
  if (a.size() < 3 || b.size() < 3) return 0.0;
  // Same clip sequence as ClipRingToConvex, ping/pong instead of a
  // fresh ring per half-plane.
  // GEOALIGN_HOT_LOOP_BEGIN (overlay clipping: assign within reserved
  // capacity)
  scratch->ping.assign(a.begin(), a.end());  // NOLINT(geoalign-hot-alloc)
  size_t n = b.size();
  for (size_t i = 0; i < n && scratch->ping.size() >= 3; ++i) {
    const Point& p = b[i];
    const Point& q = i + 1 < n ? b[i + 1] : b[0];
    HalfPlane hp;
    hp.normal = {q.y - p.y, p.x - q.x};
    hp.offset = Dot(hp.normal, p);
    ClipRingToHalfPlaneInto(scratch->ping, hp, &scratch->pong);
    std::swap(scratch->ping, scratch->pong);
  }
  // GEOALIGN_HOT_LOOP_END
  if (scratch->ping.size() < 3) return 0.0;
  return RingArea(scratch->ping);
}

}  // namespace geoalign::geom
