// Unit tests for the geometry substrate: primitives, predicates,
// clipping, boolean-op areas, Voronoi, WKT.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/float_eq.h"
#include "common/random.h"
#include "geom/bbox.h"
#include "geom/boolean_ops.h"
#include "geom/convex_clip.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/predicates.h"
#include "geom/voronoi.h"
#include "geom/wkt.h"

namespace geoalign::geom {
namespace {

TEST(Point, BasicOps) {
  Point a{1.0, 2.0};
  Point b{4.0, 6.0};
  EXPECT_EQ(a + b, (Point{5.0, 8.0}));
  EXPECT_EQ(b - a, (Point{3.0, 4.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(Dot(a, b), 16.0);
  EXPECT_DOUBLE_EQ(Cross(a, b), 6.0 - 8.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(DistanceSquared(a, b), 25.0);
  EXPECT_EQ(Midpoint(a, b), (Point{2.5, 4.0}));
}

TEST(BBox, EmptyAndExpand) {
  BBox box;
  EXPECT_TRUE(box.Empty());
  box.Expand(Point{1.0, 2.0});
  EXPECT_FALSE(box.Empty());
  EXPECT_DOUBLE_EQ(box.Area(), 0.0);
  box.Expand(Point{3.0, 5.0});
  EXPECT_DOUBLE_EQ(box.Area(), 6.0);
  EXPECT_TRUE(box.Contains({2.0, 3.0}));
  EXPECT_FALSE(box.Contains({0.0, 3.0}));
}

TEST(BBox, IntersectionSemantics) {
  BBox a(0, 0, 2, 2);
  BBox b(1, 1, 3, 3);
  EXPECT_TRUE(a.Intersects(b));
  BBox inter = a.Intersection(b);
  EXPECT_DOUBLE_EQ(inter.Area(), 1.0);
  BBox c(5, 5, 6, 6);
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Intersection(c).Empty());
  // Touching boxes intersect (closed semantics).
  BBox d(2, 0, 3, 2);
  EXPECT_TRUE(a.Intersects(d));
}

TEST(Ring, ShoelaceArea) {
  Ring ccw = {{0, 0}, {2, 0}, {2, 1}, {0, 1}};
  EXPECT_DOUBLE_EQ(SignedRingArea(ccw), 2.0);
  Ring cw = ccw;
  ReverseRing(cw);
  EXPECT_DOUBLE_EQ(SignedRingArea(cw), -2.0);
  EXPECT_DOUBLE_EQ(RingArea(cw), 2.0);
}

TEST(Ring, CentroidOfSquare) {
  Ring square = {{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  Point c = RingCentroid(square);
  EXPECT_NEAR(c.x, 1.0, 1e-12);
  EXPECT_NEAR(c.y, 1.0, 1e-12);
}

TEST(Polygon, NormalizesOrientationAndArea) {
  Ring cw = {{0, 0}, {0, 1}, {1, 1}, {1, 0}};  // clockwise square
  Polygon p(cw);
  EXPECT_GT(SignedRingArea(p.outer()), 0.0);  // normalized to CCW
  EXPECT_DOUBLE_EQ(p.Area(), 1.0);
}

TEST(Polygon, CreateValidates) {
  EXPECT_FALSE(Polygon::Create({{0, 0}, {1, 0}}).ok());
  EXPECT_FALSE(Polygon::Create({{0, 0}, {1, 1}, {2, 2}}).ok());  // zero area
  EXPECT_TRUE(Polygon::Create({{0, 0}, {1, 0}, {0, 1}}).ok());
}

TEST(Polygon, HoleReducesAreaAndContains) {
  Ring outer = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  Ring hole = {{1, 1}, {3, 1}, {3, 3}, {1, 3}};
  auto p = Polygon::Create(outer, {hole});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p->Area(), 16.0 - 4.0);
  EXPECT_TRUE(p->Contains({0.5, 0.5}));
  EXPECT_FALSE(p->Contains({2.0, 2.0}));  // inside the hole
  EXPECT_TRUE(p->Contains({2.0, 1.0}));   // on hole boundary
}

TEST(Polygon, RegularNgonAreaConvergesToCircle) {
  Polygon hex = Polygon::RegularNgon({0, 0}, 1.0, 6);
  EXPECT_NEAR(hex.Area(), 6.0 * std::sqrt(3.0) / 4.0, 1e-12);
  Polygon many = Polygon::RegularNgon({0, 0}, 1.0, 256);
  EXPECT_NEAR(many.Area(), M_PI, 1e-3);
}

TEST(Polygon, FromBBox) {
  Polygon p = Polygon::FromBBox(BBox(1, 2, 4, 6));
  EXPECT_DOUBLE_EQ(p.Area(), 12.0);
  EXPECT_TRUE(p.Contains({2.0, 3.0}));
}

TEST(Predicates, Orient2d) {
  EXPECT_GT(Orient2d({0, 0}, {1, 0}, {0, 1}), 0.0);
  EXPECT_LT(Orient2d({0, 0}, {1, 0}, {0, -1}), 0.0);
  EXPECT_DOUBLE_EQ(Orient2d({0, 0}, {1, 1}, {2, 2}), 0.0);
}

TEST(Predicates, PointOnSegment) {
  EXPECT_TRUE(PointOnSegment({1, 1}, {0, 0}, {2, 2}));
  EXPECT_FALSE(PointOnSegment({3, 3}, {0, 0}, {2, 2}));
  EXPECT_FALSE(PointOnSegment({1, 1.01}, {0, 0}, {2, 2}));
}

TEST(Predicates, PointInRingBoundaryCounts) {
  Ring square = {{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  EXPECT_TRUE(PointInRing({1, 1}, square));
  EXPECT_TRUE(PointInRing({0, 1}, square));    // boundary
  EXPECT_TRUE(PointInRing({0, 0}, square));    // vertex
  EXPECT_FALSE(PointInRing({3, 1}, square));
  EXPECT_FALSE(PointStrictlyInRing({0, 1}, square));
  EXPECT_TRUE(PointStrictlyInRing({1, 1}, square));

  // Horizontal edges never toggle the crossing count; only the
  // boundary test catches points on them.
  EXPECT_TRUE(PointInRing({1, 0}, square));
  EXPECT_TRUE(PointInRing({1, 2}, square));
  EXPECT_FALSE(PointStrictlyInRing({1, 0}, square));
  EXPECT_FALSE(PointStrictlyInRing({1, 2}, square));

  // The boundary test allows 1e-12 on the orientation, which on a unit
  // edge is the distance from it.
  Ring unit = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  for (double off : {-0.5e-12, 0.5e-12}) {
    EXPECT_TRUE(PointInRing({0.5, off}, unit)) << off;
    EXPECT_FALSE(PointStrictlyInRing({0.5, off}, unit)) << off;
  }
  EXPECT_FALSE(PointInRing({0.5, -1e-11}, unit));
  EXPECT_FALSE(PointStrictlyInRing({0.5, -1e-11}, unit));
  EXPECT_TRUE(PointInRing({0.5, 1e-11}, unit));
  EXPECT_TRUE(PointStrictlyInRing({0.5, 1e-11}, unit));

  // Fewer than 3 vertices enclose nothing, not even their own edge.
  Ring segment = {{0, 0}, {2, 2}};
  EXPECT_FALSE(PointInRing({1, 1}, segment));
  EXPECT_FALSE(PointStrictlyInRing({1, 1}, segment));
  EXPECT_FALSE(PointInRing({0, 0}, Ring{}));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(PointInRing({nan, 1}, square));
  EXPECT_FALSE(PointInRing({nan, nan}, square));
  EXPECT_FALSE(PointStrictlyInRing({nan, 1}, square));
}

TEST(Predicates, PointInConcaveRing) {
  // A "C" shape.
  Ring c = {{0, 0}, {4, 0}, {4, 1}, {1, 1}, {1, 3}, {4, 3}, {4, 4}, {0, 4}};
  EXPECT_TRUE(PointInRing({0.5, 2.0}, c));
  EXPECT_FALSE(PointInRing({2.5, 2.0}, c));  // in the notch
  EXPECT_TRUE(PointInRing({2.5, 0.5}, c));
}

TEST(Predicates, SegmentIntersectionProper) {
  auto p = SegmentIntersection({0, 0}, {2, 2}, {0, 2}, {2, 0});
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 1.0, 1e-12);
  EXPECT_NEAR(p->y, 1.0, 1e-12);
}

TEST(Predicates, SegmentIntersectionDisjointAndTouching) {
  EXPECT_FALSE(SegmentIntersection({0, 0}, {1, 0}, {0, 1}, {1, 1}));
  auto touch = SegmentIntersection({0, 0}, {1, 0}, {1, 0}, {2, 5});
  ASSERT_TRUE(touch.has_value());
  EXPECT_EQ(touch->x, 1.0);
}

TEST(Predicates, SegmentIntersectionCollinearOverlap) {
  auto p = SegmentIntersection({0, 0}, {4, 0}, {2, 0}, {6, 0});
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(PointOnSegment(*p, {2, 0}, {4, 0}));
  EXPECT_FALSE(SegmentIntersection({0, 0}, {1, 0}, {2, 0}, {3, 0}));
}

TEST(Predicates, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(PointSegmentDistance({0, 1}, {-1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance({3, 0}, {-1, 0}, {1, 0}), 2.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance({5, 5}, {2, 2}, {2, 2}),
                   Distance({5, 5}, {2, 2}));
}

TEST(ConvexClip, HalfPlaneBisector) {
  HalfPlane hp = HalfPlane::Bisector({0, 0}, {2, 0});
  EXPECT_TRUE(hp.Contains({0.5, 7.0}));
  EXPECT_FALSE(hp.Contains({1.5, 7.0}));
  EXPECT_TRUE(hp.Contains({1.0, 0.0}));  // boundary kept
}

TEST(ConvexClip, ClipSquareToHalfPlane) {
  Ring square = {{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  HalfPlane hp = HalfPlane::Bisector({0, 1}, {2, 1});  // keep x <= 1
  Ring clipped = ClipRingToHalfPlane(square, hp);
  EXPECT_NEAR(RingArea(clipped), 2.0, 1e-12);
}

TEST(ConvexClip, DisjointClipIsEmpty) {
  Ring square = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  Ring far = {{5, 5}, {6, 5}, {6, 6}, {5, 6}};
  Ring out = ClipRingToConvex(square, far);
  EXPECT_LT(RingArea(out), 1e-12);
}

TEST(ConvexClip, OverlappingSquares) {
  Ring a = {{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  Ring b = {{1, 1}, {3, 1}, {3, 3}, {1, 3}};
  EXPECT_NEAR(ConvexIntersectionArea(a, b), 1.0, 1e-12);
  // Containment.
  Ring inner = {{0.5, 0.5}, {1.5, 0.5}, {1.5, 1.5}, {0.5, 1.5}};
  EXPECT_NEAR(ConvexIntersectionArea(a, inner), 1.0, 1e-12);
  EXPECT_NEAR(ConvexIntersectionArea(inner, a), 1.0, 1e-12);
}

TEST(ConvexClip, SharedEdgeOnlyHasZeroArea) {
  Ring a = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  Ring b = {{1, 0}, {2, 0}, {2, 1}, {1, 1}};
  EXPECT_NEAR(ConvexIntersectionArea(a, b), 0.0, 1e-12);
}

TEST(BooleanOps, SignedFanCoversPolygon) {
  // Non-convex "arrow": fan triangles must sum (signed) to the area.
  Polygon arrow({{0, 0}, {4, 0}, {4, 4}, {2, 1}, {0, 4}});
  std::vector<SignedTriangle> fan;
  SignedFan(arrow, &fan);
  double total = 0.0;
  for (const SignedTriangle& t : fan) {
    total += t.sign * RingArea({t.a, t.b, t.c});
  }
  EXPECT_NEAR(total, arrow.Area(), 1e-12);
}

TEST(BooleanOps, ConvexIntersectionMatchesClipper) {
  Polygon a({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  Polygon b({{1, -1}, {3, -1}, {3, 1}, {1, 1}});
  EXPECT_NEAR(IntersectionArea(a, b), 1.0, 1e-12);
  EXPECT_NEAR(UnionArea(a, b), 4.0 + 4.0 - 1.0, 1e-12);
  EXPECT_NEAR(DifferenceArea(a, b), 3.0, 1e-12);
  EXPECT_NEAR(SymmetricDifferenceArea(a, b), 6.0, 1e-12);
}

TEST(BooleanOps, NonConvexIntersection) {
  // L-shape vs square covering its notch.
  Polygon l({{0, 0}, {3, 0}, {3, 1}, {1, 1}, {1, 3}, {0, 3}});
  Polygon square({{0.5, 0.5}, {2.5, 0.5}, {2.5, 2.5}, {0.5, 2.5}});
  // Overlap: part of the horizontal arm (x in [0.5,2.5], y in [0.5,1])
  // plus part of the vertical arm (x in [0.5,1], y in [1,2.5]).
  double expected = 2.0 * 0.5 + 0.5 * 1.5;
  EXPECT_NEAR(IntersectionArea(l, square), expected, 1e-12);
}

TEST(BooleanOps, HoleExcludedFromIntersection) {
  Ring outer = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  Ring hole = {{1, 1}, {3, 1}, {3, 3}, {1, 3}};
  Polygon donut = std::move(Polygon::Create(outer, {hole})).ValueOrDie();
  Polygon probe({{1.5, 1.5}, {2.5, 1.5}, {2.5, 2.5}, {1.5, 2.5}});
  EXPECT_NEAR(IntersectionArea(donut, probe), 0.0, 1e-12);
  Polygon spanning({{0.0, 1.5}, {4.0, 1.5}, {4.0, 2.5}, {0.0, 2.5}});
  // The band crosses the donut: only the two side strips remain.
  EXPECT_NEAR(IntersectionArea(donut, spanning), 2.0 * 1.0, 1e-12);
}

TEST(BooleanOps, DisjointPolygons) {
  Polygon a({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  Polygon b({{5, 5}, {6, 5}, {6, 6}, {5, 6}});
  EXPECT_DOUBLE_EQ(IntersectionArea(a, b), 0.0);
  EXPECT_DOUBLE_EQ(UnionArea(a, b), 2.0);
}

TEST(BooleanOps, SelfIntersectionIsOwnArea) {
  Polygon p({{0, 0}, {4, 0}, {4, 4}, {2, 1}, {0, 4}});
  EXPECT_NEAR(IntersectionArea(p, p), p.Area(), 1e-9);
}

// Property: for random convex polygon pairs, inclusion-exclusion and
// monotonicity hold.
class BooleanOpsRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BooleanOpsRandomTest, InclusionExclusionInvariants) {
  Rng rng(900 + GetParam());
  auto random_poly = [&rng]() {
    Point c{rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)};
    return Polygon::RegularNgon(c, rng.Uniform(0.5, 2.0),
                                3 + static_cast<int>(rng.UniformInt(uint64_t{7})),
                                rng.Uniform(0.0, 1.0));
  };
  Polygon a = random_poly();
  Polygon b = random_poly();
  double inter = IntersectionArea(a, b);
  EXPECT_GE(inter, 0.0);
  EXPECT_LE(inter, std::min(a.Area(), b.Area()) + 1e-9);
  EXPECT_NEAR(IntersectionArea(b, a), inter, 1e-9);
  EXPECT_NEAR(UnionArea(a, b) + inter, a.Area() + b.Area(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BooleanOpsRandomTest,
                         ::testing::Range(0, 30));

// Naive unpruned O(|A|·|B|) fan reference: the same signed-fan
// decomposition, but every triangle pair is clipped — no bbox pruning,
// every ring freshly allocated. A pair the production path prunes has
// disjoint triangles, whose clip area is exactly 0.0 and is therefore
// never accumulated on either path; the nonzero-term order is
// preserved, so production IntersectionArea must be BIT-identical.
double NaiveIntersectionArea(const Polygon& a, const Polygon& b) {
  std::vector<SignedTriangle> fa;
  std::vector<SignedTriangle> fb;
  SignedFan(a, &fa);
  SignedFan(b, &fb);
  double acc = 0.0;
  for (const SignedTriangle& ta : fa) {
    for (const SignedTriangle& tb : fb) {
      Ring ra = {ta.a, ta.b, ta.c};
      Ring rb = {tb.a, tb.b, tb.c};
      double inter = ConvexIntersectionArea(ra, rb);
      if (inter > 0.0) acc += ta.sign * tb.sign * inter;
    }
  }
  return std::max(acc, 0.0);
}

TEST(BooleanOps, NaiveFanReferenceDifferential) {
  // Edge-case menagerie × random convex probes, all compared bitwise
  // against the unpruned reference.
  Ring outer = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  Ring hole = {{1, 1}, {3, 1}, {3, 3}, {1, 3}};
  std::vector<Polygon> shapes;
  shapes.push_back(std::move(Polygon::Create(outer, {hole})).ValueOrDie());
  shapes.emplace_back(Ring{{0, 0}, {3, 0}, {3, 1}, {1, 1}, {1, 3}, {0, 3}});
  // Clockwise input ring (constructor normalizes to CCW).
  shapes.emplace_back(Ring{{0, 4}, {4, 4}, {4, 0}, {0, 0}});
  // Collinear mid-edge vertex: its fan triangle is degenerate
  // (Orient2d == 0) and must drop out without disturbing the rest.
  shapes.emplace_back(Ring{{0, 0}, {2, 0}, {4, 0}, {4, 4}, {0, 4}});

  Rng rng(950);
  for (int round = 0; round < 20; ++round) {
    Point c{rng.Uniform(0.0, 4.0), rng.Uniform(0.0, 4.0)};
    Polygon probe = Polygon::RegularNgon(
        c, rng.Uniform(0.3, 2.5),
        3 + static_cast<int>(rng.UniformInt(uint64_t{6})),
        rng.Uniform(0.0, 1.0));
    for (size_t s = 0; s < shapes.size(); ++s) {
      double got = IntersectionArea(shapes[s], probe);
      double want = NaiveIntersectionArea(shapes[s], probe);
      EXPECT_TRUE(ExactlyEqual(got, want))
          << "shape " << s << " round " << round << ": " << got << " vs "
          << want;
    }
    for (size_t s = 0; s < shapes.size(); ++s) {
      for (size_t t = 0; t < shapes.size(); ++t) {
        EXPECT_TRUE(ExactlyEqual(IntersectionArea(shapes[s], shapes[t]),
                                 NaiveIntersectionArea(shapes[s], shapes[t])))
            << s << " x " << t;
      }
    }
  }
}

TEST(BooleanOps, SharedEdgeAndTouchingCornerAreZero) {
  Polygon left({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  Polygon right({{1, 0}, {2, 0}, {2, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(IntersectionArea(left, right), 0.0);
  EXPECT_TRUE(ExactlyEqual(IntersectionArea(left, right),
                           NaiveIntersectionArea(left, right)));
  Polygon corner({{1, 1}, {2, 1}, {2, 2}, {1, 2}});
  EXPECT_DOUBLE_EQ(IntersectionArea(left, corner), 0.0);
}

TEST(BooleanOps, SliverOverlapKeepsTinyAreaExactly) {
  // 1e-9-wide overlap strip: far below any realistic min_area, but the
  // computed measure must still match the reference bitwise and the
  // analytic value tightly (this is what the overlay's min_area prune
  // then drops — the geometry layer itself never rounds it away).
  constexpr double kEps = 1e-9;
  Polygon a({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  Polygon b({{1.0 - kEps, 0}, {2, 0}, {2, 1}, {1.0 - kEps, 1}});
  double got = IntersectionArea(a, b);
  EXPECT_TRUE(ExactlyEqual(got, NaiveIntersectionArea(a, b)));
  EXPECT_NEAR(got, kEps, 1e-15);
  EXPECT_GT(got, 0.0);
}

TEST(BooleanOps, DegenerateFanTrianglesDropOut) {
  // All-collinear "polygon" (zero area): every fan triangle is
  // degenerate, the fan is empty, and any intersection is 0.
  Polygon flat({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  std::vector<SignedTriangle> fan;
  SignedFan(flat, &fan);
  EXPECT_TRUE(fan.empty());
  Polygon square({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  EXPECT_DOUBLE_EQ(IntersectionArea(flat, square), 0.0);
}

TEST(BooleanOps, PreparedPathBitIdenticalToIntersectionArea) {
  // The overlay engine's cached-fan entry point, fed fans + boxes
  // built into reused buffers, against the ring clipper's sum over the
  // same triangle pairs in the same order with the same max(acc, 0)
  // (NaiveIntersectionArea): holed donut × random n-gons, bit for bit.
  // IntersectionArea runs the same kernel, so it must agree too.
  Rng rng(960);
  Ring outer = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  Ring hole = {{1, 1}, {3, 1}, {3, 3}, {1, 3}};
  Polygon donut = std::move(Polygon::Create(outer, {hole})).ValueOrDie();
  std::vector<SignedTriangle> fa;
  std::vector<SignedTriangle> fb;
  std::vector<BBox> ba;
  std::vector<BBox> bb;
  SignedFan(donut, &fa);
  FanBBoxes(fa, &ba);
  for (int round = 0; round < 25; ++round) {
    Point c{rng.Uniform(0.0, 4.0), rng.Uniform(0.0, 4.0)};
    Polygon probe = Polygon::RegularNgon(
        c, rng.Uniform(0.3, 2.0),
        3 + static_cast<int>(rng.UniformInt(uint64_t{6})),
        rng.Uniform(0.0, 1.0));
    fb.clear();
    bb.clear();
    SignedFan(probe, &fb);
    FanBBoxes(fb, &bb);
    double got = donut.Bounds().Intersects(probe.Bounds())
                     ? IntersectionAreaPrepared(fa.data(), ba.data(),
                                                fa.size(), fb.data(),
                                                bb.data(), fb.size())
                     : 0.0;
    EXPECT_TRUE(ExactlyEqual(got, NaiveIntersectionArea(donut, probe)))
        << "round " << round;
    EXPECT_TRUE(ExactlyEqual(got, IntersectionArea(donut, probe)))
        << "round " << round;
  }
}

// The overlay's heap-free kernel against the ring clipper on the same
// two 3-vertex rings, both argument orders, bit for bit.
void ExpectKernelMatchesRingClipper(const SignedTriangle& a,
                                    const SignedTriangle& b,
                                    const std::string& label) {
  const Ring ra = {a.a, a.b, a.c};
  const Ring rb = {b.a, b.b, b.c};
  const double ab = TriangleIntersectionArea(a, b);
  const double ba = TriangleIntersectionArea(b, a);
  EXPECT_TRUE(ExactlyEqual(ab, ConvexIntersectionArea(ra, rb)))
      << label << ": " << ab << " vs " << ConvexIntersectionArea(ra, rb);
  EXPECT_TRUE(ExactlyEqual(ba, ConvexIntersectionArea(rb, ra)))
      << label << " (swapped): " << ba << " vs "
      << ConvexIntersectionArea(rb, ra);
}

// A CCW triangle; Orient2d decides which way round b and c go.
SignedTriangle Ccw(const Point& a, const Point& b, const Point& c) {
  return Orient2d(a, b, c) >= 0.0 ? SignedTriangle{a, b, c, 1.0}
                                  : SignedTriangle{a, c, b, 1.0};
}

TEST(ConvexClip, TriangleKernelBitIdenticalToRingClipper) {
  Rng rng(970);
  auto random_point = [&rng] {
    return Point{rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
  };
  for (int round = 0; round < 400; ++round) {
    SignedTriangle a = Ccw(random_point(), random_point(), random_point());
    SignedTriangle b = Ccw(random_point(), random_point(), random_point());
    ExpectKernelMatchesRingClipper(a, b, "random " + std::to_string(round));
    // The same clip triangle with its vertices rotated.
    ExpectKernelMatchesRingClipper(a, {b.b, b.c, b.a, 1.0},
                                   "rotated " + std::to_string(round));
  }

  // Contacts at random coordinates: `a` reuses a vertex or an edge of
  // `b`, so some signed distances are exactly zero and the on-line
  // rule (d <= 0 is inside) decides the clip.
  for (int round = 0; round < 200; ++round) {
    const SignedTriangle b =
        Ccw(random_point(), random_point(), random_point());
    ExpectKernelMatchesRingClipper(
        Ccw(b.b, random_point(), random_point()), b,
        "random shared vertex " + std::to_string(round));
    ExpectKernelMatchesRingClipper(
        Ccw(b.a, b.b, random_point()), b,
        "random shared edge " + std::to_string(round));
  }

  const SignedTriangle t = Ccw({0, 0}, {2, 0}, {0, 2});
  ExpectKernelMatchesRingClipper(t, t, "identical");
  ExpectKernelMatchesRingClipper(t, Ccw({2, 0}, {0, 2}, {2, 2}),
                                 "shared edge");
  ExpectKernelMatchesRingClipper(t, Ccw({2, 0}, {3, 0}, {3, 1}),
                                 "shared vertex");
  ExpectKernelMatchesRingClipper(t, Ccw({1, 0}, {2, -1}, {0, -1}),
                                 "vertex on the other's edge, outside");
  ExpectKernelMatchesRingClipper(t, Ccw({1, 0}, {1, 1}, {0.5, 0.5}),
                                 "vertex on the other's edge, inside");
  ExpectKernelMatchesRingClipper(t, Ccw({0.2, 0.2}, {0.8, 0.2}, {0.2, 0.8}),
                                 "one inside the other");
  // Boxes [0,2]² and [1.5,3]² overlap, the triangles do not.
  ExpectKernelMatchesRingClipper(t, Ccw({1.5, 1.5}, {3, 1.5}, {3, 3}),
                                 "boxes touch, triangles do not");
  // Hexagram: the clip emits the most vertices a convex pair can.
  ExpectKernelMatchesRingClipper(Ccw({0, 0}, {3, 0}, {1.5, 2.6}),
                                 Ccw({0, 1.7}, {1.5, -0.9}, {3, 1.7}),
                                 "hexagram");
  for (int k = 0; k < 20; ++k) {
    const double h = 1e-12 * (1.0 + k);
    const double x = rng.Uniform(-1.0, 1.0);
    ExpectKernelMatchesRingClipper(
        Ccw({x, 0}, {x + 1.0, 0}, {x + 0.5, h}), t,
        "sliver " + std::to_string(k));
    ExpectKernelMatchesRingClipper(
        t, Ccw({0.3, 0.7 - h}, {1.1, 0.7 - h}, {0.7, 0.7}),
        "sliver inside " + std::to_string(k));
  }
}

TEST(Voronoi, TwoSitesSplitBox) {
  BBox box(0, 0, 2, 1);
  auto cells = VoronoiCells({{0.5, 0.5}, {1.5, 0.5}}, box);
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), 2u);
  EXPECT_NEAR(RingArea((*cells)[0]), 1.0, 1e-9);
  EXPECT_NEAR(RingArea((*cells)[1]), 1.0, 1e-9);
}

TEST(Voronoi, CellsPartitionBox) {
  Rng rng(41);
  BBox box(0, 0, 10, 10);
  std::vector<Point> sites;
  for (int i = 0; i < 200; ++i) {
    sites.push_back({rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
  }
  auto cells = VoronoiCells(sites, box);
  ASSERT_TRUE(cells.ok());
  double total = 0.0;
  for (const Ring& cell : *cells) total += RingArea(cell);
  EXPECT_NEAR(total, 100.0, 1e-6);
  // Each site lies inside (or on the boundary of) its own cell.
  for (size_t i = 0; i < sites.size(); ++i) {
    EXPECT_TRUE(PointInRing(sites[i], (*cells)[i])) << i;
  }
}

TEST(Voronoi, CellContainmentProperty) {
  // Every cell vertex is nearer its own site than any other site.
  Rng rng(43);
  BBox box(0, 0, 5, 5);
  std::vector<Point> sites;
  for (int i = 0; i < 40; ++i) {
    sites.push_back({rng.Uniform(0.0, 5.0), rng.Uniform(0.0, 5.0)});
  }
  auto cells = VoronoiCells(sites, box);
  ASSERT_TRUE(cells.ok());
  for (size_t i = 0; i < sites.size(); ++i) {
    for (const Point& v : (*cells)[i]) {
      double own = DistanceSquared(v, sites[i]);
      for (size_t j = 0; j < sites.size(); ++j) {
        EXPECT_LE(own, DistanceSquared(v, sites[j]) + 1e-6);
      }
    }
  }
}

TEST(Voronoi, DuplicateSitesKeepFirst) {
  BBox box(0, 0, 1, 1);
  auto cells = VoronoiCells({{0.5, 0.5}, {0.5, 0.5}}, box);
  ASSERT_TRUE(cells.ok());
  EXPECT_NEAR(RingArea((*cells)[0]), 1.0, 1e-9);
  EXPECT_TRUE((*cells)[1].empty());
}

TEST(Voronoi, RejectsBadInput) {
  BBox box(0, 0, 1, 1);
  EXPECT_FALSE(VoronoiCells({}, box).ok());
  EXPECT_FALSE(VoronoiCells({{2.0, 2.0}}, box).ok());
  EXPECT_FALSE(VoronoiCells({{0.5, 0.5}}, BBox()).ok());
}

TEST(Wkt, PointRoundTrip) {
  Point p{1.5, -2.25};
  auto parsed = PointFromWkt(ToWkt(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, p);
}

TEST(Wkt, PolygonRoundTrip) {
  Ring outer = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  Ring hole = {{1, 1}, {3, 1}, {3, 3}, {1, 3}};
  Polygon p = std::move(Polygon::Create(outer, {hole})).ValueOrDie();
  auto parsed = PolygonFromWkt(ToWkt(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Area(), p.Area());
  EXPECT_EQ(parsed->holes().size(), 1u);
}

TEST(Wkt, ParsesExternalFormats) {
  auto p = PolygonFromWkt("POLYGON((0 0, 10 0, 10 10, 0 10, 0 0))");
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p->Area(), 100.0);
  auto mp = MultiPolygonFromWkt(
      "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((2 2, 3 2, 3 3, 2 3)))");
  ASSERT_TRUE(mp.ok());
  EXPECT_EQ(mp->size(), 2u);
}

TEST(Wkt, MultiPolygonAcceptsPlainPolygon) {
  auto mp = MultiPolygonFromWkt("POLYGON ((0 0, 1 0, 0 1))");
  ASSERT_TRUE(mp.ok());
  EXPECT_EQ(mp->size(), 1u);
}

TEST(Wkt, RejectsMalformed) {
  EXPECT_FALSE(PointFromWkt("POINT 1 2").ok());
  EXPECT_FALSE(PolygonFromWkt("POLYGON ((0 0, 1 0))").ok());
  EXPECT_FALSE(PolygonFromWkt("LINESTRING (0 0, 1 1)").ok());
  EXPECT_FALSE(PolygonFromWkt("POLYGON ((0 0, 1 0, 0 1)) extra").ok());
}

TEST(Wkt, MultiPolygonRoundTrip) {
  std::vector<Polygon> polys = {Polygon({{0, 0}, {1, 0}, {0, 1}}),
                                Polygon({{5, 5}, {6, 5}, {5, 6}})};
  auto parsed = MultiPolygonFromWkt(ToWkt(polys));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_DOUBLE_EQ((*parsed)[0].Area(), 0.5);
}

}  // namespace
}  // namespace geoalign::geom
