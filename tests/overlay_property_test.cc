// Property sweeps over the overlay machinery: measure conservation,
// marginal consistency, and cross-representation agreement on random
// partitions in 1-D, n-D, and 2-D polygon form.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "geom/voronoi.h"
#include "partition/box_partition.h"
#include "partition/disaggregation.h"
#include "partition/overlay.h"

namespace geoalign::partition {
namespace {

IntervalPartition RandomIntervals(Rng& rng, double span) {
  std::vector<double> breaks = {0.0};
  size_t n = 2 + rng.UniformInt(uint64_t{12});
  for (size_t i = 0; i < n; ++i) {
    breaks.push_back(breaks.back() + rng.Uniform(0.2, 2.0));
  }
  double scale = span / breaks.back();
  for (double& b : breaks) b *= scale;
  breaks.back() = span;
  return std::move(IntervalPartition::Create(breaks)).ValueOrDie();
}

class BoxOverlayPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BoxOverlayPropertyTest, NdMeasureAndMarginalsConserved) {
  Rng rng(7000 + GetParam());
  size_t dim = 1 + rng.UniformInt(uint64_t{4});  // 1-D through 4-D
  std::vector<IntervalPartition> s_axes;
  std::vector<IntervalPartition> t_axes;
  double volume = 1.0;
  for (size_t d = 0; d < dim; ++d) {
    double span = rng.Uniform(1.0, 20.0);
    volume *= span;
    s_axes.push_back(RandomIntervals(rng, span));
    t_axes.push_back(RandomIntervals(rng, span));
  }
  auto source = std::move(BoxPartition::Create(s_axes)).ValueOrDie();
  auto target = std::move(BoxPartition::Create(t_axes)).ValueOrDie();
  auto overlay = std::move(OverlayBoxes(source, target)).ValueOrDie();

  // Total measure equals the universe volume.
  EXPECT_NEAR(overlay.TotalMeasure(), volume, 1e-9 * volume);

  // DM marginals equal unit measures on both sides.
  sparse::CsrMatrix dm = overlay.MeasureDm();
  linalg::Vector rows = dm.RowSums();
  for (size_t i = 0; i < source.NumUnits(); ++i) {
    EXPECT_NEAR(rows[i], source.Measure(i), 1e-9 * volume) << "dim " << dim;
  }
  linalg::Vector cols = dm.ColSums();
  for (size_t j = 0; j < target.NumUnits(); ++j) {
    EXPECT_NEAR(cols[j], target.Measure(j), 1e-9 * volume);
  }

  // Every cell is genuinely an intersection: its measure is bounded by
  // both unit measures.
  for (const IntersectionCell& c : overlay.cells) {
    EXPECT_LE(c.measure, source.Measure(c.source) + 1e-9);
    EXPECT_LE(c.measure, target.Measure(c.target) + 1e-9);
    EXPECT_GT(c.measure, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BoxOverlayPropertyTest,
                         ::testing::Range(0, 20));

class PolygonOverlayPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PolygonOverlayPropertyTest, VoronoiPairConservesMeasure) {
  Rng rng(7100 + GetParam());
  geom::BBox world(0, 0, 10, 10);
  auto make_layer = [&](size_t n) {
    std::vector<geom::Point> sites;
    for (size_t i = 0; i < n; ++i) {
      sites.push_back({rng.Uniform(0.2, 9.8), rng.Uniform(0.2, 9.8)});
    }
    auto rings = std::move(geom::VoronoiCells(sites, world)).ValueOrDie();
    std::vector<geom::Polygon> polys;
    for (auto& r : rings) {
      if (r.size() >= 3) polys.emplace_back(std::move(r));
    }
    return std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
  };
  PolygonPartition source = make_layer(10 + rng.UniformInt(uint64_t{40}));
  PolygonPartition target = make_layer(3 + rng.UniformInt(uint64_t{12}));
  auto overlay =
      std::move(OverlayPolygons(source, target, {.min_area = 1e-9}))
          .ValueOrDie();
  EXPECT_NEAR(overlay.TotalMeasure(), 100.0, 1e-4);
  sparse::CsrMatrix dm = overlay.MeasureDm();
  linalg::Vector rows = dm.RowSums();
  for (size_t i = 0; i < source.NumUnits(); ++i) {
    EXPECT_NEAR(rows[i], source.Measure(i), 1e-6) << i;
  }
  // Point-location consistency: random points fall in the cell whose
  // (source, target) pair matches their located units.
  for (int q = 0; q < 30; ++q) {
    geom::Point p{rng.Uniform(0.5, 9.5), rng.Uniform(0.5, 9.5)};
    auto si = source.Locate(p);
    auto ti = target.Locate(p);
    ASSERT_TRUE(si.ok() && ti.ok());
    bool found = false;
    for (const IntersectionCell& c : overlay.cells) {
      if (c.source == *si && c.target == *ti) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "located pair missing from overlay";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PolygonOverlayPropertyTest,
                         ::testing::Range(0, 10));

TEST(OverlayCellsProperty, AgreesWithBoxOverlayOnGridWorld) {
  // The same world expressed two ways: a fine 12x12 grid as atoms with
  // coarse labelings, and the equivalent box partitions. The two
  // overlay paths must produce identical measure DMs.
  Rng rng(7200);
  // Source: vertical bands 0-4,4-8,8-12; target: horizontal 0-6,6-12.
  AtomSpace atoms;
  atoms.measures.assign(144, 1.0);
  std::vector<uint32_t> src(144);
  std::vector<uint32_t> tgt(144);
  for (size_t y = 0; y < 12; ++y) {
    for (size_t x = 0; x < 12; ++x) {
      src[y * 12 + x] = static_cast<uint32_t>(x / 4);
      tgt[y * 12 + x] = static_cast<uint32_t>(y / 6);
    }
  }
  auto s_cells = std::move(CellPartition::Create(&atoms, src, 3)).ValueOrDie();
  auto t_cells = std::move(CellPartition::Create(&atoms, tgt, 2)).ValueOrDie();
  auto cell_ov = std::move(OverlayCells(s_cells, t_cells)).ValueOrDie();

  auto sx = std::move(IntervalPartition::Create({0, 4, 8, 12})).ValueOrDie();
  auto sy = std::move(IntervalPartition::Create({0.0, 12.0})).ValueOrDie();
  auto tx = std::move(IntervalPartition::Create({0.0, 12.0})).ValueOrDie();
  auto ty = std::move(IntervalPartition::Create({0, 6, 12})).ValueOrDie();
  auto s_box = std::move(BoxPartition::Create({sx, sy})).ValueOrDie();
  auto t_box = std::move(BoxPartition::Create({tx, ty})).ValueOrDie();
  auto box_ov = std::move(OverlayBoxes(s_box, t_box)).ValueOrDie();

  EXPECT_TRUE(cell_ov.MeasureDm().AllClose(box_ov.MeasureDm(), 1e-9));
}

}  // namespace
}  // namespace geoalign::partition
