// Unit tests for the partition/overlay substrate, covering all four
// unit-system representations and the overlay invariants GeoAlign's
// correctness depends on (measure conservation, DM consistency).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "geom/voronoi.h"
#include "partition/box_partition.h"
#include "partition/cell_partition.h"
#include "partition/disaggregation.h"
#include "partition/interval_partition.h"
#include "partition/overlay.h"
#include "partition/polygon_partition.h"
#include "spatial/grid_index.h"
#include "sparse/coo_builder.h"

namespace geoalign::partition {
namespace {

using geom::BBox;
using geom::Point;
using geom::Polygon;

TEST(IntervalPartition, CreateValidates) {
  EXPECT_FALSE(IntervalPartition::Create({1.0}).ok());
  EXPECT_FALSE(IntervalPartition::Create({1.0, 1.0}).ok());
  EXPECT_FALSE(IntervalPartition::Create({2.0, 1.0}).ok());
  EXPECT_TRUE(IntervalPartition::Create({0.0, 1.0, 3.0}).ok());
}

TEST(IntervalPartition, UniformAndMeasure) {
  auto p = std::move(IntervalPartition::Uniform(0.0, 10.0, 5)).ValueOrDie();
  EXPECT_EQ(p.NumUnits(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(p.Measure(i), 2.0);
  EXPECT_DOUBLE_EQ(p.lower(2), 4.0);
  EXPECT_DOUBLE_EQ(p.upper(2), 6.0);
}

TEST(IntervalPartition, LocateHalfOpenSemantics) {
  auto p = std::move(IntervalPartition::Create({0.0, 1.0, 2.0})).ValueOrDie();
  EXPECT_EQ(std::move(p.Locate(0.0)).ValueOrDie(), 0u);
  EXPECT_EQ(std::move(p.Locate(0.99)).ValueOrDie(), 0u);
  EXPECT_EQ(std::move(p.Locate(1.0)).ValueOrDie(), 1u);
  EXPECT_EQ(std::move(p.Locate(2.0)).ValueOrDie(), 1u);  // top endpoint
  EXPECT_FALSE(p.Locate(-0.1).ok());
  EXPECT_FALSE(p.Locate(2.1).ok());
}

TEST(OverlayIntervals, KnownExample) {
  // The paper's Fig. 3 setting: narrow vs wide age bins.
  auto narrow =
      std::move(IntervalPartition::Create({0, 10, 20, 30, 40, 60})).ValueOrDie();
  auto wide = std::move(IntervalPartition::Create({0, 25, 60})).ValueOrDie();
  auto ov = std::move(OverlayIntervals(narrow, wide)).ValueOrDie();
  // Intersections: [0,10),[10,20),[20,25) in wide0; [25,30),[30,40),[40,60).
  EXPECT_EQ(ov.cells.size(), 6u);
  EXPECT_NEAR(ov.TotalMeasure(), 60.0, 1e-12);
  sparse::CsrMatrix dm = ov.MeasureDm();
  EXPECT_DOUBLE_EQ(dm.At(2, 0), 5.0);  // [20,30) splits 5/5
  EXPECT_DOUBLE_EQ(dm.At(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(dm.At(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(dm.At(4, 1), 20.0);
}

TEST(OverlayIntervals, RejectsMismatchedUniverse) {
  auto a = std::move(IntervalPartition::Uniform(0, 10, 2)).ValueOrDie();
  auto b = std::move(IntervalPartition::Uniform(0, 12, 3)).ValueOrDie();
  EXPECT_FALSE(OverlayIntervals(a, b).ok());
}

TEST(OverlayIntervals, RandomizedMeasureConservation) {
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    auto make = [&rng]() {
      std::vector<double> breaks = {0.0};
      size_t n = 2 + rng.UniformInt(uint64_t{30});
      for (size_t i = 0; i < n; ++i) {
        breaks.push_back(breaks.back() + rng.Uniform(0.1, 3.0));
      }
      // Rescale to span [0, 100] exactly.
      double scale = 100.0 / breaks.back();
      for (double& v : breaks) v *= scale;
      return std::move(IntervalPartition::Create(breaks)).ValueOrDie();
    };
    IntervalPartition s = make();
    IntervalPartition t = make();
    auto ov = std::move(OverlayIntervals(s, t)).ValueOrDie();
    EXPECT_NEAR(ov.TotalMeasure(), 100.0, 1e-9);
    // Row sums of the measure DM reproduce source unit widths.
    linalg::Vector rows = ov.MeasureDm().RowSums();
    for (size_t i = 0; i < s.NumUnits(); ++i) {
      EXPECT_NEAR(rows[i], s.Measure(i), 1e-9);
    }
  }
}

TEST(BoxPartition, IndexingRoundTrip) {
  auto x = std::move(IntervalPartition::Uniform(0, 4, 4)).ValueOrDie();
  auto y = std::move(IntervalPartition::Uniform(0, 3, 3)).ValueOrDie();
  auto z = std::move(IntervalPartition::Uniform(0, 2, 2)).ValueOrDie();
  auto box = std::move(BoxPartition::Create({x, y, z})).ValueOrDie();
  EXPECT_EQ(box.Dimension(), 3u);
  EXPECT_EQ(box.NumUnits(), 24u);
  for (size_t u = 0; u < box.NumUnits(); ++u) {
    EXPECT_EQ(box.LinearIndex(box.AxisUnits(u)), u);
    EXPECT_DOUBLE_EQ(box.Measure(u), 1.0);
  }
}

TEST(BoxPartition, Locate3d) {
  auto x = std::move(IntervalPartition::Uniform(0, 10, 2)).ValueOrDie();
  auto box = std::move(BoxPartition::Create({x, x, x})).ValueOrDie();
  auto unit = box.Locate({7.0, 2.0, 7.0});
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(box.AxisUnits(*unit), (std::vector<size_t>{1, 0, 1}));
  EXPECT_FALSE(box.Locate({7.0, 2.0}).ok());
  EXPECT_FALSE(box.Locate({7.0, 2.0, 11.0}).ok());
}

TEST(OverlayBoxes, MatchesProductOfAxisOverlays) {
  auto sx = std::move(IntervalPartition::Create({0, 3, 10})).ValueOrDie();
  auto sy = std::move(IntervalPartition::Create({0, 5, 10})).ValueOrDie();
  auto tx = std::move(IntervalPartition::Create({0, 6, 10})).ValueOrDie();
  auto ty = std::move(IntervalPartition::Create({0, 2, 10})).ValueOrDie();
  auto s = std::move(BoxPartition::Create({sx, sy})).ValueOrDie();
  auto t = std::move(BoxPartition::Create({tx, ty})).ValueOrDie();
  auto ov = std::move(OverlayBoxes(s, t)).ValueOrDie();
  EXPECT_NEAR(ov.TotalMeasure(), 100.0, 1e-9);
  // Check one cell: source unit (x in [0,3), y in [0,5)) x target unit
  // (x in [0,6), y in [0,2)) -> 3 * 2 = 6.
  sparse::CsrMatrix dm = ov.MeasureDm();
  size_t s_unit = s.LinearIndex({0, 0});
  size_t t_unit = t.LinearIndex({0, 0});
  EXPECT_DOUBLE_EQ(dm.At(s_unit, t_unit), 6.0);
}

TEST(OverlayBoxes, DimensionMismatchRejected) {
  auto x = std::move(IntervalPartition::Uniform(0, 1, 2)).ValueOrDie();
  auto a = std::move(BoxPartition::Create({x})).ValueOrDie();
  auto b = std::move(BoxPartition::Create({x, x})).ValueOrDie();
  EXPECT_FALSE(OverlayBoxes(a, b).ok());
}

PolygonPartition MakeGridLayer(double x0, double y0, size_t nx, size_t ny,
                               double cell) {
  std::vector<Polygon> polys;
  for (size_t j = 0; j < ny; ++j) {
    for (size_t i = 0; i < nx; ++i) {
      polys.push_back(Polygon::FromBBox(BBox(
          x0 + i * cell, y0 + j * cell, x0 + (i + 1) * cell,
          y0 + (j + 1) * cell)));
    }
  }
  return std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
}

TEST(PolygonPartition, LocateAndMeasure) {
  PolygonPartition layer = MakeGridLayer(0, 0, 3, 2, 1.0);
  EXPECT_EQ(layer.NumUnits(), 6u);
  EXPECT_DOUBLE_EQ(layer.TotalMeasure(), 6.0);
  EXPECT_EQ(std::move(layer.Locate({2.5, 1.5})).ValueOrDie(), 5u);
  EXPECT_FALSE(layer.Locate({10.0, 10.0}).ok());
}

// The definition Locate must reproduce: the lowest-index unit whose
// Contains holds, or no unit (returned as NumUnits()).
size_t LowestContainingUnit(const PolygonPartition& layer, const Point& p) {
  for (size_t i = 0; i < layer.NumUnits(); ++i) {
    if (layer.unit(i).Contains(p)) return i;
  }
  return layer.NumUnits();
}

// Probes Locate at `random` uniform points over the layer's bounds
// widened by 10%, at every vertex and every edge midpoint of every
// ring, outside the layer, on its bounding-box corners, and at NaN.
void ExpectLocateMatchesLowestContainingUnit(const PolygonPartition& layer,
                                             size_t random, Rng& rng) {
  const BBox b = layer.Bounds();
  const double dx = 0.1 * b.width();
  const double dy = 0.1 * b.height();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Point> probes = {{b.min_x, b.min_y}, {b.max_x, b.max_y},
                               {b.min_x - dx, b.min_y - dy},
                               {b.max_x + dx, b.max_y + dy},
                               {nan, nan}, {nan, b.min_y}, {b.min_x, nan}};
  for (size_t k = 0; k < random; ++k) {
    probes.push_back({rng.Uniform(b.min_x - dx, b.max_x + dx),
                      rng.Uniform(b.min_y - dy, b.max_y + dy)});
  }
  for (size_t i = 0; i < layer.NumUnits(); ++i) {
    std::vector<geom::Ring> rings = layer.unit(i).holes();
    rings.push_back(layer.unit(i).outer());
    for (const geom::Ring& ring : rings) {
      for (size_t v = 0; v < ring.size(); ++v) {
        const Point& a = ring[v];
        const Point& c = ring[(v + 1) % ring.size()];
        probes.push_back(a);
        probes.push_back({(a.x + c.x) / 2, (a.y + c.y) / 2});
      }
    }
  }
  size_t found = 0;
  for (const Point& p : probes) {
    const size_t expected = LowestContainingUnit(layer, p);
    auto got = layer.Locate(p);
    if (expected == layer.NumUnits()) {
      EXPECT_FALSE(got.ok()) << "(" << p.x << ", " << p.y << ")";
    } else if (got.ok()) {
      ++found;
      EXPECT_EQ(*got, expected) << "(" << p.x << ", " << p.y << ")";
    } else {
      ADD_FAILURE() << "(" << p.x << ", " << p.y << ") not located; unit "
                    << expected << " contains it";
    }
  }
  // Most probes lie in some unit; the check above is not vacuous.
  EXPECT_GT(found, probes.size() / 2);
}

TEST(PolygonPartition, LocateMatchesLowestContainingUnit) {
  Rng rng(2018);
  // A 50 x 50 grid of quads whose shared corners are jittered, so the
  // layer tiles its square exactly and every edge is shared.
  const size_t nx = 50;
  std::vector<Point> corners((nx + 1) * (nx + 1));
  for (size_t gy = 0; gy <= nx; ++gy) {
    for (size_t gx = 0; gx <= nx; ++gx) {
      double x = static_cast<double>(gx);
      double y = static_cast<double>(gy);
      if (gx != 0 && gx != nx) x += rng.Uniform(-0.25, 0.25);
      if (gy != 0 && gy != nx) y += rng.Uniform(-0.25, 0.25);
      corners[gy * (nx + 1) + gx] = {x, y};
    }
  }
  std::vector<Polygon> quads;
  for (size_t gy = 0; gy < nx; ++gy) {
    for (size_t gx = 0; gx < nx; ++gx) {
      const size_t c = gy * (nx + 1) + gx;
      quads.emplace_back(geom::Ring{corners[c], corners[c + 1],
                                    corners[c + nx + 2], corners[c + nx + 1]});
    }
  }
  auto grid = std::move(PolygonPartition::Create(std::move(quads))).ValueOrDie();
  ExpectLocateMatchesLowestContainingUnit(grid, 5000, rng);

  std::vector<Point> sites;
  for (int i = 0; i < 250; ++i) {
    sites.push_back({rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)});
  }
  auto cells =
      std::move(geom::VoronoiCells(sites, BBox(0, 0, 50, 50))).ValueOrDie();
  std::vector<Polygon> polys;
  for (auto& ring : cells) {
    if (ring.size() >= 3) polys.emplace_back(std::move(ring));
  }
  auto voronoi =
      std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
  ExpectLocateMatchesLowestContainingUnit(voronoi, 5000, rng);

  // Hand-built: units 1 and 2 overlap in [2,3] x [0,3]; unit 3 has the
  // hole [6,8] x [1,3], and unit 0 is an island inside that hole with
  // a gap around it.
  std::vector<Polygon> hand = {
      Polygon::FromBBox(BBox(6.5, 1.5, 7.5, 2.5)),
      Polygon::FromBBox(BBox(0, 0, 3, 3)),
      Polygon::FromBBox(BBox(2, 0, 5, 3)),
      std::move(Polygon::Create(geom::Ring{{5, 0}, {9, 0}, {9, 4}, {5, 4}},
                                {geom::Ring{{6, 1}, {8, 1}, {8, 3}, {6, 3}}}))
          .ValueOrDie(),
  };
  auto layer = std::move(PolygonPartition::Create(std::move(hand))).ValueOrDie();
  EXPECT_EQ(*layer.Locate({2.5, 1.5}), 1u);  // overlap: lowest index wins
  EXPECT_EQ(*layer.Locate({3.0, 1.5}), 1u);  // unit 1's edge inside unit 2
  EXPECT_EQ(*layer.Locate({4.0, 1.5}), 2u);
  EXPECT_EQ(*layer.Locate({5.0, 1.5}), 2u);  // shared edge of units 2 and 3
  EXPECT_EQ(*layer.Locate({6.0, 2.0}), 3u);  // the hole's boundary is unit 3's
  EXPECT_FALSE(layer.Locate({6.2, 2.0}).ok());  // in the gap around the island
  EXPECT_EQ(*layer.Locate({6.5, 2.0}), 0u);     // the island's boundary
  EXPECT_EQ(*layer.Locate({7.0, 2.0}), 0u);
  ExpectLocateMatchesLowestContainingUnit(layer, 2000, rng);

  // Density skew: a 40 x 40 quad grid whose corners are warped by t^3,
  // so 144 units crowd the uniform grid's corner cell.
  const size_t nw = 40;
  auto warp = [nw](size_t g) {
    const double t = static_cast<double>(g) / static_cast<double>(nw);
    return 50.0 * t * t * t;
  };
  std::vector<Polygon> warped;
  for (size_t gy = 0; gy < nw; ++gy) {
    for (size_t gx = 0; gx < nw; ++gx) {
      warped.push_back(Polygon::FromBBox(
          BBox(warp(gx), warp(gy), warp(gx + 1), warp(gy + 1))));
    }
  }
  auto skewed =
      std::move(PolygonPartition::Create(std::move(warped))).ValueOrDie();
  ExpectLocateMatchesLowestContainingUnit(skewed, 5000, rng);

  // The unit square cut into bands parallel to a diagonal: the middle
  // bands' boxes span most of the square, so at one cell per item the
  // lists would hold O(n^2) entries. The index must stay within its
  // bound per item and still locate exactly.
  const size_t bands = 300;
  auto on_line = [](double c, bool low_end) {
    // The ends of x + y = c inside the square: low_end is the end on
    // the bottom or right edge.
    if (c <= 1.0) return low_end ? Point{c, 0.0} : Point{0.0, c};
    return low_end ? Point{1.0, c - 1.0} : Point{c - 1.0, 1.0};
  };
  std::vector<Polygon> band_units;
  for (size_t k = 0; k < bands; ++k) {
    const double c0 = 2.0 * static_cast<double>(k) / bands;
    const double c1 = 2.0 * static_cast<double>(k + 1) / bands;
    geom::Ring ring;
    auto push = [&ring](const Point& v) {
      if (ring.empty() || ring.back() != v) ring.push_back(v);
    };
    push(on_line(c0, true));
    if (c0 < 1.0 && 1.0 < c1) push({1.0, 0.0});
    push(on_line(c1, true));
    push(on_line(c1, false));
    if (c0 < 1.0 && 1.0 < c1) push({0.0, 1.0});
    push(on_line(c0, false));
    if (ring.front() == ring.back()) ring.pop_back();
    band_units.emplace_back(std::move(ring));
  }
  std::vector<BBox> band_boxes;
  for (const Polygon& u : band_units) band_boxes.push_back(u.Bounds());
  const spatial::BoxGridIndex band_index(band_boxes);
  EXPECT_LE(band_index.num_entries(),
            spatial::BoxGridIndex::kMaxEntriesPerItem * bands);
  auto banded =
      std::move(PolygonPartition::Create(std::move(band_units))).ValueOrDie();
  EXPECT_NEAR(banded.TotalMeasure(), 1.0, 1e-12);
  ExpectLocateMatchesLowestContainingUnit(banded, 2000, rng);
}

TEST(PolygonPartition, ValidateDisjointDetectsOverlap) {
  PolygonPartition good = MakeGridLayer(0, 0, 2, 2, 1.0);
  EXPECT_TRUE(good.ValidateDisjoint().ok());
  std::vector<Polygon> bad = {
      Polygon::FromBBox(BBox(0, 0, 2, 2)),
      Polygon::FromBBox(BBox(1, 1, 3, 3)),
  };
  auto layer = std::move(PolygonPartition::Create(bad)).ValueOrDie();
  EXPECT_FALSE(layer.ValidateDisjoint().ok());

  // Unit 0 covers a 6 x 6 grid of units numbered from the top right;
  // the message still names the lowest overlapping unit.
  std::vector<Polygon> covered = {Polygon::FromBBox(BBox(0, 0, 6, 6))};
  for (int k = 0; k < 36; ++k) {
    const double x = 5 - k % 6;
    const double y = 5 - k / 6;
    covered.push_back(Polygon::FromBBox(BBox(x, y, x + 1, y + 1)));
  }
  auto cover = std::move(PolygonPartition::Create(covered)).ValueOrDie();
  Status overlap = cover.ValidateDisjoint();
  EXPECT_NE(overlap.message().find("units 0 and 1 overlap"), std::string::npos)
      << overlap.message();
}

TEST(OverlayPolygons, ShiftedGridsProduceQuarterCells) {
  // 2x2 unit grid vs the same grid shifted by (0.5, 0.5): interior
  // intersections are 0.5 x 0.5 squares.
  PolygonPartition source = MakeGridLayer(0, 0, 2, 2, 1.0);
  PolygonPartition target = MakeGridLayer(0.5, 0.5, 2, 2, 1.0);
  auto ov = std::move(OverlayPolygons(source, target, {.min_area = 1e-9}))
                .ValueOrDie();
  // Shared region is [0.5,2]x[0.5,2] = 2.25.
  EXPECT_NEAR(ov.TotalMeasure(), 2.25, 1e-9);
  for (const IntersectionCell& c : ov.cells) {
    EXPECT_GT(c.measure, 0.0);
    EXPECT_LE(c.measure, 1.0 + 1e-12);
  }
  // Source unit 3 ([1,2]x[1,2]) intersects all four shifted units.
  sparse::CsrMatrix dm = ov.MeasureDm();
  EXPECT_NEAR(dm.At(3, 0), 0.25, 1e-9);
  EXPECT_NEAR(dm.At(3, 3), 0.25, 1e-9);
}

TEST(OverlayPolygons, VoronoiVsGridConservesArea) {
  Rng rng(71);
  BBox box(0, 0, 8, 8);
  std::vector<Point> sites;
  for (int i = 0; i < 30; ++i) {
    sites.push_back({rng.Uniform(0.0, 8.0), rng.Uniform(0.0, 8.0)});
  }
  auto cells = std::move(geom::VoronoiCells(sites, box)).ValueOrDie();
  std::vector<Polygon> polys;
  for (auto& ring : cells) {
    if (ring.size() >= 3) polys.emplace_back(std::move(ring));
  }
  auto vor = std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
  PolygonPartition grid = MakeGridLayer(0, 0, 4, 4, 2.0);
  auto ov =
      std::move(OverlayPolygons(vor, grid, {.min_area = 1e-12})).ValueOrDie();
  EXPECT_NEAR(ov.TotalMeasure(), 64.0, 1e-6);
  // Row sums equal Voronoi cell areas; column sums equal grid areas.
  sparse::CsrMatrix dm = ov.MeasureDm();
  linalg::Vector rows = dm.RowSums();
  for (size_t i = 0; i < vor.NumUnits(); ++i) {
    EXPECT_NEAR(rows[i], vor.Measure(i), 1e-6);
  }
  linalg::Vector cols = dm.ColSums();
  for (size_t j = 0; j < grid.NumUnits(); ++j) {
    EXPECT_NEAR(cols[j], 4.0, 1e-6);
  }
}

AtomSpace MakeAtoms(size_t n, double measure = 1.0) {
  AtomSpace atoms;
  atoms.measures.assign(n, measure);
  return atoms;
}

TEST(CellPartition, CreateValidates) {
  AtomSpace atoms = MakeAtoms(4);
  EXPECT_FALSE(CellPartition::Create(nullptr, {0, 0, 1, 1}, 2).ok());
  EXPECT_FALSE(CellPartition::Create(&atoms, {0, 0, 1}, 2).ok());
  EXPECT_FALSE(CellPartition::Create(&atoms, {0, 0, 1, 2}, 2).ok());
  EXPECT_FALSE(CellPartition::Create(&atoms, {0, 0, 0, 0}, 2).ok());  // empty unit 1
  EXPECT_TRUE(CellPartition::Create(&atoms, {0, 0, 1, 1}, 2).ok());
}

TEST(CellPartition, MeasuresAndAggregation) {
  AtomSpace atoms;
  atoms.measures = {1.0, 2.0, 3.0, 4.0};
  auto p = std::move(CellPartition::Create(&atoms, {0, 1, 0, 1}, 2)).ValueOrDie();
  EXPECT_DOUBLE_EQ(p.Measure(0), 4.0);
  EXPECT_DOUBLE_EQ(p.Measure(1), 6.0);
  linalg::Vector agg = p.AggregateAtomValues({10.0, 20.0, 30.0, 40.0});
  EXPECT_EQ(agg, (linalg::Vector{40.0, 60.0}));
}

TEST(OverlayCells, ExactLabelJoin) {
  AtomSpace atoms = MakeAtoms(6);
  auto s = std::move(CellPartition::Create(&atoms, {0, 0, 1, 1, 2, 2}, 3)).ValueOrDie();
  auto t = std::move(CellPartition::Create(&atoms, {0, 1, 1, 1, 1, 0}, 2)).ValueOrDie();
  auto ov = std::move(OverlayCells(s, t)).ValueOrDie();
  EXPECT_EQ(ov.num_source, 3u);
  EXPECT_EQ(ov.num_target, 2u);
  // Cells: (0,0):1, (0,1):1, (1,1):2, (2,0):1, (2,1):1 -> 5 cells.
  EXPECT_EQ(ov.cells.size(), 5u);
  EXPECT_NEAR(ov.TotalMeasure(), 6.0, 1e-12);
  // Sorted by (source, target).
  for (size_t k = 1; k < ov.cells.size(); ++k) {
    const auto& a = ov.cells[k - 1];
    const auto& b = ov.cells[k];
    EXPECT_TRUE(a.source < b.source ||
                (a.source == b.source && a.target < b.target));
  }
  // atom_to_cell consistency.
  ASSERT_EQ(ov.atom_to_cell.size(), 6u);
  for (size_t a = 0; a < 6; ++a) {
    const IntersectionCell& c = ov.cells[ov.atom_to_cell[a]];
    EXPECT_EQ(c.source, s.LabelOf(a));
    EXPECT_EQ(c.target, t.LabelOf(a));
  }
}

TEST(OverlayCells, RequiresSharedAtomSpace) {
  AtomSpace a1 = MakeAtoms(2);
  AtomSpace a2 = MakeAtoms(2);
  auto s = std::move(CellPartition::Create(&a1, {0, 1}, 2)).ValueOrDie();
  auto t = std::move(CellPartition::Create(&a2, {0, 1}, 2)).ValueOrDie();
  EXPECT_FALSE(OverlayCells(s, t).ok());
}

// MeasureDm's one-pass CSR build against a CooBuilder build of the
// same cells (which sorts, merges and drops exact zeros): the three
// arrays must match, the values bit for bit.
void ExpectMeasureDmMatchesCooBuilder(const OverlayResult& ov,
                                      const char* label) {
  sparse::CooBuilder builder(ov.num_source, ov.num_target);
  for (const IntersectionCell& c : ov.cells) {
    builder.Add(c.source, c.target, c.measure);
  }
  const sparse::CsrMatrix want = builder.Build();
  const sparse::CsrMatrix got = ov.MeasureDm();
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  EXPECT_TRUE(got.row_ptr() == want.row_ptr()) << label;
  EXPECT_TRUE(got.col_idx() == want.col_idx()) << label;
  ASSERT_EQ(got.nnz(), want.nnz()) << label;
  EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                        got.nnz() * sizeof(double)),
            0)
      << label;
}

TEST(OverlayResult, MeasureDmMatchesCooBuilderBuild) {
  auto narrow = std::move(IntervalPartition::Create({0, 10, 20, 30, 40, 60}))
                    .ValueOrDie();
  auto wide = std::move(IntervalPartition::Create({0, 25, 60})).ValueOrDie();
  ExpectMeasureDmMatchesCooBuilder(
      std::move(OverlayIntervals(narrow, wide)).ValueOrDie(), "intervals");

  auto sx = std::move(IntervalPartition::Create({0, 3, 10})).ValueOrDie();
  auto sy = std::move(IntervalPartition::Create({0, 5, 7, 10})).ValueOrDie();
  auto tx = std::move(IntervalPartition::Create({0, 6, 10})).ValueOrDie();
  auto ty = std::move(IntervalPartition::Create({0, 2, 10})).ValueOrDie();
  auto sb = std::move(BoxPartition::Create({sx, sy})).ValueOrDie();
  auto tb = std::move(BoxPartition::Create({tx, ty})).ValueOrDie();
  ExpectMeasureDmMatchesCooBuilder(
      std::move(OverlayBoxes(sb, tb)).ValueOrDie(), "boxes");

  AtomSpace atoms;
  atoms.measures = {1.0, 2.5, 0.75, 4.0, 0.5, 3.0};
  auto sc = std::move(CellPartition::Create(&atoms, {0, 0, 1, 1, 2, 2}, 3))
                .ValueOrDie();
  auto tc = std::move(CellPartition::Create(&atoms, {0, 1, 1, 1, 1, 0}, 2))
                .ValueOrDie();
  ExpectMeasureDmMatchesCooBuilder(
      std::move(OverlayCells(sc, tc)).ValueOrDie(), "cells");

  Rng rng(72);
  std::vector<Point> sites;
  for (int i = 0; i < 25; ++i) {
    sites.push_back({rng.Uniform(0.0, 8.0), rng.Uniform(0.0, 8.0)});
  }
  auto rings = std::move(geom::VoronoiCells(sites, BBox(0, 0, 8, 8)))
                   .ValueOrDie();
  std::vector<Polygon> polys;
  for (auto& ring : rings) {
    if (ring.size() >= 3) polys.emplace_back(std::move(ring));
  }
  auto vor = std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
  PolygonPartition grid = MakeGridLayer(0.3, 0.1, 5, 5, 1.6);
  ExpectMeasureDmMatchesCooBuilder(
      std::move(OverlayPolygons(vor, grid, {.threads = 3})).ValueOrDie(),
      "polygons");

  // Hand-made cells with exact zeros of both signs: both builds drop
  // them, and a row left empty keeps an empty CSR row.
  OverlayResult zeros;
  zeros.num_source = 3;
  zeros.num_target = 2;
  zeros.cells = {{0, 0, 0.0}, {0, 1, 1e-300}, {1, 0, -0.0}, {2, 1, 2.0}};
  ExpectMeasureDmMatchesCooBuilder(zeros, "exact zeros");
}

TEST(Disaggregation, DmFromAtomValuesIsExact) {
  AtomSpace atoms = MakeAtoms(6);
  auto s = std::move(CellPartition::Create(&atoms, {0, 0, 1, 1, 2, 2}, 3)).ValueOrDie();
  auto t = std::move(CellPartition::Create(&atoms, {0, 1, 1, 1, 1, 0}, 2)).ValueOrDie();
  auto ov = std::move(OverlayCells(s, t)).ValueOrDie();
  linalg::Vector values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  auto dm = std::move(DmFromAtomValues(ov, values)).ValueOrDie();
  EXPECT_DOUBLE_EQ(dm.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(dm.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(dm.At(1, 1), 7.0);
  EXPECT_DOUBLE_EQ(dm.At(2, 0), 6.0);
  EXPECT_DOUBLE_EQ(dm.At(2, 1), 5.0);
  // Row sums match source aggregates; column sums match target.
  EXPECT_TRUE(linalg::AllClose(dm.RowSums(), s.AggregateAtomValues(values),
                               1e-12));
  EXPECT_TRUE(linalg::AllClose(dm.ColSums(), t.AggregateAtomValues(values),
                               1e-12));
}

TEST(Disaggregation, DmFromPointsMatchesManualCount) {
  PolygonPartition source = MakeGridLayer(0, 0, 2, 1, 1.0);  // two columns
  PolygonPartition target = MakeGridLayer(0, 0, 1, 2, 0.5);  // 1x2 of 0.5...
  // target: cells [0,0.5]x[0,0.5] and [0,0.5]x[0.5,1].
  std::vector<Point> pts = {{0.25, 0.25}, {0.25, 0.75}, {0.3, 0.2}};
  linalg::Vector w = {1.0, 1.0, 2.0};
  size_t dropped = 0;
  auto dm = std::move(DmFromPoints(source, target, pts, w, &dropped)).ValueOrDie();
  EXPECT_EQ(dropped, 0u);
  EXPECT_DOUBLE_EQ(dm.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(dm.At(0, 1), 1.0);
  // Points outside the target layer are dropped.
  std::vector<Point> outside = {{1.5, 0.9}};
  auto dm2 = std::move(DmFromPoints(source, target, outside, {1.0}, &dropped)).ValueOrDie();
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(dm2.nnz(), 0u);
}

TEST(Disaggregation, AggregatePoints) {
  PolygonPartition layer = MakeGridLayer(0, 0, 2, 2, 1.0);
  std::vector<Point> pts = {{0.5, 0.5}, {1.5, 0.5}, {1.5, 1.5}, {9.0, 9.0}};
  linalg::Vector w = {1.0, 2.0, 3.0, 4.0};
  size_t dropped = 0;
  linalg::Vector agg = AggregatePoints(layer, pts, w, &dropped);
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(agg, (linalg::Vector{1.0, 2.0, 0.0, 3.0}));
}

TEST(Disaggregation, CheckDmConsistency) {
  sparse::CooBuilder b(2, 2);
  b.Add(0, 0, 1.0);
  b.Add(0, 1, 2.0);
  b.Add(1, 0, 5.0);
  sparse::CsrMatrix dm = b.Build();
  EXPECT_TRUE(CheckDmConsistency(dm, {3.0, 5.0}).ok());
  EXPECT_FALSE(CheckDmConsistency(dm, {3.0, 6.0}).ok());
  EXPECT_FALSE(CheckDmConsistency(dm, {3.0}).ok());
  // Non-finite aggregates and DM values fail.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(CheckDmConsistency(dm, {3.0, nan}).ok());
  EXPECT_FALSE(CheckDmConsistency(dm, {inf, 5.0}).ok());
  sparse::CooBuilder nb(2, 2);
  nb.Add(0, 0, 1.0);
  nb.Add(0, 1, nan);
  nb.Add(1, 0, 5.0);
  EXPECT_FALSE(CheckDmConsistency(nb.Build(), {3.0, 5.0}).ok());
}

}  // namespace
}  // namespace geoalign::partition
