// Differential gates for the geometric overlay engine
// (partition/overlay.cc): the engine must be BIT-identical to
// OverlayPolygonsReference (the pre-engine per-target query +
// per-pair IntersectionArea path) over every universe shape × thread
// count, and its candidate pairs must be the brute-force bbox join.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/float_eq.h"
#include "common/random.h"
#include "geom/voronoi.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "partition/overlay.h"
#include "spatial/grid_index.h"

namespace geoalign::partition {
namespace {

// Voronoi layer: convex hole-free cells (the paper's zip/county shape).
PolygonPartition MakeVoronoiLayer(Rng& rng, size_t n,
                                  const geom::BBox& world) {
  std::vector<geom::Point> sites;
  for (size_t i = 0; i < n; ++i) {
    sites.push_back({rng.Uniform(world.min_x + 0.2, world.max_x - 0.2),
                     rng.Uniform(world.min_y + 0.2, world.max_y - 0.2)});
  }
  auto rings = std::move(geom::VoronoiCells(sites, world)).ValueOrDie();
  std::vector<geom::Polygon> polys;
  for (auto& r : rings) {
    if (r.size() >= 3) polys.emplace_back(std::move(r));
  }
  return std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
}

// Perturbed-grid layer; optional square holes make units non-convex.
PolygonPartition MakeGridLayer(Rng& rng, size_t nx, size_t ny,
                               double world, bool with_holes) {
  double dx = world / static_cast<double>(nx);
  double dy = world / static_cast<double>(ny);
  std::vector<geom::Polygon> polys;
  for (size_t gy = 0; gy < ny; ++gy) {
    for (size_t gx = 0; gx < nx; ++gx) {
      double x0 = static_cast<double>(gx) * dx;
      double y0 = static_cast<double>(gy) * dy;
      double j = rng.Uniform(0.0, 0.08 * dx);
      geom::Ring outer = {{x0 + j, y0},
                          {x0 + dx, y0 + j},
                          {x0 + dx - j, y0 + dy},
                          {x0, y0 + dy - j}};
      std::vector<geom::Ring> holes;
      if (with_holes && (gx + gy) % 3 == 0) {
        double cx = x0 + 0.5 * dx;
        double cy = y0 + 0.5 * dy;
        double h = 0.15 * std::min(dx, dy);
        // CW hole ring (Polygon::Create normalizes orientation).
        holes.push_back({{cx - h, cy - h},
                         {cx - h, cy + h},
                         {cx + h, cy + h},
                         {cx + h, cy - h}});
      }
      polys.push_back(std::move(geom::Polygon::Create(std::move(outer),
                                                      std::move(holes)))
                          .ValueOrDie());
    }
  }
  return std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
}

// Small L-shaped islands strictly inside the cells of a coarse grid:
// many candidate pairs have one polygon wholly inside the other, and
// the L makes every island non-convex.
PolygonPartition MakeIslandLayer(Rng& rng, size_t nx, size_t ny,
                                 double world) {
  double dx = world / static_cast<double>(nx);
  double dy = world / static_cast<double>(ny);
  std::vector<geom::Polygon> polys;
  for (size_t gy = 0; gy < ny; ++gy) {
    for (size_t gx = 0; gx < nx; ++gx) {
      double cx = (static_cast<double>(gx) + 0.5) * dx +
                  rng.Uniform(-0.1 * dx, 0.1 * dx);
      double cy = (static_cast<double>(gy) + 0.5) * dy +
                  rng.Uniform(-0.1 * dy, 0.1 * dy);
      double h = rng.Uniform(0.1, 0.25) * std::min(dx, dy);
      polys.emplace_back(geom::Ring{
          {cx - h, cy - h}, {cx + h, cy - h}, {cx + h, cy},
          {cx, cy}, {cx, cy + h}, {cx - h, cy + h}});
    }
  }
  return std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
}

void ExpectBitIdentical(const OverlayResult& got, const OverlayResult& want,
                        const char* label) {
  ASSERT_EQ(got.cells.size(), want.cells.size()) << label;
  for (size_t k = 0; k < got.cells.size(); ++k) {
    EXPECT_EQ(got.cells[k].source, want.cells[k].source) << label << " " << k;
    EXPECT_EQ(got.cells[k].target, want.cells[k].target) << label << " " << k;
    EXPECT_TRUE(ExactlyEqual(got.cells[k].measure,
                                     want.cells[k].measure))
        << label << " cell " << k << ": " << got.cells[k].measure << " vs "
        << want.cells[k].measure;
  }
}

struct Universe {
  const char* name;
  PolygonPartition source;
  PolygonPartition target;
};

// The last two universes reach the engine's chunking: one has enough
// candidate pairs for both passes to run many chunks, and one has a
// coarse source whose units' pairs each span several pair chunks, so
// a source fan is recomputed across a chunk boundary.
std::vector<Universe> MakeUniverses() {
  Rng rng(9100);
  geom::BBox world(0, 0, 10, 10);
  std::vector<Universe> universes;
  universes.push_back({"voronoi x voronoi", MakeVoronoiLayer(rng, 60, world),
                       MakeVoronoiLayer(rng, 13, world)});
  universes.push_back({"grid x voronoi",
                       MakeGridLayer(rng, 9, 9, 10.0, /*with_holes=*/false),
                       MakeVoronoiLayer(rng, 8, world)});
  universes.push_back({"holey grid x shifted grid",
                       MakeGridLayer(rng, 8, 8, 10.0, /*with_holes=*/true),
                       MakeGridLayer(rng, 5, 5, 10.0, /*with_holes=*/false)});
  universes.push_back({"voronoi x islands", MakeVoronoiLayer(rng, 6, world),
                       MakeIslandLayer(rng, 7, 7, 10.0)});
  universes.push_back({"fine grid x voronoi",
                       MakeGridLayer(rng, 60, 60, 10.0, /*with_holes=*/false),
                       MakeVoronoiLayer(rng, 300, world)});
  universes.push_back({"coarse voronoi x holey grid",
                       MakeVoronoiLayer(rng, 8, world),
                       MakeGridLayer(rng, 32, 32, 10.0, /*with_holes=*/true)});
  return universes;
}

// Candidate pairs per source unit by brute force: the unit pairs whose
// closed bounding boxes meet, the set the engine must clip.
std::vector<size_t> BruteForceCandidatesPerSource(
    const PolygonPartition& source, const PolygonPartition& target) {
  std::vector<size_t> counts(source.NumUnits(), 0);
  for (size_t i = 0; i < source.NumUnits(); ++i) {
    for (size_t j = 0; j < target.NumUnits(); ++j) {
      if (source.unit(i).Bounds().Intersects(target.unit(j).Bounds())) {
        ++counts[i];
      }
    }
  }
  return counts;
}

size_t Sum(const std::vector<size_t>& v) {
  size_t total = 0;
  for (size_t x : v) total += x;
  return total;
}

TEST(OverlayEngineTest, BitIdenticalToReferenceAcrossUniversesAndThreads) {
  std::vector<Universe> universes = MakeUniverses();
  // The chunking universes have the shapes they are named for.
  const std::vector<size_t> fine =
      BruteForceCandidatesPerSource(universes[4].source, universes[4].target);
  EXPECT_GT(Sum(fine), 5000u);
  const Universe& coarse = universes[5];
  EXPECT_LE(coarse.source.NumUnits(), 10u);
  EXPECT_GE(coarse.target.NumUnits(), 1000u);
  const std::vector<size_t> per_source =
      BruteForceCandidatesPerSource(coarse.source, coarse.target);
  EXPECT_GT(*std::max_element(per_source.begin(), per_source.end()), 128u);

  for (const Universe& u : universes) {
    OverlayResult ref = std::move(OverlayPolygonsReference(
                            u.source, u.target, /*min_area=*/1e-9))
                            .ValueOrDie();
    ASSERT_FALSE(ref.cells.empty()) << u.name;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
      OverlayOptions opts;
      opts.min_area = 1e-9;
      opts.threads = threads;
      OverlayResult got =
          std::move(OverlayPolygons(u.source, u.target, opts)).ValueOrDie();
      ExpectBitIdentical(got, ref, u.name);
    }
  }
}

TEST(OverlayEngineTest, CandidatePairsEqualBruteForceBboxJoin) {
  const bool saved_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter& candidates =
      obs::MetricsRegistry::Global().GetCounter("overlay.candidate_pairs");
  for (const Universe& u : MakeUniverses()) {
    const size_t want =
        Sum(BruteForceCandidatesPerSource(u.source, u.target));
    for (size_t threads : {size_t{1}, size_t{3}}) {
      const uint64_t before = candidates.Value();
      OverlayOptions opts;
      opts.threads = threads;
      ASSERT_TRUE(OverlayPolygons(u.source, u.target, opts).ok()) << u.name;
      EXPECT_EQ(candidates.Value() - before, want)
          << u.name << " threads " << threads;
    }
  }
  obs::SetEnabled(saved_enabled);
}

// The candidate query has one form, into a caller's buffer: a buffer
// reused across queries must read as a fresh one does, which is the
// brute-force join in ascending id, for box and point queries alike.
TEST(OverlayEngineTest, QueryBufferOverloadsMatchReturningOverloads) {
  Rng rng(9600);
  std::vector<geom::BBox> boxes;
  for (size_t i = 0; i < 200; ++i) {
    double x = rng.Uniform(0.0, 30.0);
    double y = rng.Uniform(0.0, 30.0);
    boxes.emplace_back(x, y, x + rng.Uniform(0.1, 4.0),
                       y + rng.Uniform(0.1, 4.0));
  }
  spatial::BoxGridIndex index(boxes);
  std::vector<uint32_t> reused;
  auto check = [&](const geom::BBox& query, int q) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < boxes.size(); ++i) {
      if (boxes[i].Intersects(query)) expected.push_back(i);
    }
    std::vector<uint32_t> fresh;
    index.Query(query, &fresh);
    index.Query(query, &reused);
    EXPECT_EQ(fresh, expected) << "query " << q;
    EXPECT_EQ(reused, expected) << "query " << q;
  };
  for (int q = 0; q < 40; ++q) {
    double x = rng.Uniform(-2.0, 30.0);
    double y = rng.Uniform(-2.0, 30.0);
    check(geom::BBox(x, y, x + rng.Uniform(0.1, 8.0),
                     y + rng.Uniform(0.1, 8.0)), q);
    check(geom::BBox(x, y, x, y), q);
  }
}

}  // namespace
}  // namespace geoalign::partition
