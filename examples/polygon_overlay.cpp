// The geometric path: unit systems given as polygon layers (the GIS
// feature layers of paper Fig. 2). Voronoi "zips" and a rectangular
// "county" grid are overlaid with the R-tree + clipping pipeline; a
// clustered point attribute is aggregated into both layers, and
// GeoAlign is compared against areal weighting on realigning a second
// attribute. Demonstrates WKT export for interop with PostGIS/shapely.
//
// Build & run:   ./build/examples/polygon_overlay

#include <cstdio>

#include "common/random.h"
#include "core/areal_weighting.h"
#include "core/geoalign.h"
#include "eval/metrics.h"
#include "geom/voronoi.h"
#include "geom/wkt.h"
#include "partition/disaggregation.h"
#include "partition/overlay.h"
#include "synth/point_process.h"

using namespace geoalign;

int main() {
  Rng rng(42);
  geom::BBox world(0, 0, 100, 100);

  // "Zip" layer: Voronoi cells of 300 random sites.
  std::vector<geom::Point> sites;
  for (int i = 0; i < 300; ++i) {
    sites.push_back({rng.Uniform(0.5, 99.5), rng.Uniform(0.5, 99.5)});
  }
  auto rings = std::move(geom::VoronoiCells(sites, world)).ValueOrDie();
  std::vector<geom::Polygon> zip_polys;
  for (auto& ring : rings) zip_polys.emplace_back(std::move(ring));
  auto zips = std::move(partition::PolygonPartition::Create(zip_polys)).ValueOrDie();

  // "County" layer: a 5x5 grid.
  std::vector<geom::Polygon> county_polys;
  for (int j = 0; j < 5; ++j) {
    for (int i = 0; i < 5; ++i) {
      county_polys.push_back(geom::Polygon::FromBBox(
          geom::BBox(i * 20.0, j * 20.0, (i + 1) * 20.0, (j + 1) * 20.0)));
    }
  }
  auto counties = std::move(partition::PolygonPartition::Create(county_polys)).ValueOrDie();

  // Geometric overlay (intersection areas via polygon clipping).
  auto overlay = std::move(partition::OverlayPolygons(
                               zips, counties, {.min_area = 1e-9}))
                     .ValueOrDie();
  std::printf("overlay: %zu zips x %zu counties -> %zu intersection cells, "
              "area %.1f (world %.1f)\n",
              zips.NumUnits(), counties.NumUnits(), overlay.cells.size(),
              overlay.TotalMeasure(), world.Area());

  // Reference: a clustered "population" point process with known
  // per-intersection counts.
  auto pop_points = synth::SampleThomasProcess(world, 25, 300.0, 2.0, rng);
  linalg::Vector ones(pop_points.size(), 1.0);
  auto pop_dm = std::move(partition::DmFromPoints(zips, counties, pop_points,
                                                  ones)).ValueOrDie();
  core::ReferenceAttribute population;
  population.name = "population";
  population.disaggregation = pop_dm;
  population.source_aggregates = pop_dm.RowSums();

  // Objective: "restaurants" — a thinned, jittered copy of the
  // population (correlated but not identical). Its true county
  // aggregates are known for evaluation.
  auto rest_points = synth::ThinPoints(pop_points, 0.06, 1.5, world, rng);
  linalg::Vector rest_ones(rest_points.size(), 1.0);
  linalg::Vector objective =
      partition::AggregatePoints(zips, rest_points, rest_ones);
  linalg::Vector truth =
      partition::AggregatePoints(counties, rest_points, rest_ones);

  core::CrosswalkInput input;
  input.objective_source = objective;
  input.references.push_back(population);

  core::GeoAlign geoalign;
  auto ga = std::move(geoalign.Crosswalk(input)).ValueOrDie();
  core::ArealWeighting areal(overlay.MeasureDm());
  auto aw = std::move(areal.Crosswalk(input)).ValueOrDie();

  std::printf("\nrealigning %zu restaurants from zips to counties:\n",
              rest_points.size());
  std::printf("  GeoAlign (population reference)  NRMSE %.4f\n",
              eval::Nrmse(ga.target_estimates, truth));
  std::printf("  areal weighting (homogeneity)    NRMSE %.4f\n",
              eval::Nrmse(aw.target_estimates, truth));

  // WKT interop: export one zip polygon.
  std::printf("\nzip 0 as WKT (truncated): %.72s...\n",
              geom::ToWkt(zips.unit(0)).c_str());
  return 0;
}
