#ifndef GEOALIGN_BENCH_BENCH_UTIL_H_
#define GEOALIGN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "geom/voronoi.h"
#include "partition/polygon_partition.h"
#include "synth/universe.h"

namespace geoalign::bench {

/// Builds (and caches per id+suite) a paper-scale universe. The
/// GEOALIGN_BENCH_SCALE environment variable (default 1.0) rescales
/// every universe, letting CI smoke-run the full harness quickly.
inline double BenchScale() {
  const char* env = std::getenv("GEOALIGN_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

inline const synth::Universe& GetUniverse(
    synth::UniverseId id, std::optional<synth::SuiteKind> suite = {}) {
  struct Key {
    synth::UniverseId id;
    int suite;
  };
  static std::vector<std::pair<Key, std::unique_ptr<synth::Universe>>> cache;
  int suite_key = suite.has_value() ? static_cast<int>(*suite) : -1;
  for (auto& [key, uni] : cache) {
    if (key.id == id && key.suite == suite_key) return *uni;
  }
  synth::UniverseOptions opts;
  opts.scale = BenchScale();
  opts.seed = 2018;
  opts.suite = suite;
  auto built = synth::BuildUniverse(id, opts);
  built.status().CheckOK();
  cache.emplace_back(Key{id, suite_key}, std::make_unique<synth::Universe>(
                                             std::move(built).value()));
  return *cache.back().second;
}

/// About `n_units` jittered quads on a square grid over
/// [0, world]²: each cell holds one quad whose corners are pulled in
/// by a random fraction (up to 8%) of the cell size.
inline partition::PolygonPartition MakeGridLayer(Rng& rng, size_t n_units,
                                                 double world) {
  size_t nx = std::max<size_t>(
      2, static_cast<size_t>(std::lround(std::sqrt(
             static_cast<double>(n_units)))));
  double d = world / static_cast<double>(nx);
  std::vector<geom::Polygon> polys;
  polys.reserve(nx * nx);
  for (size_t gy = 0; gy < nx; ++gy) {
    for (size_t gx = 0; gx < nx; ++gx) {
      double x0 = static_cast<double>(gx) * d;
      double y0 = static_cast<double>(gy) * d;
      double j = rng.Uniform(0.0, 0.08 * d);
      polys.emplace_back(geom::Ring{{x0 + j, y0},
                                    {x0 + d, y0 + j},
                                    {x0 + d - j, y0 + d},
                                    {x0, y0 + d - j}});
    }
  }
  return std::move(partition::PolygonPartition::Create(std::move(polys)))
      .ValueOrDie();
}

/// The Voronoi cells of `n_units` uniform sites, clipped to
/// [0, world]².
inline partition::PolygonPartition MakeVoronoiLayer(Rng& rng, size_t n_units,
                                                    double world) {
  std::vector<geom::Point> sites;
  sites.reserve(n_units);
  for (size_t i = 0; i < n_units; ++i) {
    sites.push_back({rng.Uniform(0.01 * world, 0.99 * world),
                     rng.Uniform(0.01 * world, 0.99 * world)});
  }
  auto rings = std::move(geom::VoronoiCells(
                             sites, geom::BBox(0, 0, world, world)))
                   .ValueOrDie();
  std::vector<geom::Polygon> polys;
  polys.reserve(rings.size());
  for (auto& r : rings) {
    if (r.size() >= 3) polys.emplace_back(std::move(r));
  }
  return std::move(partition::PolygonPartition::Create(std::move(polys)))
      .ValueOrDie();
}

}  // namespace geoalign::bench

#endif  // GEOALIGN_BENCH_BENCH_UTIL_H_
