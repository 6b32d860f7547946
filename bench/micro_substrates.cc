// Microbenchmarks for the substrate libraries: the constrained
// least-squares solvers, sparse kernels, overlay construction, spatial
// indexes, and polygon clipping. These are the building blocks whose
// costs the scaling study (Fig. 6) aggregates.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "geom/boolean_ops.h"
#include "geom/voronoi.h"
#include "linalg/nnls.h"
#include "linalg/simplex_ls.h"
#include "partition/overlay.h"
#include "spatial/rtree.h"
#include "sparse/coo_builder.h"
#include "sparse/prepared_reference.h"
#include "sparse/sparse_ops.h"
#include "core/batch.h"
#include "core/geoalign.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

void BM_SimplexLs(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t n = static_cast<size_t>(state.range(1));
  Rng rng(1);
  linalg::Matrix a(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.Uniform(0.0, 1.0);
  }
  linalg::Vector b(m);
  for (double& v : b) v = rng.Uniform(0.0, 1.0);
  for (auto _ : state) {
    auto sol = linalg::SolveSimplexLeastSquares(a, b);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_SimplexLs)->Args({2000, 4})->Args({30000, 9})->Args({30000, 16});

void BM_Nnls(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  Rng rng(2);
  linalg::Matrix a(m, 8);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < 8; ++j) a(i, j) = rng.Gaussian(0.0, 1.0);
  }
  linalg::Vector b(m);
  for (double& v : b) v = rng.Gaussian(0.0, 1.0);
  for (auto _ : state) {
    auto sol = linalg::SolveNnls(a, b);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_Nnls)->Arg(2000)->Arg(30000);

sparse::CsrMatrix RandomDm(size_t rows, size_t cols, size_t nnz_per_row,
                           uint64_t seed) {
  Rng rng(seed);
  sparse::CooBuilder b(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t k = 0; k < nnz_per_row; ++k) {
      b.Add(i, rng.UniformInt(uint64_t{cols}), rng.Uniform(0.5, 10.0));
    }
  }
  return b.Build();
}

void BM_SparseWeightedSum(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  std::vector<sparse::CsrMatrix> mats;
  std::vector<const sparse::CsrMatrix*> ptrs;
  for (int k = 0; k < 9; ++k) {
    mats.push_back(RandomDm(rows, rows / 10 + 1, 3, 10 + k));
  }
  for (const auto& m : mats) ptrs.push_back(&m);
  linalg::Vector w(9, 1.0 / 9.0);
  for (auto _ : state) {
    auto sum = sparse::WeightedSum(ptrs, w);
    benchmark::DoNotOptimize(sum);
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_SparseWeightedSum)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(30000)
    ->Complexity(benchmark::oN);

// The content hash behind plan fingerprints and PlanCache keys, over
// a buffer about the size of the US suite's reference bytes (~8.6 MB
// for 9 references). Reports bytes/s.
void BM_ContentFingerprint(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> buffer(bytes / sizeof(double));
  for (double& v : buffer) v = rng.Uniform(0.0, 1e6);
  for (auto _ : state) {
    sparse::ContentHash hash;
    hash.MixDoubles(buffer);
    benchmark::DoNotOptimize(hash.Finish());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buffer.size() * sizeof(double)));
}
BENCHMARK(BM_ContentFingerprint)
    ->Arg(8 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_OverlayCells(benchmark::State& state) {
  synth::UniverseOptions opts;
  opts.scale = static_cast<double>(state.range(0)) / 100.0;
  auto uni = synth::BuildUniverse(synth::UniverseId::kNortheast, opts);
  uni.status().CheckOK();
  for (auto _ : state) {
    auto ov = partition::OverlayCells(uni->geography->zips(),
                                      uni->geography->counties());
    benchmark::DoNotOptimize(ov);
  }
  state.counters["zips"] = static_cast<double>(uni->NumZips());
}
BENCHMARK(BM_OverlayCells)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_RTreeQuery(benchmark::State& state) {
  Rng rng(3);
  std::vector<geom::BBox> boxes;
  size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    double x = rng.Uniform(0.0, 1000.0);
    double y = rng.Uniform(0.0, 1000.0);
    boxes.emplace_back(x, y, x + 2.0, y + 2.0);
  }
  spatial::RTree tree(boxes);
  size_t hit_count = 0;
  for (auto _ : state) {
    double x = rng.Uniform(0.0, 995.0);
    double y = rng.Uniform(0.0, 995.0);
    tree.Visit(geom::BBox(x, y, x + 5.0, y + 5.0), [&](uint32_t) {
      ++hit_count;
      return true;
    });
  }
  benchmark::DoNotOptimize(hit_count);
}
BENCHMARK(BM_RTreeQuery)->Arg(10000)->Arg(100000);

void BM_PolygonIntersectionArea(benchmark::State& state) {
  int verts = static_cast<int>(state.range(0));
  geom::Polygon a = geom::Polygon::RegularNgon({0.0, 0.0}, 1.0, verts, 0.1);
  geom::Polygon b = geom::Polygon::RegularNgon({0.4, 0.3}, 1.0, verts, 0.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::IntersectionArea(a, b));
  }
}
BENCHMARK(BM_PolygonIntersectionArea)->Arg(8)->Arg(32)->Arg(128);

void BM_Voronoi(benchmark::State& state) {
  Rng rng(4);
  size_t n = static_cast<size_t>(state.range(0));
  geom::BBox box(0, 0, 100, 100);
  std::vector<geom::Point> sites;
  for (size_t i = 0; i < n; ++i) {
    sites.push_back({rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)});
  }
  for (auto _ : state) {
    auto cells = geom::VoronoiCells(sites, box);
    benchmark::DoNotOptimize(cells);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Voronoi)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_CrosswalkLoop(benchmark::State& state) {
  synth::UniverseOptions opts;
  opts.scale = 0.25;
  auto uni = synth::BuildUniverse(synth::UniverseId::kNortheast, opts);
  uni.status().CheckOK();
  auto input0 = std::move(uni->MakeLeaveOneOutInput(0)).ValueOrDie();
  core::GeoAlign geoalign;
  // Inputs prepared outside the timed region, so the comparison with
  // the batch API isolates the per-objective recomputation cost (not
  // reference copying).
  std::vector<core::CrosswalkInput> inputs;
  for (const auto& d : uni->datasets) {
    core::CrosswalkInput input;
    input.objective_source = d.source;
    input.references = input0.references;
    inputs.push_back(std::move(input));
  }
  for (auto _ : state) {
    for (const core::CrosswalkInput& input : inputs) {
      auto res = geoalign.Crosswalk(input);
      res.status().CheckOK();
      benchmark::DoNotOptimize(res->target_estimates.data());
    }
  }
}
BENCHMARK(BM_CrosswalkLoop)->Unit(benchmark::kMillisecond);

void BM_CrosswalkBatch(benchmark::State& state) {
  synth::UniverseOptions opts;
  opts.scale = 0.25;
  auto uni = synth::BuildUniverse(synth::UniverseId::kNortheast, opts);
  uni.status().CheckOK();
  auto input0 = std::move(uni->MakeLeaveOneOutInput(0)).ValueOrDie();
  auto batch = std::move(core::BatchCrosswalk::Create(input0.references)).ValueOrDie();
  std::vector<core::BatchCrosswalk::Objective> objectives;
  for (const auto& d : uni->datasets) {
    objectives.push_back({d.name, d.source});
  }
  for (auto _ : state) {
    auto res = batch.Run(objectives);
    res.status().CheckOK();
    benchmark::DoNotOptimize(res->size());
  }
}
BENCHMARK(BM_CrosswalkBatch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace geoalign

BENCHMARK_MAIN();
