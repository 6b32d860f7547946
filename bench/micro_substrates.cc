// Microbenchmarks for the substrate libraries: the constrained
// least-squares solvers, sparse kernels, overlay construction, spatial
// indexes, polygon clipping, the aggregates-only execute lanes, the
// two compile ingest paths, the PlanCache key, the one-column execute
// and unit-name resolution. These are the building blocks whose costs the scaling
// study (Fig. 6) aggregates.
// GEOALIGN_BENCH_SCALE rescales the US universe the lane and ingest
// benchmarks run on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <string>

#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/unit_index.h"
#include "geom/boolean_ops.h"
#include "geom/voronoi.h"
#include "linalg/nnls.h"
#include "linalg/simplex_ls.h"
#include "partition/disaggregation.h"
#include "partition/overlay.h"
#include "spatial/grid_index.h"
#include "sparse/coo_builder.h"
#include "sparse/prepared_reference.h"
#include "sparse/sparse_ops.h"
#include "sparse/simd/isa.h"
#include "sparse/simd/panel_kernels.h"
#include "core/batch.h"
#include "core/crosswalk_plan.h"
#include "core/geoalign.h"
#include "core/plan_cache.h"
#include "synth/point_process.h"
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

// The box grid's query (ascending unique ids into a reused buffer) of
// a 5 x 5 box over 10k and 100k random 2 x 2 boxes.
void BM_BoxGridQuery(benchmark::State& state) {
  Rng rng(3);
  std::vector<geom::BBox> boxes;
  size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    double x = rng.Uniform(0.0, 1000.0);
    double y = rng.Uniform(0.0, 1000.0);
    boxes.emplace_back(x, y, x + 2.0, y + 2.0);
  }
  spatial::BoxGridIndex index(boxes);
  std::vector<uint32_t> hits;
  size_t hit_count = 0;
  for (auto _ : state) {
    double x = rng.Uniform(0.0, 995.0);
    double y = rng.Uniform(0.0, 995.0);
    index.Query(geom::BBox(x, y, x + 5.0, y + 5.0), &hits);
    hit_count += hits.size();
  }
  benchmark::DoNotOptimize(hit_count);
}
BENCHMARK(BM_BoxGridQuery)->Arg(10000)->Arg(100000);

// Point location in the DM build: DmFromPoints + AggregatePoints of
// 10k Gaussian-mixture points over overlay_scale's large universe, a
// 30k-quad grid source and a 3k-cell Voronoi target, built once.
// points_per_s counts each point once per call, as perfbench's
// partition.points_per_s does (20k points per iteration, 30k locates).
// The argument k warps the source layer's coordinates by t^k over the
// world (t = coordinate / world), the same points: at k = 3 units
// crowd the origin corner, so the cost of density skew is on record.
void BM_LocatePoints(benchmark::State& state) {
  struct Inputs {
    partition::PolygonPartition source;
    partition::PolygonPartition target;
    std::vector<geom::Point> points;
  };
  static const Inputs inputs = [] {
    Rng rng(20180610);
    partition::PolygonPartition source =
        bench::MakeGridLayer(rng, 30000, 100.0);
    partition::PolygonPartition target =
        bench::MakeVoronoiLayer(rng, 3000, 100.0);
    std::vector<synth::GaussianCluster> mixture;
    for (int c = 0; c < 6; ++c) {
      mixture.push_back({{rng.Uniform(10.0, 90.0), rng.Uniform(10.0, 90.0)},
                         rng.Uniform(3.0, 12.0), rng.Uniform(0.5, 2.0)});
    }
    std::vector<geom::Point> points = synth::SampleGaussianMixture(
        geom::BBox(0.1, 0.1, 99.9, 99.9), mixture, 10000, rng);
    return Inputs{std::move(source), std::move(target), std::move(points)};
  }();
  static std::map<int64_t, partition::PolygonPartition> warped;
  const int64_t k = state.range(0);
  if (k != 1 && warped.count(k) == 0) {
    std::vector<geom::Polygon> quads;
    for (size_t i = 0; i < inputs.source.NumUnits(); ++i) {
      geom::Ring ring = inputs.source.unit(i).outer();  // quads: no holes
      for (geom::Point& v : ring) {
        v = {100.0 * std::pow(v.x / 100.0, static_cast<double>(k)),
             100.0 * std::pow(v.y / 100.0, static_cast<double>(k))};
      }
      quads.emplace_back(std::move(ring));
    }
    warped.emplace(k, std::move(partition::PolygonPartition::Create(
                                    std::move(quads)))
                          .ValueOrDie());
  }
  const partition::PolygonPartition& source =
      k == 1 ? inputs.source : warped.at(k);
  const linalg::Vector weights(inputs.points.size(), 1.0);
  for (auto _ : state) {
    auto dm = partition::DmFromPoints(source, inputs.target, inputs.points,
                                      weights);
    linalg::Vector sums =
        partition::AggregatePoints(source, inputs.points, weights);
    benchmark::DoNotOptimize(dm);
    benchmark::DoNotOptimize(sums);
  }
  state.counters["points_per_s"] = benchmark::Counter(
      2.0 * static_cast<double>(inputs.points.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LocatePoints)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

// The overlay engine on overlay_scale's large universe, a 30k-quad
// grid source and a 3k-cell Voronoi target (BM_LocatePoints' layers),
// built once, at 1, 2 and 4 threads. overlay_scale times the engine at
// one thread only, so a scaling defect shows here and not there.
// cells_per_s counts the overlay's cells per wall-clock second.
void BM_OverlayPolygons(benchmark::State& state) {
  struct Layers {
    partition::PolygonPartition source;
    partition::PolygonPartition target;
  };
  static const Layers layers = [] {
    Rng rng(20180610);
    partition::PolygonPartition source =
        bench::MakeGridLayer(rng, 30000, 100.0);
    partition::PolygonPartition target =
        bench::MakeVoronoiLayer(rng, 3000, 100.0);
    return Layers{std::move(source), std::move(target)};
  }();
  partition::OverlayOptions options;
  options.threads = static_cast<size_t>(state.range(0));
  size_t cells = 0;
  for (auto _ : state) {
    auto overlay =
        partition::OverlayPolygons(layers.source, layers.target, options);
    cells = overlay->cells.size();
    benchmark::DoNotOptimize(overlay);
  }
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(cells) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OverlayPolygons)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

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

const synth::Universe& UsUniverse() {
  return bench::GetUniverse(synth::UniverseId::kUnitedStates,
                            synth::SuiteKind::kUnitedStates);
}

// The five dense US layers that perfbench's portal_us serves: their
// DMs cover every overlay cell, so they share one CSR structure.
std::vector<core::ReferenceAttribute> DenseUsLayers() {
  const synth::Universe& uni = UsUniverse();
  std::vector<core::ReferenceAttribute> refs;
  for (const char* name : {"Population", "USPS Residential Address",
                           "USPS Business Address", "Area (Sq. Miles)",
                           "Accidents"}) {
    const synth::Dataset& d = uni.datasets[uni.FindDataset(name).value()];
    refs.push_back({d.name, d.source, d.dm});
  }
  return refs;
}

// The aggregates-only execute over the five aligned dense US layers,
// 64 perturbed suite columns per iteration. Width 0 is the
// single-column Execute(kAggregatesOnly), the row kernel
// (sparse::DisaggregateRows); widths 1..16 run ExecutePanelWith in
// panels of that width. range(1) = 1 forces scalar dispatch, 0 runs
// the native ISA. Items are columns.
void BM_AggregatesLane(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  const synth::Universe& uni = UsUniverse();
  auto plan =
      core::CrosswalkPlan::Compile(DenseUsLayers(), core::GeoAlignOptions{});
  plan.status().CheckOK();
  if (!plan->references().aligned()) {
    state.SkipWithError("dense US layers are not aligned");
    return;
  }
  constexpr size_t kColumns = 64;
  Rng rng(41);
  std::vector<linalg::Vector> columns;
  for (size_t c = 0; c < kColumns; ++c) {
    linalg::Vector v = uni.datasets[c % uni.datasets.size()].source;
    for (double& x : v) x *= rng.Uniform(0.8, 1.2);
    columns.push_back(std::move(v));
  }

  std::optional<sparse::simd::ScopedForceIsa> force;
  if (state.range(1) != 0) force.emplace(sparse::simd::Isa::kScalar);
  state.SetLabel(sparse::simd::IsaName(sparse::simd::ActiveIsa()));
  core::ExecuteWorkspace ws;
  ws.Prepare(plan->workspace_spec());
  if (width > 0) ws.PreparePanel(plan->workspace_spec(), width);
  std::array<common::ColumnView, sparse::simd::kMaxPanelWidth> objs;
  std::array<std::optional<Result<core::CrosswalkResult>>,
             sparse::simd::kMaxPanelWidth>
      slots;
  std::array<std::optional<Result<core::CrosswalkResult>>*,
             sparse::simd::kMaxPanelWidth>
      outs;
  for (auto _ : state) {
    if (width == 0) {
      for (const linalg::Vector& column : columns) {
        auto res =
            plan->Execute(column, core::ExecuteOutput::kAggregatesOnly, &ws);
        res.status().CheckOK();
        benchmark::DoNotOptimize(res->target_estimates.data());
      }
      continue;
    }
    for (size_t base = 0; base < kColumns; base += width) {
      const size_t count = std::min(width, kColumns - base);
      for (size_t k = 0; k < count; ++k) {
        objs[k] = columns[base + k];
        slots[k].reset();
        outs[k] = &slots[k];
      }
      plan->ExecutePanelWith(objs.data(), outs.data(), count, &ws);
      for (size_t k = 0; k < count; ++k) {
        slots[k]->status().CheckOK();
        benchmark::DoNotOptimize((*slots[k])->target_estimates.data());
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kColumns));
}
BENCHMARK(BM_AggregatesLane)
    ->ArgsProduct({{0, 1, 2, 4, 8, 16}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Compile of the 9-reference US leave-one-out input 0 through the two
// ingest paths: 0 = the owning Compile, which copies every aggregate
// column into the plan; 1 = the view Compile, which copies none. Both
// share the input's DM arrays, whose blocks store their digests on the
// first compile, so the loop hashes only names and aggregates and
// reuses every stored DM digest.
void BM_CompileIngest(benchmark::State& state) {
  const bool view = state.range(0) != 0;
  core::CrosswalkInput input =
      std::move(UsUniverse().MakeLeaveOneOutInput(0)).ValueOrDie();
  const core::GeoAlignOptions options;
  auto compile = [&]() -> Result<core::CrosswalkPlan> {
    if (!view) return core::CrosswalkPlan::Compile(input.references, options);
    std::vector<core::ReferenceAttributeView> views;
    views.reserve(input.references.size());
    for (const core::ReferenceAttribute& ref : input.references) {
      views.push_back(
          {ref.name, ref.source_aggregates, ref.disaggregation, nullptr});
    }
    return core::CrosswalkPlan::Compile(std::move(views), options);
  };
  state.SetLabel(view ? "view" : "copy");
  for (auto _ : state) {
    Result<core::CrosswalkPlan> plan = compile();
    plan.status().CheckOK();
    benchmark::DoNotOptimize(plan->fingerprint());
  }
}
BENCHMARK(BM_CompileIngest)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// PlanCache::MakeKey over an 8-reference US leave-two-out subset (every
// suite dataset but the first two), the key each PlanCache lookup
// makes. The DMs are copies this bench alone holds, so a write through
// mutable_values() is in place. range(0) = 0 is warm: the digests are
// stored after the first key, as on a cache hit. 1 is cold: before each
// key, outside the timed region, every DM is written through
// mutable_values(), which drops its digest, so each key hashes every
// array. Bytes are the subset's aggregates and CSR arrays per key in
// both modes, so the two rates compare directly.
void BM_PlanCacheKey(benchmark::State& state) {
  const bool cold = state.range(0) != 0;
  const synth::Universe& uni = UsUniverse();
  std::vector<core::ReferenceAttribute> refs;
  size_t bytes = 0;
  for (size_t k = 2; k < uni.datasets.size(); ++k) {
    const synth::Dataset& d = uni.datasets[k];
    const sparse::CsrMatrix& dm = d.dm;
    refs.push_back(
        {d.name, d.source,
         std::move(sparse::CsrMatrix::FromCsrArrays(
                       dm.rows(), dm.cols(),
                       {dm.row_ptr().begin(), dm.row_ptr().end()},
                       {dm.col_idx().begin(), dm.col_idx().end()},
                       {dm.values().begin(), dm.values().end()}))
             .ValueOrDie()});
    bytes += d.source.size() * sizeof(double) +
             (dm.rows() + 1 + dm.nnz()) * sizeof(size_t) +
             dm.nnz() * sizeof(double);
  }
  const core::GeoAlignOptions options;
  state.SetLabel(cold ? "cold" : "warm");
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      for (core::ReferenceAttribute& ref : refs) {
        benchmark::DoNotOptimize(ref.disaggregation.mutable_values().data());
      }
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(core::PlanCache::MakeKey(refs, options));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_PlanCacheKey)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One CrosswalkPlan::Execute with the real β: the row kernel
// (sparse::DisaggregateRows) on both reference structures. range(0) =
// 0 is US leave-one-out input 0 (9 references, each DM with its own
// structure) with its own objective; 1 is the five aligned dense
// layers (one shared structure) with the suite's "Cemeteries" column,
// which none of them is. range(1) = 0 is ExecuteOutput::kFullDm, 1 is
// kAggregatesOnly.
void BM_ExecuteColumn(benchmark::State& state) {
  const bool aligned = state.range(0) != 0;
  const bool aggregates_only = state.range(1) != 0;
  const synth::Universe& uni = UsUniverse();
  core::CrosswalkInput input =
      std::move(uni.MakeLeaveOneOutInput(0)).ValueOrDie();
  if (aligned) {
    input.references = DenseUsLayers();
    input.objective_source =
        uni.datasets[uni.FindDataset("Cemeteries").value()].source;
  }
  auto plan = core::CrosswalkPlan::Compile(input, core::GeoAlignOptions{});
  plan.status().CheckOK();
  if (plan->references().aligned() != aligned) {
    state.SkipWithError("unexpected reference structure");
    return;
  }
  const core::ExecuteOutput output = aggregates_only
                                         ? core::ExecuteOutput::kAggregatesOnly
                                         : core::ExecuteOutput::kFullDm;
  state.SetLabel(std::string(aligned ? "aligned/" : "private/") +
                 (aggregates_only ? "aggregates_only" : "full_dm"));
  core::ExecuteWorkspace ws;
  ws.Prepare(plan->workspace_spec());
  for (auto _ : state) {
    auto res = plan->Execute(input.objective_source, output, &ws);
    res.status().CheckOK();
    benchmark::DoNotOptimize(res->target_estimates.data());
  }
}
BENCHMARK(BM_ExecuteColumn)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Resolves one full US source column, all 30,831 zip names in shuffled
// order, through common::UnitIndex: the loop CrosswalkPipeline runs per
// column (zero-fill, then `+=` by found index in column order). Time is
// per column; `lookups_per_s` counts names resolved.
void BM_ResolveColumn(benchmark::State& state) {
  constexpr size_t kUnits = 30831;
  std::vector<std::string> names;
  names.reserve(kUnits);
  for (size_t i = 0; i < kUnits; ++i) names.push_back(StrFormat("z%05zu", i));
  std::vector<std::pair<std::string, double>> column;
  column.reserve(kUnits);
  for (size_t i = 0; i < kUnits; ++i) {
    column.emplace_back(names[i], static_cast<double>(i));
  }
  Rng rng(43);
  rng.Shuffle(column);
  const common::UnitIndex index =
      std::move(common::UnitIndex::Create(std::move(names), "source"))
          .ValueOrDie();
  linalg::Vector out;
  for (auto _ : state) {
    out.assign(index.size(), 0.0);
    for (const auto& [name, value] : column) {
      const size_t i = index.Find(name);
      if (i == common::UnitIndex::kNotFound) {
        state.SkipWithError("unknown unit");
        return;
      }
      out[i] += value;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["lookups_per_s"] = benchmark::Counter(
      static_cast<double>(kUnits), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ResolveColumn)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace geoalign

BENCHMARK_MAIN();
