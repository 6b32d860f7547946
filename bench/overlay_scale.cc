// National-scale overlay construction benchmark: the legacy path
// (OverlayPolygonsReference: per-target queries of the source layer's
// box grid, per-pair fan recomputation) against the overlay engine
// (per-source queries of the target layer's box grid, in
// (source, target) order, cached target fans) on perturbed-grid ×
// Voronoi universes up to ~30k × 3k units. Both take their candidates
// from spatial::BoxGridIndex and run at one thread, so this cannot
// show a scaling defect; BM_OverlayPolygons in micro_substrates times
// the engine at 1, 2 and 4 threads.
//
// Each universe also checks the engine for BIT-identical cells against
// the reference and reports the engine's candidate count. The binary
// exits nonzero on any bit difference.
//
// Usage: overlay_scale [output.json]
//   GEOALIGN_BENCH_SCALE   rescales unit counts (default 1.0)
//   GEOALIGN_BENCH_REPS    timing repetitions   (default 3)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/float_eq.h"
#include "common/random.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "partition/overlay.h"

namespace geoalign {
namespace {

size_t Reps() {
  const char* env = std::getenv("GEOALIGN_BENCH_REPS");
  if (env == nullptr) return 3;
  long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : 3;
}

struct UniverseResult {
  std::string name;
  size_t source_units = 0;
  size_t target_units = 0;
  size_t candidate_pairs = 0;
  size_t cells = 0;
  double seconds_reference = 0.0;
  double seconds_engine = 0.0;
  double speedup_engine = 0.0;  // reference / engine
  bool bit_identical = true;
};

bool CellsBitIdentical(const partition::OverlayResult& a,
                       const partition::OverlayResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t k = 0; k < a.cells.size(); ++k) {
    if (a.cells[k].source != b.cells[k].source ||
        a.cells[k].target != b.cells[k].target ||
        !ExactlyEqual(a.cells[k].measure, b.cells[k].measure)) {
      return false;
    }
  }
  return true;
}

UniverseResult RunUniverse(const char* name, size_t source_units,
                           size_t target_units, uint64_t seed) {
  UniverseResult r;
  r.name = name;
  Rng rng(seed);
  partition::PolygonPartition source =
      bench::MakeGridLayer(rng, source_units, 100.0);
  partition::PolygonPartition target =
      bench::MakeVoronoiLayer(rng, target_units, 100.0);
  r.source_units = source.NumUnits();
  r.target_units = target.NumUnits();

  constexpr double kMinArea = 1e-9;
  auto time_best = [&](auto&& fn) {
    double best = 1e300;
    for (size_t rep = 0; rep < Reps(); ++rep) {
      obs::Stopwatch watch;
      fn();
      best = std::min(best, watch.ElapsedSeconds());
    }
    return best;
  };

  partition::OverlayResult ref_cells;
  r.seconds_reference = time_best([&] {
    ref_cells = std::move(partition::OverlayPolygonsReference(
                              source, target, kMinArea))
                    .ValueOrDie();
  });
  r.cells = ref_cells.cells.size();

  obs::Counter& pair_counter =
      obs::MetricsRegistry::Global().GetCounter("overlay.candidate_pairs");

  uint64_t pairs_before = pair_counter.Value();
  partition::OverlayResult engine_cells;
  r.seconds_engine = time_best([&] {
    engine_cells = std::move(partition::OverlayPolygons(
                                 source, target, {.min_area = kMinArea}))
                       .ValueOrDie();
  });
  r.candidate_pairs = static_cast<size_t>(
      (pair_counter.Value() - pairs_before) / Reps());
  r.bit_identical = CellsBitIdentical(engine_cells, ref_cells);
  r.speedup_engine = r.seconds_reference / r.seconds_engine;
  return r;
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using namespace geoalign;
  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_overlay_construction.json";
  obs::SetEnabled(true);
  double scale = bench::BenchScale();

  struct Config {
    const char* name;
    size_t source_units;
    size_t target_units;
  };
  const std::vector<Config> configs = {
      {"small_2.5k_x_250", 2500, 250},
      {"medium_10k_x_1k", 10000, 1000},
      {"large_30k_x_3k", 30000, 3000},
  };

  std::vector<UniverseResult> results;
  for (const Config& c : configs) {
    size_t su = std::max<size_t>(
        16, static_cast<size_t>(static_cast<double>(c.source_units) * scale));
    size_t tu = std::max<size_t>(
        4, static_cast<size_t>(static_cast<double>(c.target_units) * scale));
    std::printf("running %s (%zu x %zu units, scale %.3f)...\n", c.name, su,
                tu, scale);
    results.push_back(RunUniverse(c.name, su, tu, 20180610));
  }

  eval::TextTable table({"universe", "src", "tgt", "pairs", "cells",
                         "ref s", "engine s", "speedup", "bit-id"});
  bool all_identical = true;
  for (const UniverseResult& r : results) {
    table.Row()
        .Text(r.name)
        .Num(static_cast<double>(r.source_units))
        .Num(static_cast<double>(r.target_units))
        .Num(static_cast<double>(r.candidate_pairs))
        .Num(static_cast<double>(r.cells))
        .Num(r.seconds_reference)
        .Num(r.seconds_engine)
        .Num(r.speedup_engine)
        .Text(r.bit_identical ? "yes" : "NO");
    all_identical &= r.bit_identical;
  }
  table.Print();
  std::printf("\nbit-identity (engine vs reference): %s\n",
              all_identical ? "PASS" : "FAIL");

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::time_t now = std::time(nullptr);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%d", std::gmtime(&now));
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"overlay_construction\",\n");
  std::fprintf(f, "  \"date\": \"%s\",\n", stamp);
  std::fprintf(f, "  \"bench_scale\": %.4f,\n", scale);
  std::fprintf(f, "  \"repetitions\": %zu,\n", Reps());
  std::fprintf(f, "  \"bit_identical_all\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"universes\": {\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const UniverseResult& r = results[i];
    std::fprintf(
        f,
        "    \"%s\": {\"source_units\": %zu, \"target_units\": %zu, "
        "\"candidate_pairs\": %zu, \"cells\": %zu,\n"
        "      \"seconds_reference\": %.6e, \"seconds_engine\": %.6e, "
        "\"speedup_engine\": %.3f, \"bit_identical\": %s}%s\n",
        r.name.c_str(), r.source_units, r.target_units, r.candidate_pairs,
        r.cells, r.seconds_reference, r.seconds_engine, r.speedup_engine,
        r.bit_identical ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return all_identical ? 0 : 1;
}
