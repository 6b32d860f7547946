// Fused aggregates-only serving vs the materializing execute path:
// RealignMany over one shared compiled plan, comparing
//
//  * materializing — RealignMany(columns) with the default
//    ExecuteOutput::kFullDm: every column materializes DM̂_o (Eq. 14)
//    as a fresh CSR and reduces it to â_o^t (Eq. 17);
//  * fused — RealignMany(columns, ..., kAggregatesOnly): one pass over
//    the shared PreparedReferenceSet structure scattering straight
//    into the target accumulator, DM̂_o never allocated, all scratch
//    served from plan-spec'd reusable workspaces.
//
// Axes: universe size (nnz of the shared CSR structure) × reference
// count (dense synth layers extended by structure-preserving clones,
// so the set stays aligned and the fused kernel engages) × column
// count (64 and the GEOALIGN_BENCH_MAX_COLS cap). Every sample checks
// â_o^t / weights / zero_rows BIT-identical across the two arms and
// reads the execute.hot_path_allocs / execute.workspace_reuse
// counters across the timed fused reps (after a warmup pass); the
// exit code gates identity, alignment, and the zero-hot-allocation
// promise. Results go to BENCH_fused_execute.json.
//
// A third section sweeps the column-panel lane itself: panel widths
// {1, 4, 8, 16, 32, 64} × dispatch ISA (forced scalar vs the native
// BestSupportedIsa), driving CrosswalkPlan::ExecutePanelWith directly
// on the largest universe. Every (width, isa) cell is checked
// bit-identical against the width-1 forced-scalar oracle and must
// report zero hot-path allocations after warmup — the sweep measures
// throughput only; results are not allowed to move.
//
// Usage: fused_execute [output.json]
//   GEOALIGN_BENCH_SCALE     rescales the universes  (default 1.0)
//   GEOALIGN_BENCH_REPS      timing repetitions      (default 3)
//   GEOALIGN_BENCH_MAX_COLS  caps the column count   (default 512)

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/execute_workspace.h"
#include "core/geoalign.h"
#include "core/pipeline.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "sparse/coo_builder.h"
#include "sparse/simd/isa.h"
#include "sparse/simd/panel_kernels.h"

namespace geoalign {
namespace {

struct Sample {
  std::string universe;
  size_t zips = 0;
  size_t counties = 0;
  size_t references = 0;
  size_t shared_nnz = 0;  // nnz of the shared CSR structure
  size_t columns = 0;
  double materializing_seconds = 0.0;  // best of reps
  double fused_seconds = 0.0;          // best of reps
  double speedup = 1.0;
  uint64_t hot_path_allocs = 0;  // delta across timed fused reps
  uint64_t workspace_reuse = 0;  // delta across timed fused reps
  bool aligned = false;
  bool bit_identical = true;
};

size_t Reps() {
  const char* env = std::getenv("GEOALIGN_BENCH_REPS");
  if (env == nullptr) return 3;
  long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : 3;
}

size_t MaxCols() {
  const char* env = std::getenv("GEOALIGN_BENCH_MAX_COLS");
  if (env == nullptr) return 512;
  long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : 512;
}

std::vector<std::string> MakeUnitNames(const char* prefix, size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(StrFormat("%s%06zu", prefix, i));
  }
  return names;
}

// B full-length objective columns: deterministic multiplicative
// perturbations of the base objective, keyed by unit name.
std::vector<core::CrosswalkPipeline::Column> MakeColumns(
    const std::vector<std::string>& sources, const linalg::Vector& base,
    size_t count) {
  std::vector<core::CrosswalkPipeline::Column> columns;
  columns.reserve(count);
  for (size_t b = 0; b < count; ++b) {
    core::CrosswalkPipeline::Column col;
    col.reserve(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      double wobble =
          1.0 + 0.1 * std::sin(static_cast<double>(i * 31 + b * 17 + 1));
      col.emplace_back(sources[i], base[i] * wobble);
    }
    columns.push_back(std::move(col));
  }
  return columns;
}

// The same perturbed columns as MakeColumns, already resolved to
// source-order vectors — ExecutePanelWith's input shape (the sweep
// drives the plan directly, below the name-resolution layer).
std::vector<linalg::Vector> MakeObjectiveVectors(const linalg::Vector& base,
                                                size_t count) {
  std::vector<linalg::Vector> objectives;
  objectives.reserve(count);
  for (size_t b = 0; b < count; ++b) {
    linalg::Vector v(base.size(), 0.0);
    for (size_t i = 0; i < base.size(); ++i) {
      double wobble =
          1.0 + 0.1 * std::sin(static_cast<double>(i * 31 + b * 17 + 1));
      v[i] = base[i] * wobble;
    }
    objectives.push_back(std::move(v));
  }
  return objectives;
}

// `count` references sharing one CSR structure: the universe's dense
// layers (Poisson layers drop zero cells and would break alignment),
// extended past five by structure-preserving clones — same
// coordinates, values wobbled within (0.75, 1.25) so none cancels to
// zero, aggregates recomputed as the new row sums.
Result<std::vector<core::ReferenceAttribute>> MakeAlignedReferences(
    const synth::Universe& uni, size_t count, linalg::Vector* objective) {
  GEOALIGN_ASSIGN_OR_RETURN(size_t test_index, uni.FindDataset("Starbucks"));
  GEOALIGN_ASSIGN_OR_RETURN(core::CrosswalkInput input,
                            uni.MakeLeaveOneOutInput(test_index));
  *objective = std::move(input.objective_source);
  std::vector<core::ReferenceAttribute> refs;
  for (core::ReferenceAttribute& ref : input.references) {
    if (ref.name == "Accidents" || ref.name == "Area (Sq. Miles)" ||
        ref.name == "Population" || ref.name == "USPS Business Address" ||
        ref.name == "USPS Residential Address") {
      refs.push_back(std::move(ref));
    }
  }
  if (refs.empty()) {
    return Status::Internal("fused_execute: no dense layers in suite");
  }
  const size_t base = refs.size();
  while (refs.size() < count) {
    const size_t k = refs.size();
    const core::ReferenceAttribute& seed = refs[k % base];
    core::ReferenceAttribute clone;
    clone.name = seed.name + StrFormat(" clone %zu", k / base);
    const sparse::CsrMatrix& dm = seed.disaggregation;
    sparse::CooBuilder builder(dm.rows(), dm.cols());
    for (size_t r = 0; r < dm.rows(); ++r) {
      sparse::CsrMatrix::RowView row = dm.Row(r);
      for (size_t j = 0; j < row.size; ++j) {
        double wobble =
            1.0 + 0.25 * std::sin(static_cast<double>(k * 131 + r * 17 + j));
        builder.Add(r, row.cols[j], row.values[j] * wobble);
      }
    }
    clone.disaggregation = builder.Build();
    clone.source_aggregates = clone.disaggregation.RowSums();
    refs.push_back(std::move(clone));
  }
  refs.resize(std::min(count, refs.size()));
  return refs;
}

// Exact equality on everything the fused lane produces; the fused arm
// must additionally carry no DM at all.
bool BitIdenticalAggregates(const std::vector<core::CrosswalkResult>& fused,
                            const std::vector<core::CrosswalkResult>& mat) {
  if (fused.size() != mat.size()) return false;
  for (size_t i = 0; i < fused.size(); ++i) {
    if (fused[i].target_estimates != mat[i].target_estimates ||
        fused[i].weights != mat[i].weights ||
        fused[i].zero_rows != mat[i].zero_rows ||
        fused[i].estimated_dm.values().size() != 0 ||
        fused[i].estimated_dm.rows() != 0) {
      return false;
    }
  }
  return true;
}

Sample BenchOne(const synth::Universe& uni, size_t num_references,
                size_t num_columns) {
  Sample s;
  s.universe = uni.name;
  s.zips = uni.NumZips();
  s.counties = uni.NumCounties();
  s.references = num_references;
  s.columns = num_columns;
  s.materializing_seconds = 1e300;
  s.fused_seconds = 1e300;

  linalg::Vector objective;
  auto refs = MakeAlignedReferences(uni, num_references, &objective);
  refs.status().CheckOK();
  std::vector<std::string> sources = MakeUnitNames("z", objective.size());
  std::vector<std::string> targets =
      MakeUnitNames("c", refs->front().disaggregation.cols());
  std::vector<core::CrosswalkPipeline::Column> columns =
      MakeColumns(sources, objective, num_columns);

  core::GeoAlignOptions options;
  options.threads = 1;
  auto pipeline = core::CrosswalkPipeline::Create(
      sources, targets, *refs, std::make_shared<core::GeoAlign>(options));
  pipeline.status().CheckOK();
  if (pipeline->plan() == nullptr) {
    std::fprintf(stderr, "fused_execute: plan failed to compile\n");
    return s;
  }
  s.aligned = pipeline->plan()->references().aligned();
  s.shared_nnz = pipeline->plan()->references().dms()[0]->values().size();

  // Warmup both arms (also the arms for the identity check).
  auto mat = pipeline->RealignMany(columns, /*threads=*/1);
  mat.status().CheckOK();
  auto fused = pipeline->RealignMany(columns, /*threads=*/1,
                                     core::ExecuteOutput::kAggregatesOnly);
  fused.status().CheckOK();
  s.bit_identical = BitIdenticalAggregates(*fused, *mat);

  for (size_t rep = 0; rep < Reps(); ++rep) {
    obs::Stopwatch watch;
    auto res = pipeline->RealignMany(columns, /*threads=*/1);
    res.status().CheckOK();
    s.materializing_seconds =
        std::min(s.materializing_seconds, watch.ElapsedSeconds());
  }

  obs::Counter& allocs = obs::MetricsRegistry::Global().GetCounter(
      "execute.hot_path_allocs");
  obs::Counter& reuse = obs::MetricsRegistry::Global().GetCounter(
      "execute.workspace_reuse");
  uint64_t allocs_before = allocs.Value();
  uint64_t reuse_before = reuse.Value();
  for (size_t rep = 0; rep < Reps(); ++rep) {
    obs::Stopwatch watch;
    auto res = pipeline->RealignMany(columns, /*threads=*/1,
                                     core::ExecuteOutput::kAggregatesOnly);
    res.status().CheckOK();
    s.fused_seconds = std::min(s.fused_seconds, watch.ElapsedSeconds());
  }
  s.hot_path_allocs = allocs.Value() - allocs_before;
  s.workspace_reuse = reuse.Value() - reuse_before;
  s.speedup = s.materializing_seconds / s.fused_seconds;
  return s;
}

// ---- panel-width × ISA sweep ------------------------------------------

struct SweepSample {
  std::string isa;
  size_t width = 0;
  double seconds = 0.0;  // best of reps, all columns
  double cols_per_sec = 0.0;
  double speedup_vs_w1_scalar = 1.0;
  uint64_t hot_path_allocs = 0;  // delta across timed reps
  bool bit_identical = true;     // vs the width-1 forced-scalar oracle
};

// All columns through ExecutePanelWith in panels of `width`, one
// reusable workspace (the single-threaded serving pattern).
std::vector<core::CrosswalkResult> RunPanels(
    const core::CrosswalkPlan& plan,
    const std::vector<linalg::Vector>& objectives, size_t width,
    core::ExecuteWorkspace* ws) {
  const size_t n = objectives.size();
  std::vector<std::optional<Result<core::CrosswalkResult>>> slots(n);
  std::array<common::ColumnView, sparse::simd::kMaxPanelWidth> objs;
  std::array<std::optional<Result<core::CrosswalkResult>>*,
             sparse::simd::kMaxPanelWidth>
      outs;
  for (size_t base = 0; base < n; base += width) {
    const size_t count = std::min(width, n - base);
    for (size_t k = 0; k < count; ++k) {
      objs[k] = objectives[base + k];
      outs[k] = &slots[base + k];
    }
    plan.ExecutePanelWith(objs.data(), outs.data(), count, ws);
  }
  std::vector<core::CrosswalkResult> out;
  out.reserve(n);
  for (std::optional<Result<core::CrosswalkResult>>& slot : slots) {
    slot->status().CheckOK();
    out.push_back(std::move(*slot).value());
  }
  return out;
}

bool BitIdenticalResults(const std::vector<core::CrosswalkResult>& got,
                         const std::vector<core::CrosswalkResult>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].target_estimates != want[i].target_estimates ||
        got[i].weights != want[i].weights ||
        got[i].zero_rows != want[i].zero_rows) {
      return false;
    }
  }
  return true;
}

// Widths {1, 4, 8, 16, 32, 64} under forced-scalar dispatch and (when
// the machine has one) the native ISA. Every cell bit-checked against
// the width-1 scalar oracle; speedups are relative to that oracle's
// own timing, so the table reads as "what panel blocking + SIMD buy
// over the per-column scalar lane".
std::vector<SweepSample> PanelWidthSweep(
    const core::CrosswalkPlan& plan,
    const std::vector<linalg::Vector>& objectives) {
  obs::Counter& allocs = obs::MetricsRegistry::Global().GetCounter(
      "execute.hot_path_allocs");
  std::vector<sparse::simd::Isa> isas = {sparse::simd::Isa::kScalar};
  if (sparse::simd::BestSupportedIsa() != sparse::simd::Isa::kScalar) {
    isas.push_back(sparse::simd::BestSupportedIsa());
  }
  std::vector<core::CrosswalkResult> oracle;
  double oracle_seconds = 0.0;
  std::vector<SweepSample> sweep;
  for (sparse::simd::Isa isa : isas) {
    sparse::simd::ScopedForceIsa force(isa);
    for (size_t width : {size_t{1}, size_t{4}, size_t{8}, size_t{16},
                         size_t{32}, size_t{64}}) {
      SweepSample s;
      s.isa = sparse::simd::IsaName(isa);
      s.width = width;
      s.seconds = 1e300;
      core::ExecuteWorkspace ws;
      ws.Prepare(plan.workspace_spec(), /*slots=*/1);
      ws.PreparePanel(plan.workspace_spec(),
                      std::min(width, objectives.size()));
      std::vector<core::CrosswalkResult> results =
          RunPanels(plan, objectives, width, &ws);  // warmup + identity
      uint64_t allocs_before = allocs.Value();
      for (size_t rep = 0; rep < Reps(); ++rep) {
        obs::Stopwatch watch;
        RunPanels(plan, objectives, width, &ws);
        s.seconds = std::min(s.seconds, watch.ElapsedSeconds());
      }
      s.hot_path_allocs = allocs.Value() - allocs_before;
      s.cols_per_sec = static_cast<double>(objectives.size()) / s.seconds;
      if (oracle.empty()) {  // first cell: width 1, forced scalar
        oracle = std::move(results);
        oracle_seconds = s.seconds;
        s.bit_identical = true;
      } else {
        s.bit_identical = BitIdenticalResults(results, oracle);
      }
      s.speedup_vs_w1_scalar = oracle_seconds / s.seconds;
      sweep.push_back(std::move(s));
    }
  }
  return sweep;
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using namespace geoalign;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_fused_execute.json";

  // The alloc/reuse counters are the point of the bench; both arms pay
  // the same (shards-and-relaxed-atomics) telemetry cost.
  obs::SetEnabled(true);

  // nnz axis: two nested universes, same US suite (§4.3 subsetting).
  std::vector<const synth::Universe*> universes = {
      &bench::GetUniverse(synth::UniverseId::kNewYork,
                          synth::SuiteKind::kUnitedStates),
      &bench::GetUniverse(synth::UniverseId::kUnitedStates,
                          synth::SuiteKind::kUnitedStates)};
  std::vector<size_t> reference_counts = {2, 5, 10};
  std::vector<size_t> column_counts;
  for (size_t c : {size_t{64}, MaxCols()}) {
    if (c <= MaxCols() &&
        (column_counts.empty() || column_counts.back() != c)) {
      column_counts.push_back(c);
    }
  }

  std::printf("bench_scale %.3f, columns {", bench::BenchScale());
  for (size_t i = 0; i < column_counts.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", column_counts[i]);
  }
  std::printf("}, reps %zu\n", Reps());

  std::vector<Sample> samples;
  for (const synth::Universe* uni : universes) {
    for (size_t refs : reference_counts) {
      for (size_t columns : column_counts) {
        samples.push_back(BenchOne(*uni, refs, columns));
      }
    }
  }

  eval::TextTable table({"universe", "refs", "nnz", "cols",
                         "materializing s", "fused s", "speedup",
                         "hot allocs", "ws reuse", "bit-identical"});
  for (const Sample& s : samples) {
    table.Row()
        .Text(s.universe)
        .Num(static_cast<double>(s.references))
        .Num(static_cast<double>(s.shared_nnz))
        .Num(static_cast<double>(s.columns))
        .Num(s.materializing_seconds)
        .Num(s.fused_seconds)
        .Num(s.speedup)
        .Num(static_cast<double>(s.hot_path_allocs))
        .Num(static_cast<double>(s.workspace_reuse))
        .Text(s.bit_identical ? "yes" : "NO");
  }
  table.Print();

  // Panel-width × ISA sweep on the largest universe at the widest
  // column count: the panel lane driven directly, per-column scalar
  // (width 1, forced scalar) as the oracle and timing baseline.
  const synth::Universe& sweep_uni = *universes.back();
  linalg::Vector sweep_base;
  auto sweep_refs = MakeAlignedReferences(sweep_uni, 10, &sweep_base);
  sweep_refs.status().CheckOK();
  std::vector<std::string> sweep_sources =
      MakeUnitNames("z", sweep_base.size());
  std::vector<std::string> sweep_targets =
      MakeUnitNames("c", sweep_refs->front().disaggregation.cols());
  core::GeoAlignOptions sweep_options;
  sweep_options.threads = 1;
  auto sweep_pipeline = core::CrosswalkPipeline::Create(
      sweep_sources, sweep_targets, *sweep_refs,
      std::make_shared<core::GeoAlign>(sweep_options));
  sweep_pipeline.status().CheckOK();
  std::vector<linalg::Vector> sweep_objectives =
      MakeObjectiveVectors(sweep_base, column_counts.back());
  std::vector<SweepSample> sweep =
      PanelWidthSweep(*sweep_pipeline->plan(), sweep_objectives);

  std::printf("\npanel-width sweep: %s, refs 10, %zu columns "
              "(baseline: width 1, forced scalar)\n",
              sweep_uni.name.c_str(), sweep_objectives.size());
  eval::TextTable sweep_table({"isa", "width", "seconds", "cols/s",
                               "speedup", "hot allocs", "bit-identical"});
  for (const SweepSample& s : sweep) {
    sweep_table.Row()
        .Text(s.isa)
        .Num(static_cast<double>(s.width))
        .Num(s.seconds)
        .Num(s.cols_per_sec)
        .Num(s.speedup_vs_w1_scalar)
        .Num(static_cast<double>(s.hot_path_allocs))
        .Text(s.bit_identical ? "yes" : "NO");
  }
  sweep_table.Print();

  bool ok = true;
  for (const Sample& s : samples) {
    ok &= s.bit_identical && s.aligned && s.hot_path_allocs == 0;
  }
  for (const SweepSample& s : sweep) {
    ok &= s.bit_identical && s.hot_path_allocs == 0;
  }
  std::printf("\nbit-identity, alignment, and zero hot-path allocations "
              "after warmup: %s\n",
              ok ? "PASS" : "FAIL");

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::time_t now = std::time(nullptr);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%d", std::gmtime(&now));
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fused_execute\",\n");
  std::fprintf(f, "  \"date\": \"%s\",\n", stamp);
  std::fprintf(f, "  \"bench_scale\": %.4f,\n", bench::BenchScale());
  std::fprintf(f, "  \"repetitions\": %zu,\n", Reps());
  std::fprintf(f, "  \"all_checks_pass\": %s,\n", ok ? "true" : "false");
  std::fprintf(f, "  \"series\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(
        f,
        "    {\"universe\": \"%s\", \"zips\": %zu, \"counties\": %zu, "
        "\"references\": %zu, \"shared_nnz\": %zu, \"columns\": %zu, "
        "\"materializing_seconds\": %.6e, \"fused_seconds\": %.6e, "
        "\"materializing_cols_per_sec\": %.3f, "
        "\"fused_cols_per_sec\": %.3f, \"speedup\": %.3f, "
        "\"hot_path_allocs_after_warmup\": %llu, "
        "\"workspace_reuse\": %llu, \"aligned\": %s, "
        "\"bit_identical\": %s}%s\n",
        s.universe.c_str(), s.zips, s.counties, s.references, s.shared_nnz,
        s.columns, s.materializing_seconds, s.fused_seconds,
        static_cast<double>(s.columns) / s.materializing_seconds,
        static_cast<double>(s.columns) / s.fused_seconds, s.speedup,
        static_cast<unsigned long long>(s.hot_path_allocs),
        static_cast<unsigned long long>(s.workspace_reuse),
        s.aligned ? "true" : "false", s.bit_identical ? "true" : "false",
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"panel_sweep\": {\n");
  std::fprintf(f, "    \"universe\": \"%s\", \"references\": 10, "
              "\"columns\": %zu,\n",
              sweep_uni.name.c_str(), sweep_objectives.size());
  std::fprintf(f, "    \"baseline\": \"width 1, forced scalar\",\n");
  std::fprintf(f, "    \"cells\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepSample& s = sweep[i];
    std::fprintf(
        f,
        "      {\"isa\": \"%s\", \"width\": %zu, \"seconds\": %.6e, "
        "\"cols_per_sec\": %.3f, \"speedup_vs_w1_scalar\": %.3f, "
        "\"hot_path_allocs_after_warmup\": %llu, "
        "\"bit_identical\": %s}%s\n",
        s.isa.c_str(), s.width, s.seconds, s.cols_per_sec,
        s.speedup_vs_w1_scalar,
        static_cast<unsigned long long>(s.hot_path_allocs),
        s.bit_identical ? "true" : "false",
        i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return ok ? 0 : 1;
}
