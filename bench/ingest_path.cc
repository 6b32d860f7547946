// Ingest-path cost of getting host-owned reference columns into a
// compiled plan, comparing the two Compile flavors on identical bytes:
//
//  * copy  — the owning path: host arrays are materialized into
//    ReferenceAttribute structs (CsrMatrix::FromCsrArrays copies the
//    CSR arrays, the aggregate column is copied into a linalg::Vector)
//    and `Compile(const std::vector<ReferenceAttribute>&, ...)` copies
//    each reference again into the prepared set, charging
//    `ingest.bytes_copied`;
//  * view  — the zero-copy path: ReferenceAttributeView wraps the same
//    host arrays (CsrMatrix::FromBorrowed + ColumnView) and
//    `Compile(std::vector<ReferenceAttributeView>, ...)` moves the
//    borrowed spans straight into the prepared set. The
//    `ingest.bytes_copied` delta MUST be zero — a nonzero delta is a
//    regression and fails the run.
//
// After compiling, both arms execute the same objective through a
// Prepare()d reusable workspace; the steady-state executes must report
// zero `execute.hot_path_allocs`, and the two arms' target estimates,
// weights, and plan fingerprints must be BIT-identical. The exit code
// reports identity AND the zero-copy/zero-alloc invariants. Results go
// to a BENCH_ingest_zero_copy.json trajectory file.
//
// Usage: ingest_path [output.json]
//   GEOALIGN_BENCH_SCALE     rescales source-unit count  (default 1.0)
//   GEOALIGN_BENCH_REPS      timing repetitions          (default 3)
//   GEOALIGN_BENCH_MAX_COLS  caps the reference counts   (default 512)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/span.h"
#include "common/string_util.h"
#include "core/crosswalk_plan.h"
#include "core/execute_workspace.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "eval/report.h"
#include "sparse/csr_matrix.h"

namespace geoalign {
namespace {

struct Sample {
  size_t references = 0;
  size_t source_units = 0;
  size_t target_units = 0;
  double copy_compile_seconds = 0.0;  // best of reps, build + Compile
  double view_compile_seconds = 0.0;
  uint64_t copy_bytes = 0;  // ingest.bytes_copied delta, one compile
  uint64_t view_bytes = 0;  // must be 0
  double copy_execute_seconds = 0.0;  // best of reps, warm workspace
  double view_execute_seconds = 0.0;
  uint64_t copy_hot_allocs = 0;  // hot_path_allocs delta, warm executes
  uint64_t view_hot_allocs = 0;
  double compile_speedup = 1.0;
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

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

// The host side of the benchmark: flat arrays a foreign runtime (or
// the C ABI) would own. One shared CSR structure (two entries per
// source row) carries every reference; per-reference value and
// aggregate columns are deterministic and consistent (aggregates are
// the exact row sums, so validation-equivalent ingest paths accept
// them bit-for-bit).
struct HostArrays {
  size_t sources = 0;
  size_t targets = 0;
  std::vector<size_t> row_ptr;
  std::vector<size_t> col_idx;
  std::vector<std::vector<double>> values;      // per reference
  std::vector<std::vector<double>> aggregates;  // per reference, row sums
  std::vector<double> objective;

  HostArrays(size_t num_sources, size_t num_targets, size_t num_refs)
      : sources(num_sources), targets(num_targets) {
    row_ptr.reserve(sources + 1);
    col_idx.reserve(2 * sources);
    row_ptr.push_back(0);
    for (size_t i = 0; i < sources; ++i) {
      size_t c1 = i % targets;
      size_t c2 = (i * 7 + 3) % targets;
      if (c2 == c1) c2 = (c1 + 1) % targets;
      col_idx.push_back(std::min(c1, c2));
      col_idx.push_back(std::max(c1, c2));
      row_ptr.push_back(col_idx.size());
    }
    values.resize(num_refs);
    aggregates.resize(num_refs);
    for (size_t k = 0; k < num_refs; ++k) {
      values[k].reserve(col_idx.size());
      aggregates[k].reserve(sources);
      for (size_t i = 0; i < sources; ++i) {
        double sum = 0.0;
        for (size_t j = row_ptr[i]; j < row_ptr[i + 1]; ++j) {
          double v = 1.0 + 0.5 * std::sin(static_cast<double>(
                                     i * 13 + k * 7 + j + 1));
          values[k].push_back(v);
          sum += v;
        }
        aggregates[k].push_back(sum);
      }
    }
    objective.reserve(sources);
    for (size_t i = 0; i < sources; ++i) {
      objective.push_back(10.0 + static_cast<double>(i % 7));
    }
  }

  size_t num_refs() const { return values.size(); }

  /// The owning ingest: copies everything into ReferenceAttribute.
  std::vector<core::ReferenceAttribute> BuildOwned() const {
    std::vector<core::ReferenceAttribute> refs(num_refs());
    for (size_t k = 0; k < num_refs(); ++k) {
      refs[k].name = StrFormat("ref%04zu", k);
      refs[k].source_aggregates = aggregates[k];
      refs[k].disaggregation =
          std::move(sparse::CsrMatrix::FromCsrArrays(
                        sources, targets, row_ptr, col_idx, values[k]))
              .ValueOrDie();
    }
    return refs;
  }

  /// The zero-copy ingest: borrows every array in place.
  std::vector<core::ReferenceAttributeView> BuildViews() const {
    std::vector<core::ReferenceAttributeView> views(num_refs());
    for (size_t k = 0; k < num_refs(); ++k) {
      views[k].name = StrFormat("ref%04zu", k);
      views[k].source_aggregates = common::ColumnView(aggregates[k]);
      sparse::CsrView cv;
      cv.rows = sources;
      cv.cols = targets;
      cv.row_ptr = common::ConstSpan<size_t>(row_ptr);
      cv.col_idx = common::ConstSpan<size_t>(col_idx);
      cv.values = common::ConstSpan<double>(values[k]);
      views[k].disaggregation =
          std::move(sparse::CsrMatrix::FromBorrowed(cv)).ValueOrDie();
    }
    return views;
  }
};

// Warm-workspace execute loop: one Prepare()d workspace, one warming
// call, then `reps` timed steady-state executes. Returns the last
// result; *seconds gets the best per-execute time and *hot_allocs the
// hot_path_allocs delta across the timed (post-warm) calls.
core::CrosswalkResult ExecuteWarm(const core::CrosswalkPlan& plan,
                                  common::ColumnView objective, size_t reps,
                                  double* seconds, uint64_t* hot_allocs) {
  core::ExecuteWorkspace ws;
  ws.Prepare(plan.workspace_spec());
  auto warm =
      plan.Execute(objective, core::ExecuteOutput::kAggregatesOnly, &ws);
  warm.status().CheckOK();
  const uint64_t allocs_before = CounterValue("execute.hot_path_allocs");
  *seconds = 1e300;
  core::CrosswalkResult last = std::move(warm).value();
  for (size_t rep = 0; rep < reps; ++rep) {
    obs::Stopwatch watch;
    auto res =
        plan.Execute(objective, core::ExecuteOutput::kAggregatesOnly, &ws);
    res.status().CheckOK();
    *seconds = std::min(*seconds, watch.ElapsedSeconds());
    last = std::move(res).value();
  }
  *hot_allocs = CounterValue("execute.hot_path_allocs") - allocs_before;
  return last;
}

Sample BenchOne(size_t num_sources, size_t num_targets, size_t num_refs) {
  const HostArrays host(num_sources, num_targets, num_refs);
  core::GeoAlignOptions options;
  options.threads = 1;
  // 512-reference design matrices make the simplex solve the dominant
  // cost; uniform weights keep the bench pointed at ingest + execute.
  options.solver = core::WeightSolver::kUniform;

  Sample s;
  s.references = num_refs;
  s.source_units = num_sources;
  s.target_units = num_targets;
  s.copy_compile_seconds = 1e300;
  s.view_compile_seconds = 1e300;

  std::vector<core::CrosswalkPlan> plans;  // [0]=copy, [1]=view
  for (size_t rep = 0; rep < Reps(); ++rep) {
    {
      const uint64_t bytes_before = CounterValue("ingest.bytes_copied");
      obs::Stopwatch watch;
      std::vector<core::ReferenceAttribute> refs = host.BuildOwned();
      auto plan = core::CrosswalkPlan::Compile(refs, options);
      plan.status().CheckOK();
      s.copy_compile_seconds =
          std::min(s.copy_compile_seconds, watch.ElapsedSeconds());
      if (rep == 0) {
        s.copy_bytes = CounterValue("ingest.bytes_copied") - bytes_before;
        plans.push_back(std::move(plan).value());
      }
    }
    {
      const uint64_t bytes_before = CounterValue("ingest.bytes_copied");
      obs::Stopwatch watch;
      auto plan = core::CrosswalkPlan::Compile(host.BuildViews(), options);
      plan.status().CheckOK();
      s.view_compile_seconds =
          std::min(s.view_compile_seconds, watch.ElapsedSeconds());
      if (rep == 0) {
        s.view_bytes = CounterValue("ingest.bytes_copied") - bytes_before;
        plans.push_back(std::move(plan).value());
      }
    }
  }
  // The view plans above borrow `host`, which outlives them (both die
  // at the end of this function) — the lifetime rule embedders follow.
  s.compile_speedup = s.copy_compile_seconds / s.view_compile_seconds;

  const common::ColumnView objective(host.objective);
  core::CrosswalkResult copy_res =
      ExecuteWarm(plans[0], objective, Reps(), &s.copy_execute_seconds,
                  &s.copy_hot_allocs);
  core::CrosswalkResult view_res =
      ExecuteWarm(plans[1], objective, Reps(), &s.view_execute_seconds,
                  &s.view_hot_allocs);

  s.bit_identical =
      plans[0].fingerprint() == plans[1].fingerprint() &&
      copy_res.target_estimates.size() == view_res.target_estimates.size() &&
      std::memcmp(copy_res.target_estimates.data(),
                  view_res.target_estimates.data(),
                  copy_res.target_estimates.size() * sizeof(double)) == 0 &&
      copy_res.weights.size() == view_res.weights.size() &&
      std::memcmp(copy_res.weights.data(), view_res.weights.data(),
                  copy_res.weights.size() * sizeof(double)) == 0;
  return s;
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using namespace geoalign;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_ingest_zero_copy.json";

  // The counters under measurement are no-ops while telemetry is off.
  obs::SetEnabled(true);

  const size_t sources = std::max<size_t>(
      64, static_cast<size_t>(2000.0 * bench::BenchScale()));
  const size_t targets = std::max<size_t>(8, sources / 4);

  std::vector<size_t> ref_counts;
  for (size_t n : {size_t{64}, size_t{512}}) {
    if (n <= MaxCols()) ref_counts.push_back(n);
  }
  if (ref_counts.empty()) ref_counts.push_back(MaxCols());

  std::printf("world: %zu sources -> %zu targets, reference counts", sources,
              targets);
  for (size_t n : ref_counts) std::printf(" %zu", n);
  std::printf(", scale %.3f\n", bench::BenchScale());

  std::vector<Sample> samples;
  for (size_t n : ref_counts) samples.push_back(BenchOne(sources, targets, n));

  eval::TextTable table({"references", "copy compile s", "view compile s",
                         "speedup", "copy bytes", "view bytes", "copy allocs",
                         "view allocs", "bit-identical"});
  for (const Sample& s : samples) {
    table.Row()
        .Num(static_cast<double>(s.references))
        .Num(s.copy_compile_seconds)
        .Num(s.view_compile_seconds)
        .Num(s.compile_speedup)
        .Num(static_cast<double>(s.copy_bytes))
        .Num(static_cast<double>(s.view_bytes))
        .Num(static_cast<double>(s.copy_hot_allocs))
        .Num(static_cast<double>(s.view_hot_allocs))
        .Text(s.bit_identical ? "yes" : "NO");
  }
  table.Print();

  bool ok = true;
  for (const Sample& s : samples) {
    if (!s.bit_identical) {
      std::printf("FAIL: arms drifted at %zu references\n", s.references);
      ok = false;
    }
    if (s.view_bytes != 0) {
      std::printf("FAIL: view ingest copied %llu bytes at %zu references\n",
                  static_cast<unsigned long long>(s.view_bytes),
                  s.references);
      ok = false;
    }
    if (s.copy_bytes == 0) {
      std::printf("FAIL: copy ingest charged no bytes at %zu references "
                  "(counter broken?)\n",
                  s.references);
      ok = false;
    }
    if (s.copy_hot_allocs != 0 || s.view_hot_allocs != 0) {
      std::printf("FAIL: warm executes grew buffers at %zu references\n",
                  s.references);
      ok = false;
    }
  }
  std::printf("\nzero-copy + zero-alloc + bit-identity: %s\n",
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
  std::fprintf(f, "  \"bench\": \"ingest_zero_copy\",\n");
  std::fprintf(f, "  \"date\": \"%s\",\n", stamp);
  std::fprintf(f, "  \"source_units\": %zu,\n", sources);
  std::fprintf(f, "  \"target_units\": %zu,\n", targets);
  std::fprintf(f, "  \"bench_scale\": %.4f,\n", bench::BenchScale());
  std::fprintf(f, "  \"repetitions\": %zu,\n", Reps());
  std::fprintf(f, "  \"invariants_hold\": %s,\n", ok ? "true" : "false");
  std::fprintf(f, "  \"series\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(
        f,
        "    {\"references\": %zu, "
        "\"copy_compile_seconds\": %.6e, \"view_compile_seconds\": %.6e, "
        "\"copy_refs_per_sec\": %.3f, \"view_refs_per_sec\": %.3f, "
        "\"compile_speedup\": %.3f, "
        "\"copy_bytes_copied\": %llu, \"view_bytes_copied\": %llu, "
        "\"copy_execute_seconds\": %.6e, \"view_execute_seconds\": %.6e, "
        "\"copy_hot_path_allocs\": %llu, \"view_hot_path_allocs\": %llu, "
        "\"bit_identical\": %s}%s\n",
        s.references, s.copy_compile_seconds, s.view_compile_seconds,
        static_cast<double>(s.references) / s.copy_compile_seconds,
        static_cast<double>(s.references) / s.view_compile_seconds,
        s.compile_speedup,
        static_cast<unsigned long long>(s.copy_bytes),
        static_cast<unsigned long long>(s.view_bytes),
        s.copy_execute_seconds, s.view_execute_seconds,
        static_cast<unsigned long long>(s.copy_hot_allocs),
        static_cast<unsigned long long>(s.view_hot_allocs),
        s.bit_identical ? "true" : "false",
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return ok ? 0 : 1;
}
