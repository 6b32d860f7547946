// Serving-path throughput of the compile/execute split: realigning B
// objective columns over one shared reference set, comparing
//
//  * legacy — the seed CrosswalkPipeline::Realign loop, replicated
//    faithfully: per column it rebuilds the name→index map, copies the
//    full reference list into a CrosswalkInput, and runs the
//    recompile-per-call oracle `CrosswalkUncompiled` (which redoes
//    normalization, design assembly, and the Gram matrix every time);
//  * compiled — CrosswalkPipeline::Create (the compile step, timed and
//    charged to this arm) followed by RealignMany over the shared
//    immutable CrosswalkPlan, threads = 1 so the comparison isolates
//    amortization, not parallelism.
//
// Every column's output is checked BIT-identical across the two arms;
// the exit code reports that identity. Results go to a
// BENCH_realign_throughput.json trajectory file.
//
// Usage: realign_throughput [output.json]
//   GEOALIGN_BENCH_SCALE     rescales the universe   (default 1.0)
//   GEOALIGN_BENCH_REPS      timing repetitions      (default 3)
//   GEOALIGN_BENCH_MAX_COLS  caps the column counts  (default 512)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "common/string_util.h"
#include "core/geoalign.h"
#include "core/pipeline.h"
#include "eval/report.h"

namespace geoalign {
namespace {

struct Sample {
  size_t columns = 0;
  double legacy_seconds = 0.0;    // best of reps, all columns
  double compiled_seconds = 0.0;  // best of reps, Create + RealignMany
  double compile_seconds = 0.0;   // Create alone (within the best rep)
  double speedup = 1.0;
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

// The seed pipeline's per-call path, reproduced outside the class: a
// fresh name→index map, a fresh CrosswalkInput holding a full copy of
// the references, and the recompile-per-call oracle.
Result<std::vector<core::CrosswalkResult>> RealignLegacy(
    const std::vector<std::string>& sources,
    const std::vector<core::ReferenceAttribute>& references,
    const std::vector<core::CrosswalkPipeline::Column>& columns,
    const core::GeoAlignOptions& options) {
  std::vector<core::CrosswalkResult> out;
  out.reserve(columns.size());
  for (const core::CrosswalkPipeline::Column& column : columns) {
    std::unordered_map<std::string, size_t> index;
    index.reserve(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) index.emplace(sources[i], i);
    core::CrosswalkInput input;
    input.objective_source.assign(sources.size(), 0.0);
    for (const auto& [unit, value] : column) {
      auto it = index.find(unit);
      if (it == index.end()) {
        return Status::NotFound("realign_throughput: unknown unit '" + unit +
                                "'");
      }
      input.objective_source[it->second] += value;
    }
    input.references = references;
    GEOALIGN_ASSIGN_OR_RETURN(core::CrosswalkResult res,
                              core::CrosswalkUncompiled(input, options));
    out.push_back(std::move(res));
  }
  return out;
}

bool BitIdentical(const std::vector<core::CrosswalkResult>& a,
                  const std::vector<core::CrosswalkResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].target_estimates != b[i].target_estimates ||
        a[i].weights != b[i].weights || a[i].zero_rows != b[i].zero_rows ||
        a[i].estimated_dm.values() != b[i].estimated_dm.values() ||
        a[i].estimated_dm.col_idx() != b[i].estimated_dm.col_idx() ||
        a[i].estimated_dm.row_ptr() != b[i].estimated_dm.row_ptr()) {
      return false;
    }
  }
  return true;
}

Sample BenchOne(const std::vector<std::string>& sources,
                const std::vector<std::string>& targets,
                const std::vector<core::ReferenceAttribute>& references,
                const std::vector<core::CrosswalkPipeline::Column>& columns) {
  core::GeoAlignOptions options;
  options.threads = 1;

  Sample s;
  s.columns = columns.size();
  s.legacy_seconds = 1e300;
  s.compiled_seconds = 1e300;

  std::vector<core::CrosswalkResult> legacy;
  std::vector<core::CrosswalkResult> compiled;
  for (size_t rep = 0; rep < Reps(); ++rep) {
    {
      obs::Stopwatch watch;
      auto res = RealignLegacy(sources, references, columns, options);
      res.status().CheckOK();
      s.legacy_seconds = std::min(s.legacy_seconds, watch.ElapsedSeconds());
      if (rep == 0) legacy = std::move(res).value();
    }
    {
      obs::Stopwatch watch;
      auto pipeline = core::CrosswalkPipeline::Create(
          sources, targets, references,
          std::make_shared<core::GeoAlign>(options));
      pipeline.status().CheckOK();
      double compile_seconds = watch.ElapsedSeconds();
      auto res = pipeline->RealignMany(columns, /*threads=*/1);
      res.status().CheckOK();
      double total = watch.ElapsedSeconds();
      if (total < s.compiled_seconds) {
        s.compiled_seconds = total;
        s.compile_seconds = compile_seconds;
      }
      if (rep == 0) compiled = std::move(res).value();
    }
  }
  s.speedup = s.legacy_seconds / s.compiled_seconds;
  s.bit_identical = BitIdentical(legacy, compiled);
  return s;
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using namespace geoalign;
  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_realign_throughput.json";

  const synth::Universe& uni = bench::GetUniverse(
      synth::UniverseId::kUnitedStates, synth::SuiteKind::kUnitedStates);
  auto input = std::move(uni.MakeLeaveOneOutInput(0)).ValueOrDie();
  std::vector<std::string> sources =
      MakeUnitNames("z", input.NumSourceUnits());
  std::vector<std::string> targets =
      MakeUnitNames("c", input.NumTargetUnits());
  std::printf("universe: %s (%zu zips -> %zu counties), %zu references, "
              "scale %.3f, telemetry %s\n",
              uni.name.c_str(), uni.NumZips(), uni.NumCounties(),
              input.references.size(), bench::BenchScale(),
              obs::Enabled() ? "on" : "off (set GEOALIGN_TELEMETRY=1)");

  std::vector<size_t> column_counts;
  for (size_t b : {size_t{1}, size_t{8}, size_t{64}, size_t{512}}) {
    if (b <= MaxCols()) column_counts.push_back(b);
  }

  std::vector<Sample> samples;
  for (size_t count : column_counts) {
    std::vector<core::CrosswalkPipeline::Column> columns =
        MakeColumns(sources, input.objective_source, count);
    samples.push_back(
        BenchOne(sources, targets, input.references, columns));
  }

  eval::TextTable table({"columns", "legacy s", "compiled s", "compile s",
                         "speedup", "bit-identical"});
  for (const Sample& s : samples) {
    table.Row()
        .Num(static_cast<double>(s.columns))
        .Num(s.legacy_seconds)
        .Num(s.compiled_seconds)
        .Num(s.compile_seconds)
        .Num(s.speedup)
        .Text(s.bit_identical ? "yes" : "NO");
  }
  table.Print();

  bool all_identical = true;
  for (const Sample& s : samples) all_identical &= s.bit_identical;
  std::printf("\nbit-identity across all column counts: %s\n",
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
  std::fprintf(f, "  \"bench\": \"realign_throughput\",\n");
  std::fprintf(f, "  \"date\": \"%s\",\n", stamp);
  std::fprintf(f, "  \"universe\": \"%s\",\n", uni.name.c_str());
  std::fprintf(f, "  \"zips\": %zu,\n  \"counties\": %zu,\n", uni.NumZips(),
               uni.NumCounties());
  std::fprintf(f, "  \"references\": %zu,\n", input.references.size());
  std::fprintf(f, "  \"bench_scale\": %.4f,\n", bench::BenchScale());
  std::fprintf(f, "  \"repetitions\": %zu,\n", Reps());
  std::fprintf(f, "  \"telemetry_enabled\": %s,\n",
               obs::Enabled() ? "true" : "false");
  std::fprintf(f, "  \"bit_identical_all\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"series\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(
        f,
        "    {\"columns\": %zu, \"legacy_seconds\": %.6e, "
        "\"compiled_seconds\": %.6e, \"compile_seconds\": %.6e, "
        "\"legacy_cols_per_sec\": %.3f, \"compiled_cols_per_sec\": %.3f, "
        "\"speedup\": %.3f, \"bit_identical\": %s}%s\n",
        s.columns, s.legacy_seconds, s.compiled_seconds, s.compile_seconds,
        static_cast<double>(s.columns) / s.legacy_seconds,
        static_cast<double>(s.columns) / s.compiled_seconds, s.speedup,
        s.bit_identical ? "true" : "false",
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return all_identical ? 0 : 1;
}
