// Parallel-scaling companion to Figure 6: end-to-end pipeline time of
// the fig6-style synthetic workload versus worker-thread count, for
// both parallelism layers introduced with src/common/thread_pool:
//
//  * crosswalk — one GeoAlign::Crosswalk with options.threads = T
//    (parallel Eq. 14 row merge + deterministic Eq. 17 reduction);
//  * batch — BatchCrosswalk::Run over independent objective columns
//    with options.threads = T (one task per objective).
//
// Every configuration is also checked for BIT-identical output against
// threads = 1 (the deterministic-reduction contract), and the series
// is written to a BENCH_parallel_scaling.json trajectory file.
//
// Usage: parallel_scaling [output.json]
//   GEOALIGN_BENCH_SCALE   rescales the universe (default 1.0)
//   GEOALIGN_BENCH_REPS    timing repetitions   (default 5)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/timer.h"
#include "core/batch.h"
#include "core/geoalign.h"
#include "eval/report.h"

namespace geoalign {
namespace {

struct Sample {
  size_t threads = 0;
  double seconds = 0.0;   // best of reps
  double speedup = 1.0;   // vs threads == 1
  bool bit_identical = true;
};

size_t Reps() {
  const char* env = std::getenv("GEOALIGN_BENCH_REPS");
  if (env == nullptr) return 5;
  long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : 5;
}

const std::vector<size_t> kThreadCounts = {1, 2, 4, 8};

// Times one GeoAlign crosswalk per thread count (inner-kernel layer).
std::vector<Sample> BenchCrosswalk(const synth::Universe& uni) {
  auto input = std::move(uni.MakeLeaveOneOutInput(0)).ValueOrDie();
  std::vector<Sample> samples;
  linalg::Vector baseline;
  for (size_t threads : kThreadCounts) {
    core::GeoAlignOptions opts;
    opts.threads = threads;
    core::GeoAlign geoalign(opts);
    Sample s;
    s.threads = threads;
    s.seconds = 1e300;
    for (size_t rep = 0; rep < Reps(); ++rep) {
      obs::Stopwatch watch;
      auto res = geoalign.Crosswalk(input);
      res.status().CheckOK();
      s.seconds = std::min(s.seconds, watch.ElapsedSeconds());
      if (rep == 0) {
        if (threads == 1) {
          baseline = res->target_estimates;
        } else {
          s.bit_identical = res->target_estimates == baseline;
        }
      }
    }
    samples.push_back(s);
  }
  for (Sample& s : samples) s.speedup = samples[0].seconds / s.seconds;
  return samples;
}

// Times a BatchCrosswalk over independent objectives (outer layer):
// the first half of the suite acts as the shared reference set, every
// remaining dataset is an objective column.
std::vector<Sample> BenchBatch(const synth::Universe& uni, size_t* num_objs,
                               size_t* num_refs) {
  size_t half = uni.datasets.size() / 2;
  std::vector<core::ReferenceAttribute> references;
  for (size_t k = 0; k < half; ++k) {
    references.push_back(
        {uni.datasets[k].name, uni.datasets[k].source, uni.datasets[k].dm});
  }
  std::vector<core::BatchCrosswalk::Objective> objectives;
  for (size_t k = half; k < uni.datasets.size(); ++k) {
    objectives.push_back({uni.datasets[k].name, uni.datasets[k].source});
  }
  *num_objs = objectives.size();
  *num_refs = references.size();

  std::vector<Sample> samples;
  std::vector<linalg::Vector> baseline;
  for (size_t threads : kThreadCounts) {
    core::GeoAlignOptions opts;
    opts.threads = threads;
    auto batch =
        std::move(core::BatchCrosswalk::Create(references, opts)).ValueOrDie();
    Sample s;
    s.threads = threads;
    s.seconds = 1e300;
    for (size_t rep = 0; rep < Reps(); ++rep) {
      obs::Stopwatch watch;
      auto results = batch.Run(objectives);
      results.status().CheckOK();
      s.seconds = std::min(s.seconds, watch.ElapsedSeconds());
      if (rep == 0) {
        if (threads == 1) {
          for (const auto& r : *results) baseline.push_back(r.target_estimates);
        } else {
          for (size_t k = 0; k < results->size(); ++k) {
            s.bit_identical = s.bit_identical &&
                              (*results)[k].target_estimates == baseline[k];
          }
        }
      }
    }
    samples.push_back(s);
  }
  for (Sample& s : samples) s.speedup = samples[0].seconds / s.seconds;
  return samples;
}

void PrintSection(const char* name, const std::vector<Sample>& samples) {
  std::printf("\n--- %s ---\n", name);
  eval::TextTable table({"threads", "seconds", "speedup", "bit-identical"});
  for (const Sample& s : samples) {
    table.Row()
        .Num(static_cast<double>(s.threads))
        .Num(s.seconds)
        .Num(s.speedup)
        .Text(s.bit_identical ? "yes" : "NO");
  }
  table.Print();
}

void WriteJsonSection(std::FILE* f, const char* name,
                      const std::vector<Sample>& samples, bool trailing_comma) {
  std::fprintf(f, "  \"%s\": {\n    \"series\": [\n", name);
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "      {\"threads\": %zu, \"seconds\": %.6e, "
                 "\"speedup\": %.3f, \"bit_identical\": %s}%s\n",
                 s.threads, s.seconds, s.speedup,
                 s.bit_identical ? "true" : "false",
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }%s\n", trailing_comma ? "," : "");
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using namespace geoalign;
  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_parallel_scaling.json";

  const synth::Universe& uni = bench::GetUniverse(
      synth::UniverseId::kUnitedStates, synth::SuiteKind::kUnitedStates);
  std::printf("universe: %s (%zu zips -> %zu counties), scale %.3f, "
              "hardware threads %u\n",
              uni.name.c_str(), uni.NumZips(), uni.NumCounties(),
              bench::BenchScale(), std::thread::hardware_concurrency());

  std::vector<Sample> crosswalk = BenchCrosswalk(uni);
  size_t num_objs = 0;
  size_t num_refs = 0;
  std::vector<Sample> batch = BenchBatch(uni, &num_objs, &num_refs);

  PrintSection("single crosswalk (inner-kernel parallelism)", crosswalk);
  PrintSection("batch over objectives (outer parallelism)", batch);

  bool all_identical = true;
  for (const Sample& s : crosswalk) all_identical &= s.bit_identical;
  for (const Sample& s : batch) all_identical &= s.bit_identical;
  std::printf("\nbit-identity across all thread counts: %s\n",
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
  std::fprintf(f, "  \"bench\": \"parallel_scaling\",\n");
  std::fprintf(f, "  \"date\": \"%s\",\n", stamp);
  std::fprintf(f, "  \"universe\": \"%s\",\n", uni.name.c_str());
  std::fprintf(f, "  \"zips\": %zu,\n  \"counties\": %zu,\n", uni.NumZips(),
               uni.NumCounties());
  std::fprintf(f, "  \"bench_scale\": %.4f,\n", bench::BenchScale());
  std::fprintf(f, "  \"repetitions\": %zu,\n", Reps());
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"batch_objectives\": %zu,\n", num_objs);
  std::fprintf(f, "  \"batch_references\": %zu,\n", num_refs);
  std::fprintf(f, "  \"bit_identical_all\": %s,\n",
               all_identical ? "true" : "false");
  WriteJsonSection(f, "crosswalk", crosswalk, /*trailing_comma=*/true);
  WriteJsonSection(f, "batch", batch, /*trailing_comma=*/false);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return all_identical ? 0 : 1;
}
