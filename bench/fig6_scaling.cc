// Reproduces paper Figure 6 (a/b) and the §4.3 runtime discussion:
// GeoAlign runtime versus the number of source units (zip codes) and
// target units (counties) across the six nested universes, averaged
// over ten cross-validated trials, plus the disaggregation phase's
// share of it ("over 90% of the runtime is spent computing the
// disaggregation matrix"). The time is the wall time of the whole
// GeoAlign::Crosswalk call.
//
// Built on google-benchmark for the per-universe timing; a summary
// table with the paper's series is printed at the end.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/geoalign.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace geoalign {
namespace {

struct ScalingRow {
  std::string name;
  size_t zips = 0;
  size_t counties = 0;
  double seconds = 0.0;
  double disagg_share = 0.0;
};

std::vector<ScalingRow>& Rows() {
  static std::vector<ScalingRow> rows;
  return rows;
}

// Time spent in Eq. 14 so far, µs: the sum of the
// execute.eq14_disaggregate span's latency histogram (0 before its
// first close or with telemetry off).
double Eq14MicrosSoFar() {
  for (const obs::HistogramSnapshot& h :
       obs::MetricsRegistry::Global().Snapshot().histograms) {
    if (h.name == "execute.eq14_disaggregate.latency_us") return h.sum;
  }
  return 0.0;
}

void BM_GeoAlignCrosswalk(benchmark::State& state, synth::UniverseId id) {
  const synth::Universe& uni =
      bench::GetUniverse(id, synth::SuiteKind::kUnitedStates);
  core::GeoAlign geoalign;
  // Cross-validated trials in rotation, as in the paper (runtime is
  // dataset-independent up to DM sparsity).
  std::vector<core::CrosswalkInput> inputs;
  for (size_t t = 0; t < uni.datasets.size(); ++t) {
    inputs.push_back(std::move(uni.MakeLeaveOneOutInput(t)).ValueOrDie());
  }
  const double eq14_us_before = Eq14MicrosSoFar();
  double total = 0.0;
  size_t iters = 0;
  size_t next = 0;
  for (auto _ : state) {
    // Wall time of the whole call (compile + execute), what a caller
    // waits for.
    obs::Stopwatch watch;
    auto res = geoalign.Crosswalk(inputs[next]);
    total += watch.ElapsedSeconds();
    res.status().CheckOK();
    benchmark::DoNotOptimize(res->target_estimates.data());
    ++iters;
    next = (next + 1) % inputs.size();
  }
  const double disagg = (Eq14MicrosSoFar() - eq14_us_before) * 1e-6;
  state.counters["zips"] = static_cast<double>(uni.NumZips());
  state.counters["counties"] = static_cast<double>(uni.NumCounties());
  state.counters["disagg_share"] = total > 0.0 ? disagg / total : 0.0;

  ScalingRow row;
  row.name = uni.name;
  row.zips = uni.NumZips();
  row.counties = uni.NumCounties();
  row.seconds = iters > 0 ? total / static_cast<double>(iters) : 0.0;
  row.disagg_share = total > 0.0 ? disagg / total : 0.0;
  // Replace any earlier sample for this universe (benchmark may rerun).
  for (ScalingRow& r : Rows()) {
    if (r.name == row.name) {
      r = row;
      return;
    }
  }
  Rows().push_back(row);
}

void PrintSummary() {
  std::printf("\n=== Figure 6: GeoAlign runtime vs universe size ===\n");
  eval::TextTable table({"universe", "zips (source)", "counties (target)",
                         "crosswalk wall time (s)",
                         "disaggregation share"});
  for (const ScalingRow& r : Rows()) {
    table.Row()
        .Text(r.name)
        .Num(static_cast<double>(r.zips))
        .Num(static_cast<double>(r.counties))
        .Num(r.seconds)
        .Num(r.disagg_share);
  }
  table.Print();
  if (Rows().size() >= 2) {
    const ScalingRow& a = Rows().front();
    const ScalingRow& b = Rows().back();
    double time_ratio = b.seconds / std::max(a.seconds, 1e-12);
    double unit_ratio = static_cast<double>(b.zips) / a.zips;
    std::printf(
        "\nlargest/smallest: %.1fx the source units, %.1fx the time "
        "(linear scaling => ratios comparable; paper Fig. 6)\n",
        unit_ratio, time_ratio);
  }
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using geoalign::synth::UniverseId;
  for (auto id :
       {UniverseId::kNewYork, UniverseId::kMidAtlantic,
        UniverseId::kNortheast, UniverseId::kEasternTime,
        UniverseId::kNonWest, UniverseId::kUnitedStates}) {
    std::string name =
        std::string("GeoAlignCrosswalk/") + geoalign::synth::UniverseName(id);
    benchmark::RegisterBenchmark(
        name.c_str(), [id](benchmark::State& state) {
          geoalign::BM_GeoAlignCrosswalk(state, id);
        })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.2);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  geoalign::PrintSummary();
  return 0;
}
