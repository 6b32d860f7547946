// geoalign_perfbench: runs one named workload of the end-to-end benchmark
// and prints its metrics. See perfbench/README.md.
//
//   geoalign_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--scale <x>] [--out-dir <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: with --trace 0 the end-to-end
// metrics, with --trace 1 the per-layer metrics. The exit code is 0 only
// when every output check passed.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/telemetry.h"

namespace perfbench {
namespace {

/// Set-up runs this many times per run; setup_s is their median.
constexpr size_t kSetupRepeats = 5;
/// Every timed loop runs at least this many requests.
constexpr size_t kMinRequests = 5;

/// Per-layer metrics every traced run reports, in BENCHMARK.json order.
/// Workload-specific ones read 0 on workloads that never run the layer.
const std::vector<std::pair<std::string, std::string>> kTrackedLayers = {
    {"core.compile_ms", "ms"},
    {"sparse.prepare_ms", "ms"},
    {"core.execute_dm_ms", "ms"},
    {"core.execute_agg_ms", "ms"},
    {"linalg.learn_weights_ms", "ms"},
    {"sparse.hashed_bytes", "bytes"},
    {"sparse.aligned", "bool"},
    {"synth.generate_s", "s"},
    {"trace.overhead_pct", "%"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_hit_cost_ratio", "ratio"},
    {"core.cache_miss_cost_ratio", "ratio"},
    {"core.cache_evictions", "count"},
    {"core.cache_insert_races", "count"},
    {"core.name_resolution_share", "ratio"},
    {"common.pool_efficiency", "ratio"},
    {"core.batch_columns_per_s", "1/s"},
    {"sparse.panel_nnz_per_s", "1/s"},
    {"partition.overlay_cells", "count"},
    {"partition.overlay_cells_per_s", "1/s"},
    {"partition.measure_dm_cells_per_s", "1/s"},
    {"partition.points_per_s", "1/s"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "geoalign_perfbench: %s\nusage: geoalign_perfbench --workload "
               "<crosswalk_oneshot|crosswalk_cached|portal_us|geo_build> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale <x>] "
               "[--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0) Usage("--trace takes 0 or 1");
    } else if (flag == "--scale") {
      options.scale = std::strtod(value, &end);
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (!have_workload) Usage("--workload is required");
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");
  if (!(options.scale > 0.0 && options.scale <= 1.0)) Usage("--scale must be in (0, 1]");
  return options;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "crosswalk_oneshot") return MakeCrosswalkOneshot();
  if (name == "crosswalk_cached") return MakeCrosswalkCached();
  if (name == "portal_us") return MakePortal();
  if (name == "geo_build") return MakeGeoBuild();
  Usage(("unknown workload " + name).c_str());
}

double Seconds(int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) / 1e9;
}

/// A closed loop: one client, the next request only after the previous
/// one returned, until `seconds` of timed request work accumulate. The
/// traced loop, whose requests also time per-layer calls alongside,
/// counts wall time instead.
struct Loop {
  std::vector<double> ms;
  double busy_s = 0.0;
};

Loop RunLoop(Workload& workload, double seconds, Tracer* tracer,
             Checker& check) {
  Loop loop;
  const int64_t start = NowNs();
  // A wall-clock cap keeps a pathological slowdown inside the run's
  // time limit; checks and input preparation run outside the timed
  // regions but inside the loop.
  const double wall_cap = tracer != nullptr ? seconds : 3.0 * seconds + 30.0;
  for (size_t i = 0; loop.busy_s < seconds || i < kMinRequests; ++i) {
    const double ms = workload.Request(i, tracer, check);
    loop.ms.push_back(ms);
    loop.busy_s += ms / 1e3;
    if (Seconds(start) > wall_cap && i + 1 >= kMinRequests) break;
  }
  return loop;
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintFigures(const char* heading, const std::vector<Figure>& figures) {
  std::printf("%s\n", heading);
  for (const Figure& f : figures) {
    if (!f.text.empty()) {
      std::printf("  %-34s %s%s\n", f.name.c_str(), f.text.c_str(),
                  f.computed ? "  (computed)" : "");
    } else {
      std::printf("  %-34s %.6g %s%s\n", f.name.c_str(), f.value, f.unit.c_str(),
                  f.computed ? "  (computed)" : "");
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FiguresJson(const std::vector<Figure>& figures) {
  std::string out = "{";
  for (size_t i = 0; i < figures.size(); ++i) {
    const Figure& f = figures[i];
    out += (i ? ", " : "") + JsonString(f.name) + ": {\"value\": " +
           (f.text.empty() ? JsonNumber(f.value) : JsonString(f.text)) +
           ", \"unit\": " + JsonString(f.unit) +
           (f.computed ? ", \"computed\": true" : "") + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  Checker check;

  const int64_t generate_start = NowNs();
  workload->Generate(options, check);
  const double generate_s = Seconds(generate_start);

  std::vector<double> setups;
  for (size_t k = 0; k < kSetupRepeats; ++k) setups.push_back(workload->SetUp(check));

  std::vector<Figure> reported;  // the final JSON line's metrics
  std::vector<Figure> detail;    // the run report only
  std::vector<double> latencies_ms;
  std::string trace_path;
  if (!options.trace) {
    const Loop loop = RunLoop(*workload, options.seconds, nullptr, check);
    latencies_ms = loop.ms;
    const double tail = TailQuantile(loop.ms.size());
    reported = {
        {"p50_ms", Quantile(loop.ms, 0.5), "ms"},
        {"p90_ms", Quantile(loop.ms, tail), "ms"},
        {"items_per_s",
         workload->ItemsPerRequest() * static_cast<double>(loop.ms.size()) /
             loop.busy_s,
         "1/s"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"}};
    detail = {{"samples", static_cast<double>(loop.ms.size()), "count"},
              {"tail_quantile", tail, "q"}};
  } else {
    // The untraced half gives the baseline for the tracing overhead; the
    // traced half replays the same request stream with spans on.
    const Loop plain = RunLoop(*workload, options.seconds / 2, nullptr, check);
    latencies_ms = plain.ms;
    Tracer tracer;
    workload->BeginTracedPhase();
    const Loop traced = RunLoop(*workload, options.seconds / 2, &tracer, check);
    workload->EndTracedPhase();
    const SpanStats stats(tracer);
    const double plain_p50 = Median(plain.ms);

    std::map<std::string, double> values = {
        {"core.compile_ms", stats.MedianPerCallMs("core.compile")},
        {"sparse.prepare_ms", stats.MedianPerCallMs("sparse.prepare")},
        {"core.execute_dm_ms", stats.MedianPerCallMs("core.execute_dm")},
        {"core.execute_agg_ms", stats.MedianPerCallMs("core.execute_agg")},
        {"linalg.learn_weights_ms", stats.MedianPerCallMs("linalg.learn_weights")},
        {"sparse.hashed_bytes", workload->HashedBytesPerRequest()},
        {"sparse.aligned", workload->Aligned() ? 1.0 : 0.0},
        {"synth.generate_s", generate_s},
        {"trace.overhead_pct",
         plain_p50 > 0 ? 100.0 * (stats.MedianDurationMs("request") / plain_p50 - 1.0)
                       : 0.0},
    };
    std::vector<Figure> tracked;
    workload->LayerFigures(stats, &tracked, &detail);
    for (const Figure& f : tracked) values[f.name] = f.value;
    for (const auto& [name, unit] : kTrackedLayers) {
      reported.push_back({name, values.count(name) ? values[name] : 0.0, unit});
    }
    for (const std::string& name : stats.names()) {
      detail.push_back({"span." + name + ".self_ms_p50",
                        stats.MedianPerCallMs(name), "ms"});
    }
    detail.push_back({"untraced.p50_ms", plain_p50, "ms"});
    detail.push_back({"traced.request_p50_ms", stats.MedianDurationMs("request"), "ms"});
    detail.push_back({"traced.requests", static_cast<double>(traced.ms.size()), "count"});
    if (!options.out_dir.empty()) {
      trace_path = options.out_dir + "/" + options.workload + "-seed" +
                   std::to_string(options.seed) + ".trace.json";
      check.Expect(tracer.WriteChromeTrace(trace_path),
                   "cannot write the Chrome trace to " + trace_path);
    }
  }

  const double failed_ratio =
      check.attempted() > 0
          ? static_cast<double>(check.failed()) / static_cast<double>(check.attempted())
          : 0.0;
  detail.push_back({"failed_ratio", failed_ratio, "ratio"});
  detail.push_back({"generate_s", generate_s, "s"});
  detail.push_back({"checks", static_cast<double>(check.checks()), "count"});
  detail.push_back({"threads", static_cast<double>(kThreads), "count"});
  detail.push_back({"telemetry", geoalign::obs::Enabled() ? 1.0 : 0.0, "bool"});
  const std::vector<Figure> properties = workload->Properties();

  std::printf("workload %s  seed %llu  seconds %g  trace %d  scale %g\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.scale);
  std::printf("closed loop, 1 client, library threads = %zu, telemetry %s\n",
              kThreads, geoalign::obs::Enabled() ? "on" : "off");
  PrintFigures(options.trace ? "per-layer metrics:" : "end-to-end metrics:", reported);
  PrintFigures("detail:", detail);
  PrintFigures("workload properties:", properties);
  if (!trace_path.empty()) std::printf("chrome trace: %s\n", trace_path.c_str());

  if (!options.out_dir.empty()) {
    const std::string report_path = options.out_dir + "/" + options.workload + "-seed" +
                                    std::to_string(options.seed) + "-trace" +
                                    (options.trace ? "1" : "0") + ".json";
    std::FILE* f = std::fopen(report_path.c_str(), "w");
    if (check.Expect(f != nullptr, "cannot write " + report_path)) {
      std::fprintf(f,
                   "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
                   "\"metrics\": %s, \"detail\": %s, \"properties\": %s, "
                   "\"untraced_latencies_ms\": [",
                   JsonString(options.workload).c_str(),
                   static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
                   FiguresJson(reported).c_str(), FiguresJson(detail).c_str(),
                   FiguresJson(properties).c_str());
      for (size_t i = 0; i < latencies_ms.size(); ++i) {
        std::fprintf(f, "%s%s", i ? ", " : "", JsonNumber(latencies_ms[i]).c_str());
      }
      std::fprintf(f, "]}\n");
      std::fclose(f);
    }
  }

  const bool correct = check.all_passed();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", check.attempted(), check.failed(),
              FiguresJson(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
