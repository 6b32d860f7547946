// geoalign_cli — command-line crosswalk over CSV files.
//
// Usage:
//   geoalign_cli --objective <unit,value csv>
//                --ref <name>=<crosswalk csv> [--ref ...]
//                [--method geoalign|dasymetric=<ref>|areal|regression]
//                [--output aggregates|dm] (geoalign only: `aggregates`
//                                        serves through the fused
//                                        zero-materialization execute
//                                        lane; `dm` (default) runs the
//                                        materializing path)
//                [--out <path>]        (default: stdout)
//                [--weights]           (print learned weights to stderr)
//                [--metrics-out <path>] (write a metrics snapshot; see
//                                        docs/observability.md)
//                [--metrics-format prom|json|text] (snapshot format for
//                                        --metrics-out; default json)
//                [--trace-out <path>]   (write Chrome trace-event JSON,
//                                        loadable at ui.perfetto.dev)
//                [--telemetry on|off]   (override GEOALIGN_TELEMETRY;
//                                        --metrics-out/--trace-out
//                                        imply `on` unless --telemetry
//                                        is passed explicitly)
//                [--request-id <id>]    (request id stamped on spans
//                                        and audit records; generated
//                                        when omitted)
//                [--flight-recorder-out <path>] (dump the flight
//                                        recorder JSONL at exit and on
//                                        crash/fatal)
//
// Crosswalk CSVs are long-form: columns `source,target,value` (one row
// per non-empty intersection; the reference's source aggregates are
// the row sums). The objective CSV has columns `unit,value`. The unit
// universes are derived from the union of the crosswalk files; every
// objective unit must appear there.
//
// Example:
//   geoalign_cli --objective steam.csv
//                --ref population=pop_crosswalk.csv
//                --ref addresses=usps_crosswalk.csv > steam_by_county.csv

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/areal_weighting.h"
#include "core/crosswalk_plan.h"
#include "core/dasymetric.h"
#include "core/geoalign.h"
#include "core/regression.h"
#include "io/crosswalk_io.h"
#include "io/csv.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/request_context.h"
#include "obs/telemetry.h"

namespace geoalign {
namespace {

struct CliArgs {
  std::string objective_path;
  std::vector<std::pair<std::string, std::string>> refs;  // name -> path
  std::string method = "geoalign";
  std::string output = "dm";
  std::string out_path;
  std::string metrics_out;
  std::string trace_out;
  std::string flight_recorder_out;
  std::string request_id;
  obs::MetricsFormat metrics_format = obs::MetricsFormat::kJson;
  bool print_weights = false;
};

Result<CliArgs> ParseArgs(int argc, char** argv) {
  CliArgs args;
  std::string metrics_format;
  bool telemetry_explicit = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value after " + arg);
      }
      return std::string(argv[++i]);
    };
    // Accept both `--flag value` and `--flag=value` for the telemetry
    // flags (scripted callers tend to use the `=` form).
    auto match_valued = [&](const char* flag, std::string* out) -> bool {
      std::string prefix = std::string(flag) + "=";
      if (StartsWith(arg, prefix)) {
        *out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    if (match_valued("--metrics-out", &args.metrics_out) ||
        match_valued("--metrics-format", &metrics_format) ||
        match_valued("--trace-out", &args.trace_out) ||
        match_valued("--flight-recorder-out", &args.flight_recorder_out) ||
        match_valued("--request-id", &args.request_id)) {
      continue;
    }
    std::string telemetry_value;
    if (arg == "--telemetry" || match_valued("--telemetry",
                                             &telemetry_value)) {
      telemetry_explicit = true;
      if (telemetry_value.empty()) {
        GEOALIGN_ASSIGN_OR_RETURN(telemetry_value, next());
      }
      if (telemetry_value == "on") {
        obs::SetEnabled(true);
      } else if (telemetry_value == "off") {
        obs::SetEnabled(false);
      } else {
        return Status::InvalidArgument("--telemetry expects on|off");
      }
      continue;
    }
    if (arg == "--output" || match_valued("--output", &args.output)) {
      if (arg == "--output") {
        GEOALIGN_ASSIGN_OR_RETURN(args.output, next());
      }
      if (args.output != "aggregates" && args.output != "dm") {
        return Status::InvalidArgument("--output expects aggregates|dm");
      }
      continue;
    }
    if (arg == "--objective") {
      GEOALIGN_ASSIGN_OR_RETURN(args.objective_path, next());
    } else if (arg == "--ref") {
      GEOALIGN_ASSIGN_OR_RETURN(std::string spec, next());
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("--ref expects <name>=<csv path>");
      }
      args.refs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--method") {
      GEOALIGN_ASSIGN_OR_RETURN(args.method, next());
    } else if (arg == "--out") {
      GEOALIGN_ASSIGN_OR_RETURN(args.out_path, next());
    } else if (arg == "--metrics-out") {
      GEOALIGN_ASSIGN_OR_RETURN(args.metrics_out, next());
    } else if (arg == "--metrics-format") {
      GEOALIGN_ASSIGN_OR_RETURN(metrics_format, next());
    } else if (arg == "--trace-out") {
      GEOALIGN_ASSIGN_OR_RETURN(args.trace_out, next());
    } else if (arg == "--flight-recorder-out") {
      GEOALIGN_ASSIGN_OR_RETURN(args.flight_recorder_out, next());
    } else if (arg == "--request-id") {
      GEOALIGN_ASSIGN_OR_RETURN(args.request_id, next());
    } else if (arg == "--weights") {
      args.print_weights = true;
    } else if (arg == "--help" || arg == "-h") {
      return Status::InvalidArgument("help requested");
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (args.objective_path.empty()) {
    return Status::InvalidArgument("--objective is required");
  }
  if (args.refs.empty()) {
    return Status::InvalidArgument("at least one --ref is required");
  }
  if (!metrics_format.empty() &&
      !obs::ParseMetricsFormat(metrics_format, &args.metrics_format)) {
    return Status::InvalidArgument(
        "--metrics-format expects prom|json|text");
  }
  // Asking for a telemetry artifact implies wanting telemetry: enable
  // it unless the user pinned the switch with an explicit --telemetry.
  if (!telemetry_explicit &&
      (!args.metrics_out.empty() || !args.trace_out.empty() ||
       !args.flight_recorder_out.empty())) {
    obs::SetEnabled(true);
  }
  return args;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: geoalign_cli --objective <csv> --ref <name>=<csv> [...]\n"
      "  [--method geoalign|dasymetric=<ref>|areal|regression]\n"
      "  [--output aggregates|dm] [--out <path>] [--weights]\n"
      "  [--metrics-out <path>] [--metrics-format prom|json|text]\n"
      "  [--trace-out <path>] [--telemetry on|off]\n"
      "  [--request-id <id>] [--flight-recorder-out <path>]\n"
      "objective csv columns: unit,value\n"
      "crosswalk csv columns: source,target,value\n");
}

Result<int> Run(const CliArgs& args) {
  if (!args.flight_recorder_out.empty()) {
    obs::SetFlightRecorderDumpPath(args.flight_recorder_out);
    obs::InstallCrashHandlers();
  }
  // Every span and audit record below carries this request identity
  // (generated "req-<n>" when --request-id is omitted).
  obs::RequestScope request_scope(args.request_id);

  // Read every crosswalk file once; unify the unit universes across
  // them from the tables' unit columns.
  std::vector<io::Table> tables;
  std::vector<std::string> source_units;
  std::vector<std::string> target_units;
  for (const auto& [name, path] : args.refs) {
    GEOALIGN_ASSIGN_OR_RETURN(io::Table table, io::ReadCsvFile(path));
    GEOALIGN_ASSIGN_OR_RETURN(std::vector<std::string> sources,
                              table.StringColumn("source"));
    GEOALIGN_ASSIGN_OR_RETURN(std::vector<std::string> targets,
                              table.StringColumn("target"));
    source_units.insert(source_units.end(), sources.begin(), sources.end());
    target_units.insert(target_units.end(), targets.begin(), targets.end());
    tables.push_back(std::move(table));
  }
  std::sort(source_units.begin(), source_units.end());
  source_units.erase(
      std::unique(source_units.begin(), source_units.end()),
      source_units.end());
  std::sort(target_units.begin(), target_units.end());
  target_units.erase(
      std::unique(target_units.begin(), target_units.end()),
      target_units.end());

  // Resolve every crosswalk against the unified universes.
  core::CrosswalkInput input;
  for (size_t k = 0; k < args.refs.size(); ++k) {
    GEOALIGN_ASSIGN_OR_RETURN(
        io::LoadedCrosswalk aligned,
        io::CrosswalkFromTable(tables[k], "source", "target", "value",
                               source_units, target_units));
    input.references.push_back(
        io::ReferenceFromCrosswalk(args.refs[k].first, aligned));
  }

  // Objective column.
  GEOALIGN_ASSIGN_OR_RETURN(io::Table obj_table,
                            io::ReadCsvFile(args.objective_path));
  GEOALIGN_ASSIGN_OR_RETURN(
      input.objective_source,
      io::AggregatesFromTable(obj_table, "unit", "value", source_units));
  GEOALIGN_RETURN_IF_ERROR(input.Validate());

  // Method selection.
  std::unique_ptr<core::Interpolator> method;
  if (args.method == "geoalign") {
    method = std::make_unique<core::GeoAlign>();
  } else if (StartsWith(args.method, "dasymetric=")) {
    method = std::make_unique<core::Dasymetric>(
        args.method.substr(std::strlen("dasymetric=")));
  } else if (args.method == "regression") {
    method = std::make_unique<core::RegressionBaseline>();
  } else if (args.method == "areal") {
    return Status::InvalidArgument(
        "areal weighting needs intersection areas; provide an area "
        "crosswalk as a --ref and use --method dasymetric=<that ref>");
  } else {
    return Status::InvalidArgument("unknown method: " + args.method);
  }

  core::CrosswalkResult result;
  if (args.output == "aggregates") {
    // The fused execute lane exists only on the compiled-plan path.
    if (args.method != "geoalign") {
      return Status::InvalidArgument(
          "--output aggregates requires --method geoalign");
    }
    GEOALIGN_ASSIGN_OR_RETURN(
        core::CrosswalkPlan plan,
        core::CrosswalkPlan::Compile(input, core::GeoAlignOptions{}));
    GEOALIGN_ASSIGN_OR_RETURN(
        result, plan.Execute(input.objective_source,
                             core::ExecuteOutput::kAggregatesOnly));
  } else {
    GEOALIGN_ASSIGN_OR_RETURN(result, method->Crosswalk(input));
  }

  if (args.print_weights && !result.weights.empty()) {
    std::fprintf(stderr, "# learned weights (%s):\n",
                 method->name().c_str());
    for (size_t k = 0; k < input.references.size(); ++k) {
      std::fprintf(stderr, "#   %-24s %.6f\n",
                   input.references[k].name.c_str(), result.weights[k]);
    }
  }

  io::Table out({"unit", "value"});
  for (size_t j = 0; j < target_units.size(); ++j) {
    GEOALIGN_RETURN_IF_ERROR(out.AppendRow(
        {target_units[j], StrFormat("%.12g", result.target_estimates[j])}));
  }
  if (args.out_path.empty()) {
    std::fputs(io::ToCsv(out).c_str(), stdout);
  } else {
    GEOALIGN_RETURN_IF_ERROR(io::WriteCsvFile(out, args.out_path));
  }

  // Telemetry exports run last so they cover the whole crosswalk.
  if (!args.metrics_out.empty()) {
    std::string error;
    if (!obs::WriteMetricsFile(args.metrics_out, args.metrics_format,
                               &error)) {
      return Status::Internal("--metrics-out: " + error);
    }
  }
  if (!args.trace_out.empty()) {
    std::string error;
    if (!obs::WriteTraceJsonFile(args.trace_out, &error)) {
      return Status::Internal("--trace-out: " + error);
    }
  }
  if (!args.flight_recorder_out.empty()) {
    std::string error;
    if (!obs::FlightRecorder::Global().DumpToFile(args.flight_recorder_out,
                                                  "demand", &error)) {
      return Status::Internal("--flight-recorder-out: " + error);
    }
  }
  if (!args.metrics_out.empty() || !args.trace_out.empty()) {
    std::fprintf(stderr, "%s", obs::SummaryTable().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  auto args = geoalign::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().message().c_str());
    geoalign::PrintUsage();
    return 2;
  }
  auto rc = geoalign::Run(*args);
  if (!rc.ok()) {
    std::fprintf(stderr, "error: %s\n", rc.status().ToString().c_str());
    return 1;
  }
  return *rc;
}
