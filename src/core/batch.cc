#include "core/batch.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"

namespace geoalign::core {

namespace {

// Same registry keys as CrosswalkPipeline: "realign.*" aggregates every
// realigned column across both serving surfaces.
obs::Histogram& ColumnsPerBatch() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("realign.columns_per_batch");
  return h;
}
obs::Counter& ColumnsTotal() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("realign.columns_total");
  return c;
}

}  // namespace

BatchCrosswalk::BatchCrosswalk(CrosswalkPlan plan)
    : plan_(std::move(plan)) {}

Result<BatchCrosswalk> BatchCrosswalk::Create(
    std::vector<ReferenceAttribute> references, GeoAlignOptions options) {
  GEOALIGN_ASSIGN_OR_RETURN(CrosswalkPlan plan,
                            CrosswalkPlan::Compile(references, options));
  return BatchCrosswalk(std::move(plan));
}

Result<std::vector<BatchCrosswalk::BatchResult>> BatchCrosswalk::Run(
    const std::vector<Objective>& objectives) const {
  obs::EnsureRequestScope ensure_request;
  GEOALIGN_TRACE_SPAN("realign.batch");
  ColumnsPerBatch().Record(static_cast<double>(objectives.size()));
  ColumnsTotal().Add(objectives.size());
  // Only the objectives before the first wrong-length one execute: any
  // later failure would lose to that objective's status anyway.
  std::vector<common::ColumnView> columns;
  columns.reserve(objectives.size());
  for (const Objective& objective : objectives) {
    if (objective.source.size() != plan_.num_source_units()) break;
    columns.push_back(objective.source);
  }
  // BatchResult never carries the DM, so every column takes the
  // aggregates-only lane.
  GEOALIGN_ASSIGN_OR_RETURN(
      std::vector<CrosswalkResult> full,
      plan_.ExecuteMany(columns, plan_.options().threads,
                        ExecuteOutput::kAggregatesOnly));
  if (columns.size() < objectives.size()) {
    return Status::InvalidArgument("BatchCrosswalk: objective '" +
                                   objectives[columns.size()].name +
                                   "' wrong length");
  }
  std::vector<BatchResult> out;
  out.reserve(full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    out.push_back({objectives[i].name, std::move(full[i].target_estimates),
                   std::move(full[i].weights), std::move(full[i].zero_rows)});
  }
  return out;
}

}  // namespace geoalign::core
