#include "core/pipeline.h"

#include <memory>
#include <optional>

#include "common/parallel_for.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"

namespace geoalign::core {

namespace {

// Serving-surface telemetry (catalog: docs/observability.md). The
// registry keys are shared with BatchCrosswalk so "realign.*" counts
// every realigned column regardless of entry point.
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

CrosswalkPipeline::CrosswalkPipeline(
    common::UnitIndex source_index, common::UnitIndex target_index,
    std::vector<ReferenceAttribute> references,
    std::shared_ptr<const Interpolator> method)
    : source_index_(std::move(source_index)),
      target_index_(std::move(target_index)),
      references_(std::move(references)),
      method_(std::move(method)) {}

Result<CrosswalkPipeline> CrosswalkPipeline::Create(
    std::vector<std::string> source_units,
    std::vector<std::string> target_units,
    std::vector<ReferenceAttribute> references,
    std::shared_ptr<const Interpolator> method) {
  if (source_units.empty()) {
    return Status::InvalidArgument("CrosswalkPipeline: empty source unit list");
  }
  if (references.empty()) {
    return Status::InvalidArgument("no reference attributes");
  }
  for (const ReferenceAttribute& ref : references) {
    GEOALIGN_RETURN_IF_ERROR(sparse::CheckReferenceShape(
        ref.name, ref.source_aggregates, ref.disaggregation,
        source_units.size(), target_units.size()));
  }
  GEOALIGN_ASSIGN_OR_RETURN(
      common::UnitIndex source_index,
      common::UnitIndex::Create(std::move(source_units), "source"));
  GEOALIGN_ASSIGN_OR_RETURN(
      common::UnitIndex target_index,
      common::UnitIndex::Create(std::move(target_units), "target"));
  if (method == nullptr) {
    method = std::make_shared<GeoAlign>();
  }
  CrosswalkPipeline pipeline(std::move(source_index), std::move(target_index),
                             std::move(references), std::move(method));

  // Compile step: a GeoAlign method gets its objective-independent
  // work hoisted into one shared plan here. Compilation failures (e.g.
  // a reference whose aggregates cannot be normalized) intentionally
  // do NOT fail Create — the legacy contract surfaces those errors at
  // Realign time, so we fall back to the per-call path instead.
  if (const auto* ga =
          dynamic_cast<const GeoAlign*>(pipeline.method_.get())) {
    Result<CrosswalkPlan> plan = ga->Compile(pipeline.references_);
    if (plan.ok()) {
      pipeline.plan_ = std::make_shared<const CrosswalkPlan>(
          std::move(plan).value());
      // The plan holds a copy of each aggregate column and shares each
      // DM's arrays; drop the now-redundant originals (they were only
      // read per Realign call).
      pipeline.references_.clear();
      pipeline.references_.shrink_to_fit();
    }
  }
  return pipeline;
}

Status CrosswalkPipeline::ResolveColumn(
    const std::vector<std::pair<std::string, double>>& column,
    const common::UnitIndex& index, linalg::Vector* out) {
  out->assign(index.size(), 0.0);
  for (const auto& [unit, value] : column) {
    const size_t i = index.Find(unit);
    if (i == common::UnitIndex::kNotFound) {
      return Status::NotFound("CrosswalkPipeline: unknown unit '" + unit +
                              "'");
    }
    (*out)[i] += value;
  }
  return Status::OK();
}

Result<CrosswalkResult> CrosswalkPipeline::RealignPerCall(
    linalg::Vector objective_source) const {
  GEOALIGN_TRACE_SPAN("realign.per_call");
  CrosswalkInput input;
  input.objective_source = std::move(objective_source);
  input.references = references_;
  // Non-GeoAlign interpolators (baselines, custom methods) have no
  // compiled-plan form; this also serves GeoAlign when its plan failed
  // to compile, preserving the legacy error-at-Realign contract.
  return method_->Crosswalk(input);  // NOLINT(geoalign-plan-bypass)
}

Result<CrosswalkResult> CrosswalkPipeline::Realign(
    const std::vector<std::pair<std::string, double>>& objective) const {
  // Serving entry: make sure spans and audit records below carry a
  // request id even when the caller opened no RequestScope.
  obs::EnsureRequestScope ensure_request;
  GEOALIGN_TRACE_SPAN("realign");
  ColumnsTotal().Add(1);
  linalg::Vector objective_source;
  GEOALIGN_RETURN_IF_ERROR(
      ResolveColumn(objective, source_index_, &objective_source));
  if (plan_ != nullptr) {
    return plan_->Execute(objective_source);
  }
  return RealignPerCall(std::move(objective_source));
}

Result<std::vector<CrosswalkResult>> CrosswalkPipeline::RealignMany(
    const std::vector<Column>& objectives, size_t threads,
    ExecuteOutput output) const {
  obs::EnsureRequestScope ensure_request;
  GEOALIGN_TRACE_SPAN("realign.batch");
  ColumnsPerBatch().Record(static_cast<double>(objectives.size()));
  ColumnsTotal().Add(objectives.size());

  // Names resolve one column per task, into columns this thread
  // allocates (so they live in its malloc arena, not in the fan-out
  // threads'). Without a plan, each task then runs the per-call method
  // on its column.
  const size_t n = objectives.size();
  std::vector<linalg::Vector> resolved(n);
  for (linalg::Vector& column : resolved) column.reserve(source_index_.size());
  std::vector<Status> resolve_status(n);
  std::vector<std::optional<Result<CrosswalkResult>>> per_call(
      plan_ == nullptr ? n : 0);
  {
    GEOALIGN_TRACE_SPAN("realign.resolve");
    common::ParallelFor(threads, n, [&](size_t i, size_t) {
      resolve_status[i] = ResolveColumn(objectives[i], source_index_,
                                        &resolved[i]);
      if (plan_ != nullptr || !resolve_status[i].ok()) return;
      per_call[i].emplace(RealignPerCall(std::move(resolved[i])));
    });
  }

  if (plan_ != nullptr) {
    // Only the columns before the first unresolved one execute: any
    // later failure would lose to that column's status anyway.
    size_t valid = 0;
    while (valid < n && resolve_status[valid].ok()) ++valid;
    std::vector<common::ColumnView> columns(resolved.begin(),
                                            resolved.begin() + valid);
    Result<std::vector<CrosswalkResult>> out =
        plan_->ExecuteMany(columns, threads, output);
    if (!out.ok() || valid == n) return out;
    return resolve_status[valid];
  }

  std::vector<CrosswalkResult> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    GEOALIGN_RETURN_IF_ERROR(resolve_status[i]);
    if (!per_call[i]->ok()) return per_call[i]->status();
    out.push_back(std::move(*per_call[i]).value());
    if (output == ExecuteOutput::kAggregatesOnly) {
      // Per-call interpolators have no fused form; honor the requested
      // shape by dropping the materialized DM.
      out.back().estimated_dm = sparse::CsrMatrix();
    }
  }
  return out;
}

Result<std::vector<CrosswalkPipeline::JoinedRow>> CrosswalkPipeline::Join(
    const std::vector<std::pair<std::string, double>>& objective,
    const std::vector<std::pair<std::string, double>>& target_attribute)
    const {
  GEOALIGN_ASSIGN_OR_RETURN(CrosswalkResult realigned, Realign(objective));
  linalg::Vector target_vals;
  GEOALIGN_RETURN_IF_ERROR(
      ResolveColumn(target_attribute, target_index_, &target_vals));
  std::vector<JoinedRow> rows;
  const std::vector<std::string>& targets = target_units();
  rows.reserve(targets.size());
  for (size_t j = 0; j < targets.size(); ++j) {
    rows.push_back({targets[j], realigned.target_estimates[j], target_vals[j]});
  }
  return rows;
}

}  // namespace geoalign::core
