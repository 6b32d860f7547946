#include "core/crosswalk_plan.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/float_eq.h"
#include "common/parallel_for.h"
#include "sparse/simd/panel_kernels.h"
#include "linalg/nnls.h"
#include "linalg/qr.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sparse/sparse_ops.h"

namespace geoalign::core {

namespace {

// Serving-path telemetry (catalog: docs/observability.md). Everything
// here OBSERVES only — no branch below may influence the reductions,
// preserving the bit-identity contract (tests/obs_test.cc pins
// enabled-vs-disabled equivalence).
obs::Counter& CompileCount() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("compile.count");
  return c;
}
obs::Counter& ExecuteCount() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.count");
  return c;
}
obs::Counter& ZeroRowsTotal() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.zero_rows");
  return c;
}
// Executes whose zero rows took the fallback DM.
obs::Counter& FallbackExecutes() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.fallback_rebuilds");
  return c;
}
// Workspace-growth events seen by executes (0 in steady state once a
// reused workspace is warm) and executes that completed through an
// externally supplied workspace without growing it.
obs::Counter& HotPathAllocs() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.hot_path_allocs");
  return c;
}
obs::Counter& WorkspaceReuse() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.workspace_reuse");
  return c;
}
// Bytes the ingest path duplicated to get reference data into a plan.
// The owning Compile overloads copy each aggregate column (a DM copy
// shares its arrays); the view overload keeps it at zero — the
// zero-copy contract tests assert on the delta.
obs::Counter& IngestBytesCopied() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("ingest.bytes_copied");
  return c;
}

// Panel-lane telemetry: panels served, their width distribution, and
// the ISA executes dispatch to (numeric Isa value; 0 = scalar,
// 1 = avx2, 2 = neon — docs/observability.md).
obs::Counter& PanelCount() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.panel.count");
  return c;
}
obs::Histogram& PanelWidthHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "execute.panel_width", {1, 2, 4, 8, 16, 32, 64});
  return h;
}
obs::Gauge& ExecuteIsaGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("execute.isa");
  return g;
}

// One per-solver counter so the weight-solve mix is visible per
// WeightSolver, not just in aggregate.
obs::Counter& WeightSolveCount(WeightSolver solver) {
  static obs::Counter& simplex =
      obs::MetricsRegistry::Global().GetCounter("weight_solve.simplex");
  static obs::Counter& nnls =
      obs::MetricsRegistry::Global().GetCounter("weight_solve.nnls_normalized");
  static obs::Counter& clamped =
      obs::MetricsRegistry::Global().GetCounter("weight_solve.clamped_ls");
  static obs::Counter& uniform =
      obs::MetricsRegistry::Global().GetCounter("weight_solve.uniform");
  switch (solver) {
    case WeightSolver::kSimplex:
      return simplex;
    case WeightSolver::kNnlsNormalized:
      return nnls;
    case WeightSolver::kClampedLs:
      return clamped;
    case WeightSolver::kUniform:
      return uniform;
  }
  return uniform;
}

}  // namespace

namespace internal {

Result<linalg::Vector> SolveWeightsForDesign(const linalg::Matrix& a,
                                             const linalg::Vector& b,
                                             const GeoAlignOptions& options) {
  GEOALIGN_TRACE_SPAN("execute.weight_solve");
  WeightSolveCount(options.solver).Add(1);
  size_t n = a.cols();
  switch (options.solver) {
    case WeightSolver::kSimplex: {
      GEOALIGN_ASSIGN_OR_RETURN(
          linalg::SimplexLsSolution sol,
          linalg::SolveSimplexLeastSquares(a, b, options.solver_options));
      return sol.beta;
    }
    case WeightSolver::kNnlsNormalized: {
      GEOALIGN_ASSIGN_OR_RETURN(linalg::NnlsSolution sol,
                                linalg::SolveNnls(a, b));
      double total = linalg::Sum(sol.x);
      if (total <= 0.0) {
        // NNLS degenerated to the zero vector; fall back to uniform.
        return linalg::Vector(n, 1.0 / static_cast<double>(n));
      }
      linalg::Scale(sol.x, 1.0 / total);
      return sol.x;
    }
    case WeightSolver::kClampedLs: {
      auto ls = linalg::LeastSquaresQr(a, b);
      if (!ls.ok()) {
        // Rank-deficient design (duplicate references): uniform.
        return linalg::Vector(n, 1.0 / static_cast<double>(n));
      }
      linalg::Vector beta = std::move(ls).value();
      double total = 0.0;
      for (double& v : beta) {
        if (v < 0.0) v = 0.0;
        total += v;
      }
      if (total <= 0.0) {
        return linalg::Vector(n, 1.0 / static_cast<double>(n));
      }
      linalg::Scale(beta, 1.0 / total);
      return beta;
    }
    case WeightSolver::kUniform:
      return linalg::Vector(n, 1.0 / static_cast<double>(n));
  }
  return Status::Internal("unknown weight solver");
}

Status CheckFallbackOption(const GeoAlignOptions& options) {
  if (options.zero_row_fallback != ZeroRowFallback::kFallbackDm) {
    return Status::OK();
  }
  if (options.fallback_dm == nullptr) {
    return Status::InvalidArgument(
        "GeoAlign: kFallbackDm requires options.fallback_dm");
  }
  if (!sparse::FiniteNonNegative(options.fallback_dm->values())) {
    return Status::InvalidArgument(
        "GeoAlign: fallback DM has a negative or non-finite entry");
  }
  return Status::OK();
}

}  // namespace internal

CrosswalkPlan::CrosswalkPlan(sparse::PreparedReferenceSet prepared,
                             GeoAlignOptions options)
    : prepared_(std::move(prepared)), options_(std::move(options)) {}

Result<CrosswalkPlan> CrosswalkPlan::Compile(
    const CrosswalkInput& input, const GeoAlignOptions& options) {
  return Compile(input.references, options);
}

Result<CrosswalkPlan> CrosswalkPlan::Compile(
    const std::vector<ReferenceAttribute>& references,
    const GeoAlignOptions& options) {
  GEOALIGN_TRACE_SPAN("compile");
  // The owning ingest path copies each aggregate column into storage
  // the plan keeps alive and shares each DM's arrays, then compiles
  // views of them; the view overload below copies nothing.
  std::vector<ReferenceAttributeView> copies;
  copies.reserve(references.size());
  uint64_t bytes_copied = 0;
  for (const ReferenceAttribute& ref : references) {
    bytes_copied += ref.source_aggregates.size() * sizeof(double);
    auto aggregates =
        std::make_shared<const linalg::Vector>(ref.source_aggregates);
    copies.push_back({ref.name, *aggregates, ref.disaggregation, aggregates});
  }
  IngestBytesCopied().Add(bytes_copied);
  return CompileViews(std::move(copies), options);
}

Result<CrosswalkPlan> CrosswalkPlan::Compile(
    std::vector<ReferenceAttributeView> references,
    const GeoAlignOptions& options) {
  GEOALIGN_TRACE_SPAN("compile");
  // Views flow straight into Prepare — no aggregate column or CSR
  // array is copied, so IngestBytesCopied stays untouched.
  return CompileViews(std::move(references), options);
}

Result<CrosswalkPlan> CrosswalkPlan::CompileViews(
    std::vector<ReferenceAttributeView> references,
    const GeoAlignOptions& options) {
  // The legacy path's up-front checks, in its order and with its
  // messages; every reference check is Prepare's.
  if (references.empty()) {
    return Status::InvalidArgument("no reference attributes");
  }
  GEOALIGN_RETURN_IF_ERROR(internal::CheckFallbackOption(options));
  GEOALIGN_ASSIGN_OR_RETURN(
      sparse::PreparedReferenceSet prepared,
      sparse::PreparedReferenceSet::Prepare(std::move(references)));
  CrosswalkPlan plan(std::move(prepared), options);

  // Eq. 15's columns, viewed where Prepare normalized them.
  const size_t num_refs = plan.prepared_.size();
  plan.columns_.reserve(num_refs);
  for (size_t k = 0; k < num_refs; ++k) {
    plan.columns_.push_back(plan.prepared_.reference(k).normalized_aggregates);
  }
  if (plan.options_.solver == WeightSolver::kNnlsNormalized ||
      plan.options_.solver == WeightSolver::kClampedLs) {
    // The row-major design matrix the NNLS and QR solvers read: the
    // same normalized columns the legacy BuildNormalizedSystem
    // assembles per call.
    GEOALIGN_TRACE_SPAN("compile.design");
    std::vector<linalg::Vector> cols;
    cols.reserve(num_refs);
    for (size_t k = 0; k < num_refs; ++k) {
      cols.push_back(plan.prepared_.reference(k).normalized_aggregates);
    }
    plan.design_ = linalg::Matrix::FromColumns(cols);
  } else {
    // No solver reads rows here; kUniform reads only the width.
    plan.design_ = linalg::Matrix(0, num_refs);
  }
  if (plan.options_.solver == WeightSolver::kSimplex) {
    // SolveSimplexLeastSquares(a, b) is literally
    // SolveSimplexLsFromNormalEquations(a.Gram(), a.MatTVec(b), b·b),
    // and the column kernels give a.Gram() and a.MatTVec(b) bit for
    // bit, so the hoisted Gram matrix reproduces the legacy bits.
    GEOALIGN_TRACE_SPAN("compile.gram");
    plan.gram_ = linalg::GramOfColumns(plan.columns_);
  }

  // The plan-compiled workspace spec: every scratch size an execute
  // needs, resolved once here so serving loops never re-derive it.
  plan.workspace_spec_.num_references = plan.prepared_.size();
  plan.workspace_spec_.num_source = plan.prepared_.num_source();
  plan.workspace_spec_.num_target = plan.prepared_.num_target();
  plan.workspace_spec_.aligned = plan.prepared_.aligned();
  if (plan.workspace_spec_.aligned) {
    plan.workspace_spec_.fused = sparse::FusedWorkspace::ComputeSpec(
        *plan.prepared_.dms()[0], plan.prepared_.size());
  }

  if (plan.options_.fallback_dm != nullptr) {
    // Snapshot the fallback DM so the plan owns everything it reads at
    // Execute time; a cached plan must not dangle on caller memory.
    plan.fallback_dm_ = std::make_shared<const sparse::CsrMatrix>(
        *plan.options_.fallback_dm);
    plan.options_.fallback_dm = plan.fallback_dm_.get();
    if (plan.options_.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
        plan.fallback_dm_->rows() == plan.prepared_.num_source() &&
        plan.fallback_dm_->cols() == plan.prepared_.num_target()) {
      plan.fallback_row_sums_ = std::make_shared<const linalg::Vector>(
          plan.fallback_dm_->RowSums());
      plan.row_fallback_ = {plan.fallback_dm_.get(),
                            plan.fallback_row_sums_.get()};
    }
  }
  CompileCount().Add(1);
  return plan;
}

Result<linalg::Vector> CrosswalkPlan::SolveWeightsNormalized(
    const linalg::Vector& b_normalized) const {
  if (options_.solver == WeightSolver::kSimplex) {
    // Fast path bypasses SolveWeightsForDesign, so it carries its own
    // weight_solve span/counter.
    GEOALIGN_TRACE_SPAN("execute.weight_solve");
    WeightSolveCount(WeightSolver::kSimplex).Add(1);
    GEOALIGN_ASSIGN_OR_RETURN(
        linalg::SimplexLsSolution sol,
        linalg::SolveSimplexLsFromNormalEquations(
            gram_, linalg::ColumnsTVec(columns_, b_normalized),
            linalg::Dot(b_normalized, b_normalized),
            options_.solver_options));
    return sol.beta;
  }
  return internal::SolveWeightsForDesign(design_, b_normalized, options_);
}

Result<linalg::Vector> CrosswalkPlan::LearnWeights(
    common::ColumnView objective_source) const {
  GEOALIGN_ASSIGN_OR_RETURN(
      linalg::Vector b,
      CheckObjective(objective_source, prepared_.num_source()));
  return SolveWeightsNormalized(b);
}

Result<CrosswalkResult> CrosswalkPlan::Execute(
    common::ColumnView objective_source, ExecuteOutput output,
    ExecuteWorkspace* workspace) const {
  // A wrong-length column fails before the execute span opens, so it
  // leaves no audit record.
  if (objective_source.size() != prepared_.num_source()) {
    return CheckObjective(objective_source, prepared_.num_source()).status();
  }
  GEOALIGN_TRACE_SPAN("execute");
  obs::Stopwatch execute_watch;
  const char* audit_mode = "materializing";

  // The body runs inside a lambda so the single exit point below can
  // publish one flight-recorder audit record per execute, success or
  // failure (the recorder is always on; see obs/flight_recorder.h).
  Result<CrosswalkResult> outcome = [&]() -> Result<CrosswalkResult> {
    CrosswalkResult result;

    // Step 1: weight learning (Eq. 15) over the precompiled design.
    // (The weight_solve span lives inside the solver dispatch so it
    // covers every WeightSolver, simplex fast path included.)
    GEOALIGN_ASSIGN_OR_RETURN(linalg::Vector beta,
                              LearnWeights(objective_source));

    // Steps 2+3: disaggregation (Eq. 14) + re-aggregation (Eq. 17),
    // one row pass of sparse::DisaggregateRows on any structure, zero
    // rows' fallback rows included. The output alone picks what that
    // pass writes.
    ExecuteWorkspace local_workspace;
    ExecuteWorkspace* ws =
        workspace != nullptr ? workspace : &local_workspace;
    const uint64_t allocs_before = ws->alloc_events();

    if (output == ExecuteOutput::kFullDm) {
      {
        GEOALIGN_TRACE_SPAN("execute.eq14_disaggregate");
        const linalg::Vector& effective = EffectiveWeights(beta, ws);
        GEOALIGN_ASSIGN_OR_RETURN(
            result.estimated_dm,
            sparse::DisaggregateRows(prepared_.dms(), effective,
                                     Denominators(effective, ws),
                                     options_.zero_tolerance, objective_source,
                                     row_fallback_, &result.zero_rows));
      }
      GEOALIGN_TRACE_SPAN("execute.eq17_reaggregate");
      result.target_estimates = result.estimated_dm.ColSums();
    } else {
      // Each kept entry goes straight into â^t_o; DM̂_o is never built.
      audit_mode = "fused";
      GEOALIGN_TRACE_SPAN("execute.fused");
      const linalg::Vector& effective = EffectiveWeights(beta, ws);
      GEOALIGN_RETURN_IF_ERROR(sparse::DisaggregateRows(
          prepared_.dms(), effective, Denominators(effective, ws),
          options_.zero_tolerance, objective_source, row_fallback_,
          &result.target_estimates, &result.zero_rows, &ws->rows()));
    }
    GEOALIGN_RETURN_IF_ERROR(CountFallback(result.zero_rows));

    result.weights = std::move(beta);
    ZeroRowsTotal().Add(result.zero_rows.size());
    // Workspace telemetry (observe-only): growth events this execute,
    // and reuse of an externally supplied workspace that stayed warm.
    const uint64_t grown = ws->alloc_events() - allocs_before;
    HotPathAllocs().Add(grown);
    if (workspace != nullptr && grown == 0) WorkspaceReuse().Add(1);
    ExecuteCount().Add(1);
    return result;
  }();

  obs::AuditRecord audit;
  audit.plan_fingerprint = prepared_.fingerprint();
  std::strncpy(audit.mode, audit_mode, sizeof(audit.mode) - 1);
  audit.rows = prepared_.num_source();
  audit.latency_us = static_cast<uint64_t>(execute_watch.ElapsedMicros());
  if (outcome.ok()) {
    audit.zero_rows = outcome->zero_rows.size();
    audit.fallback =
        row_fallback_.dm != nullptr && !outcome->zero_rows.empty();
  } else {
    audit.ok = 0;
  }
  obs::FlightRecorder::Global().Record(audit);
  return outcome;
}

const linalg::Vector& CrosswalkPlan::EffectiveWeights(
    const linalg::Vector& beta, ExecuteWorkspace* ws) const {
  // The scalar normalizers were hoisted at compile time; the division
  // itself must stay here — beta[k]/norm then times the raw DM is the
  // legacy operation order.
  size_t num_refs = prepared_.size();
  linalg::Vector& effective = ws->EffectiveWeights(num_refs);
  for (size_t k = 0; k < num_refs; ++k) {
    double norm = options_.scale_mode == ScaleMode::kNormalized
                      ? prepared_.reference(k).normalizer
                      : 1.0;
    effective[k] = beta[k] / norm;
  }
  return effective;
}

const linalg::Vector* CrosswalkPlan::Denominators(
    const linalg::Vector& effective, ExecuteWorkspace* ws) const {
  if (options_.denominator != DenominatorMode::kFromAggregates) {
    return nullptr;
  }
  linalg::Vector& denominators = ws->Denominators(prepared_.num_source());
  for (size_t k = 0; k < prepared_.size(); ++k) {
    if (ExactlyZero(effective[k])) continue;
    linalg::Axpy(effective[k], prepared_.reference(k).source_aggregates,
                 denominators);
  }
  return &denominators;
}

Status CrosswalkPlan::CountFallback(
    const std::vector<size_t>& zero_rows) const {
  if (options_.zero_row_fallback != ZeroRowFallback::kFallbackDm ||
      zero_rows.empty()) {
    return Status::OK();
  }
  // A fallback DM whose shape failed at compile is never used.
  if (row_fallback_.dm == nullptr) {
    return Status::InvalidArgument("GeoAlign: fallback DM shape mismatch");
  }
  FallbackExecutes().Add(1);
  return Status::OK();
}

size_t CrosswalkPlan::panel_width() const {
  // One shared-structure traversal serves the whole panel either way;
  // vector ISAs take wider panels to fill their lanes, the scalar
  // reference keeps the per-row working set smaller.
  return sparse::simd::ActiveIsa() == sparse::simd::Isa::kScalar ? 8 : 16;
}

void CrosswalkPlan::ExecutePanelWith(
    const common::ColumnView* objectives,
    std::optional<Result<CrosswalkResult>>* const* results, size_t count,
    ExecuteWorkspace* workspace) const {
  if (count == 0) return;
  if (!prepared_.aligned()) {
    // Serving loops only route aligned plans here; keep the entry
    // total by degrading to the per-column lane.
    for (size_t i = 0; i < count; ++i) {
      results[i]->emplace(
          Execute(objectives[i], ExecuteOutput::kAggregatesOnly, workspace));
    }
    return;
  }
  ExecuteWorkspace local_workspace;
  ExecuteWorkspace* ws = workspace != nullptr ? workspace : &local_workspace;
  for (size_t base = 0; base < count; base += sparse::simd::kMaxPanelWidth) {
    ExecuteOnePanel(objectives + base, results + base,
                    std::min(sparse::simd::kMaxPanelWidth, count - base), ws);
  }
}

Result<std::vector<CrosswalkResult>> CrosswalkPlan::ExecuteMany(
    common::ConstSpan<common::ColumnView> objectives, size_t threads,
    ExecuteOutput output) const {
  const size_t n = objectives.size();
  // Aligned aggregates-only columns share one traversal per panel;
  // every other shape is one column per task.
  const bool panels =
      output == ExecuteOutput::kAggregatesOnly && prepared_.aligned();
  const size_t width = panels ? panel_width() : 1;
  const size_t num_tasks = (n + width - 1) / width;

  // One workspace per worker, sized once from the compiled spec so
  // steady-state tasks grow nothing.
  std::vector<ExecuteWorkspace> bank(
      common::ParallelWorkers(threads, num_tasks));
  for (ExecuteWorkspace& ws : bank) {
    ws.Prepare(workspace_spec_);
    if (panels) ws.PreparePanel(workspace_spec_, std::min(width, n));
  }

  std::vector<std::optional<Result<CrosswalkResult>>> results(n);
  common::ParallelFor(threads, num_tasks, [&](size_t t, size_t worker) {
    ExecuteWorkspace& ws = bank[worker];
    if (panels) {
      const size_t begin = t * width;
      const size_t count = std::min(width, n - begin);
      std::array<std::optional<Result<CrosswalkResult>>*,
                 sparse::simd::kMaxPanelWidth>
          slots;
      for (size_t k = 0; k < count; ++k) slots[k] = &results[begin + k];
      ExecutePanelWith(objectives.data() + begin, slots.data(), count, &ws);
    } else {
      results[t].emplace(Execute(objectives[t], output, &ws));
    }
  });

  std::vector<CrosswalkResult> out;
  out.reserve(n);
  for (std::optional<Result<CrosswalkResult>>& r : results) {
    if (!r->ok()) return r->status();
    out.push_back(std::move(*r).value());
  }
  return out;
}

void CrosswalkPlan::ExecuteOnePanel(
    const common::ColumnView* objectives,
    std::optional<Result<CrosswalkResult>>* const* results, size_t count,
    ExecuteWorkspace* ws) const {
  GEOALIGN_TRACE_SPAN("execute.panel");
  obs::Stopwatch execute_watch;
  const uint64_t allocs_before = ws->alloc_events();
  // The ISA (and with it the preferred panel width) is an execute-time
  // property — nothing about it is baked into the plan or its
  // fingerprint, so a plan cached under one ISA serves them all.
  const sparse::simd::Isa isa = sparse::simd::ActiveIsa();
  ws->PreparePanel(workspace_spec_, count);

  // Step 1 per column: weight learning (Eq. 15) stays scalar — lanes
  // are only ganged for the sparse traversal. A column whose solve
  // fails gets its error; the surviving lanes still share one panel.
  ExecuteWorkspace::PanelScratch& ps = ws->panel();
  ps.lanes.clear();
  for (size_t i = 0; i < count; ++i) {
    Result<linalg::Vector> beta = LearnWeights(objectives[i]);
    if (!beta.ok()) {
      results[i]->emplace(beta.status());
      continue;
    }
    results[i]->emplace(CrosswalkResult{});
    CrosswalkResult& res = (*results[i])->value();
    res.weights = std::move(beta).value();
    ps.lanes.push_back(i);
  }
  const size_t width = ps.lanes.size();
  if (width == 0) return;

  // Steps 2+3: one fused panel pass. Lane-major effective weights are
  // the per-column β_k / normalizer_k divisions, verbatim.
  const size_t num_refs = prepared_.size();
  for (size_t mi = 0; mi < num_refs; ++mi) {
    double norm = options_.scale_mode == ScaleMode::kNormalized
                      ? prepared_.reference(mi).normalizer
                      : 1.0;
    for (size_t li = 0; li < width; ++li) {
      const CrosswalkResult& res = (*results[ps.lanes[li]])->value();
      ps.lane_weights[mi * width + li] = res.weights[mi] / norm;
    }
  }
  ps.row_scales.clear();
  ps.targets.clear();
  ps.zero_lists.clear();
  for (size_t li = 0; li < width; ++li) {
    CrosswalkResult& res = (*results[ps.lanes[li]])->value();
    ps.row_scales.push_back(objectives[ps.lanes[li]]);
    ps.targets.push_back(&res.target_estimates);
    ps.zero_lists.push_back(&res.zero_rows);
  }
  ps.operand_aggregates.clear();
  sparse::FusedPanelInputs in;
  in.mats = &prepared_.dms();
  in.lane_weights = ps.lane_weights.data();
  in.width = width;
  in.row_scales = ps.row_scales.data();
  if (options_.denominator == DenominatorMode::kFromAggregates) {
    // The kernel re-derives each lane's denominators per row with the
    // same operand-ascending accumulation as the hoisted linalg::Axpy
    // loop of the single-column lane — bit-identical per element.
    for (size_t mi = 0; mi < num_refs; ++mi) {
      ps.operand_aggregates.push_back(
          prepared_.reference(mi).source_aggregates);
    }
    in.operand_aggregates = ps.operand_aggregates.data();
  }
  in.zero_tolerance = options_.zero_tolerance;
  in.fallback = row_fallback_;

  Status st = sparse::FusedAggregatesPanel(in, workspace_spec_.fused, isa,
                                           ps.targets.data(),
                                           ps.zero_lists.data(), &ws->fused());

  // One always-on flight-recorder audit record per panel (the panel is
  // the execute unit in this lane; per-lane context lives in results).
  obs::AuditRecord audit;
  audit.plan_fingerprint = prepared_.fingerprint();
  std::strncpy(audit.mode, "panel", sizeof(audit.mode) - 1);
  audit.panel_width = static_cast<uint32_t>(width);
  audit.isa = static_cast<uint32_t>(isa);
  audit.rows = prepared_.num_source();

  if (!st.ok()) {
    for (size_t li = 0; li < width; ++li) results[ps.lanes[li]]->emplace(st);
    audit.ok = 0;
    audit.latency_us = static_cast<uint64_t>(execute_watch.ElapsedMicros());
    obs::FlightRecorder::Global().Record(audit);
    return;
  }
  for (size_t li = 0; li < width; ++li) {
    CrosswalkResult& res = (*results[ps.lanes[li]])->value();
    const Status counted = CountFallback(res.zero_rows);
    if (!counted.ok()) {
      results[ps.lanes[li]]->emplace(counted);
      continue;
    }
    audit.fallback += row_fallback_.dm != nullptr && !res.zero_rows.empty();
    audit.zero_rows += res.zero_rows.size();
    ZeroRowsTotal().Add(res.zero_rows.size());
    ExecuteCount().Add(1);
  }

  // Panel-lane telemetry (observe-only): the dispatched ISA, the
  // served width, and the usual workspace health counters.
  ExecuteIsaGauge().Set(static_cast<int64_t>(isa));
  PanelWidthHist().Record(static_cast<double>(width));
  PanelCount().Add(1);
  const uint64_t grown = ws->alloc_events() - allocs_before;
  HotPathAllocs().Add(grown);
  if (grown == 0) WorkspaceReuse().Add(1);
  audit.latency_us = static_cast<uint64_t>(execute_watch.ElapsedMicros());
  obs::FlightRecorder::Global().Record(audit);
}

}  // namespace geoalign::core
