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
#include "sparse/coo_builder.h"
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
obs::Counter& FallbackRebuilds() {
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
// Bytes the ingest path duplicated to get reference data into a plan
// (aggregate columns + CSR arrays). The owning Compile overloads pay
// this once per reference; the view overload keeps it at zero — the
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
  // The owning ingest path duplicates every reference (aggregate
  // column + CSR arrays) into storage the plan keeps alive, then
  // compiles views of the copies; the view overload below is the
  // copy-free path.
  std::vector<ReferenceAttributeView> copies;
  copies.reserve(references.size());
  uint64_t bytes_copied = 0;
  for (const ReferenceAttribute& ref : references) {
    bytes_copied +=
        ref.source_aggregates.size() * sizeof(double) +
        ref.disaggregation.row_ptr().size() * sizeof(size_t) +
        ref.disaggregation.nnz() * (sizeof(size_t) + sizeof(double));
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
  // array is duplicated, so IngestBytesCopied stays untouched.
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
  if (options.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
      options.fallback_dm == nullptr) {
    return Status::InvalidArgument(
        "GeoAlign: kFallbackDm requires options.fallback_dm");
  }
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
    plan.fallback_shape_ok_ =
        plan.fallback_dm_->rows() == plan.prepared_.num_source() &&
        plan.fallback_dm_->cols() == plan.prepared_.num_target();
    if (plan.fallback_shape_ok_) {
      plan.fallback_row_sums_ = plan.fallback_dm_->RowSums();
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
  if (objective_source.size() != prepared_.num_source()) {
    return Status::InvalidArgument(
        "CrosswalkPlan: objective length does not match source units");
  }
  GEOALIGN_ASSIGN_OR_RETURN(linalg::Vector b,
                            linalg::NormalizeByMax(objective_source));
  return SolveWeightsNormalized(b);
}

Result<CrosswalkResult> CrosswalkPlan::Execute(
    common::ColumnView objective_source, ExecuteOutput output,
    ExecuteWorkspace* workspace) const {
  // A wrong-length column fails before the execute span opens, so it
  // leaves no audit record.
  if (objective_source.size() != prepared_.num_source()) {
    return Status::InvalidArgument(
        "CrosswalkPlan: objective length does not match source units");
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
    // through one of two bit-identical lanes. The fused lane needs the
    // shared-structure invariant; a non-aligned prepared set asked for
    // aggregates only goes through the materializing lane and drops the
    // DM at the end.
    ExecuteWorkspace local_workspace;
    ExecuteWorkspace* ws =
        workspace != nullptr ? workspace : &local_workspace;
    const uint64_t allocs_before = ws->alloc_events();

    if (output == ExecuteOutput::kAggregatesOnly && prepared_.aligned()) {
      audit_mode = "fused";
      GEOALIGN_RETURN_IF_ERROR(
          ExecuteFusedAggregates(objective_source, beta, ws, &result));
    } else {
      GEOALIGN_RETURN_IF_ERROR(
          ExecuteMaterializing(objective_source, beta, ws, &result));
      if (output == ExecuteOutput::kAggregatesOnly) {
        result.estimated_dm = sparse::CsrMatrix();
      }
    }

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
        options_.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
                !outcome->zero_rows.empty()
            ? 1
            : 0;
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

Status CrosswalkPlan::ExecuteMaterializing(
    common::ColumnView objective_source, const linalg::Vector& beta,
    ExecuteWorkspace* ws, CrosswalkResult* result) const {
  sparse::CsrMatrix estimated;
  std::vector<size_t> zero_rows;
  {
    GEOALIGN_TRACE_SPAN("execute.eq14_disaggregate");
    size_t num_refs = prepared_.size();
    const linalg::Vector& effective = EffectiveWeights(beta, ws);

    // kFromDmRowSums leaves `denominators` null: the numerator's own
    // row sums divide it.
    const linalg::Vector* denominators = nullptr;
    if (options_.denominator == DenominatorMode::kFromAggregates) {
      linalg::Vector& agg = ws->Denominators(prepared_.num_source());
      for (size_t k = 0; k < num_refs; ++k) {
        if (ExactlyZero(effective[k])) continue;
        linalg::Axpy(effective[k], prepared_.reference(k).source_aggregates,
                     agg);
      }
      denominators = &agg;
    }

    if (prepared_.aligned()) {
      GEOALIGN_ASSIGN_OR_RETURN(
          sparse::CsrMatrix numerator,
          sparse::WeightedSumAligned(prepared_.dms(), effective));
      linalg::Vector row_sums;
      if (denominators == nullptr) {
        row_sums = numerator.RowSums();
        denominators = &row_sums;
      }
      sparse::DivideRowsOrZero(numerator, *denominators,
                               options_.zero_tolerance, &zero_rows);
      numerator.ScaleRows(objective_source);
      estimated = std::move(numerator);
    } else {
      // The general lane: merge, denominator, divide, prune and scale
      // in one pass per row.
      GEOALIGN_ASSIGN_OR_RETURN(
          estimated,
          sparse::DisaggregateRows(prepared_.dms(), effective, denominators,
                                   options_.zero_tolerance, objective_source,
                                   &zero_rows));
    }

    if (options_.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
        !zero_rows.empty()) {
      if (!fallback_shape_ok_) {
        return Status::InvalidArgument("GeoAlign: fallback DM shape mismatch");
      }
      GEOALIGN_TRACE_SPAN("execute.fallback_rebuild");
      FallbackRebuilds().Add(1);
      const sparse::CsrMatrix& fb = *fallback_dm_;
      const linalg::Vector& fb_sums = fallback_row_sums_;
      std::vector<bool> is_zero_row(estimated.rows(), false);
      for (size_t r : zero_rows) is_zero_row[r] = true;
      sparse::CooBuilder builder(estimated.rows(), estimated.cols());
      for (size_t r = 0; r < estimated.rows(); ++r) {
        if (!is_zero_row[r]) {
          sparse::CsrMatrix::RowView row = estimated.Row(r);
          for (size_t k = 0; k < row.size; ++k) {
            builder.Add(r, row.cols[k], row.values[k]);
          }
          continue;
        }
        if (fb_sums[r] <= 0.0) continue;  // no fallback support either
        double scale = objective_source[r] / fb_sums[r];
        sparse::CsrMatrix::RowView row = fb.Row(r);
        for (size_t k = 0; k < row.size; ++k) {
          builder.Add(r, row.cols[k], row.values[k] * scale);
        }
      }
      estimated = builder.Build();
    }
  }

  {
    // Step 3: re-aggregation (Eq. 17).
    GEOALIGN_TRACE_SPAN("execute.eq17_reaggregate");
    result->target_estimates = estimated.ColSums();
  }

  result->estimated_dm = std::move(estimated);
  result->zero_rows = std::move(zero_rows);
  return Status::OK();
}

Status CrosswalkPlan::ExecuteFusedAggregates(
    common::ColumnView objective_source, const linalg::Vector& beta,
    ExecuteWorkspace* ws, CrosswalkResult* result) const {
  GEOALIGN_TRACE_SPAN("execute.fused");
  const linalg::Vector& effective = EffectiveWeights(beta, ws);

  sparse::FusedAggregatesInputs in;
  in.mats = &prepared_.dms();
  in.weights = &effective;
  if (options_.denominator == DenominatorMode::kFromAggregates) {
    linalg::Vector& denom = ws->Denominators(prepared_.num_source());
    for (size_t k = 0; k < prepared_.size(); ++k) {
      if (ExactlyZero(effective[k])) continue;
      linalg::Axpy(effective[k], prepared_.reference(k).source_aggregates,
                   denom);
    }
    in.denominators = &denom;
  }  // kFromDmRowSums: the kernel derives the denominators in-pass.
  in.zero_tolerance = options_.zero_tolerance;
  in.row_scale = objective_source;
  // A fallback DM whose shape never validated is withheld from the
  // kernel; the error below fires on exactly the executes where the
  // materializing lane's rebuild would have failed (zero rows hit).
  const bool use_fallback =
      options_.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
      fallback_shape_ok_;
  in.fallback_dm = use_fallback ? fallback_dm_.get() : nullptr;
  in.fallback_row_sums = use_fallback ? &fallback_row_sums_ : nullptr;

  GEOALIGN_RETURN_IF_ERROR(sparse::FusedAggregatesAligned(
      in, workspace_spec_.fused, &result->target_estimates,
      &result->zero_rows, &ws->fused()));

  if (options_.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
      !result->zero_rows.empty()) {
    if (!fallback_shape_ok_) {
      return Status::InvalidArgument("GeoAlign: fallback DM shape mismatch");
    }
    FallbackRebuilds().Add(1);
  }
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
  const bool use_fallback =
      options_.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
      fallback_shape_ok_;
  in.fallback_dm = use_fallback ? fallback_dm_.get() : nullptr;
  in.fallback_row_sums = use_fallback ? &fallback_row_sums_ : nullptr;

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
    if (options_.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
        !res.zero_rows.empty()) {
      if (!fallback_shape_ok_) {
        // Error parity with the materializing rebuild: exactly the
        // columns whose zero rows would have needed the bad-shape
        // fallback fail.
        results[ps.lanes[li]]->emplace(Status::InvalidArgument(
            "GeoAlign: fallback DM shape mismatch"));
        continue;
      }
      FallbackRebuilds().Add(1);
      ++audit.fallback;
    }
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
