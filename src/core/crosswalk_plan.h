#ifndef GEOALIGN_CORE_CROSSWALK_PLAN_H_
#define GEOALIGN_CORE_CROSSWALK_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/crosswalk_input.h"
#include "core/execute_workspace.h"
#include "core/geoalign_options.h"
#include "core/interpolator.h"
#include "linalg/matrix.h"
#include "sparse/prepared_reference.h"

namespace geoalign::core {

namespace internal {

/// Learns β for a prebuilt normalized design (Eq. 15) under every
/// WeightSolver — the solver dispatch previously private to
/// GeoAlign::Crosswalk, shared verbatim by the legacy path and the
/// compiled plan so both learn bit-identical weights.
Result<linalg::Vector> SolveWeightsForDesign(const linalg::Matrix& a,
                                             const linalg::Vector& b,
                                             const GeoAlignOptions& options);

/// The compile-time fallback check of the plan and the legacy path:
/// under ZeroRowFallback::kFallbackDm the fallback DM must be set and
/// its entries finite and non-negative (sparse::FiniteNonNegative).
Status CheckFallbackOption(const GeoAlignOptions& options);

}  // namespace internal

/// The compiled, objective-independent half of a GeoAlign crosswalk
/// (Algorithm 1): prepared references, the normalized columns of
/// Eq. 15 with their Gram matrix (simplex solver) or row-major design
/// matrix (NNLS, clamped LS), and a snapshot of the zero-row fallback
/// DM. Compile once, then Execute for any number of objective columns.
///
/// Bit-identity contract: for every objective vector and every
/// {ScaleMode, WeightSolver, DenominatorMode, ZeroRowFallback} ×
/// threads combination, `Compile(input, opts) → Execute(obj)` produces
/// exactly the bits of the legacy per-call path (`CrosswalkUncompiled`
/// in core/geoalign.h). One column runs on one thread, so thread
/// count never enters the arithmetic, and Eq. 17's `target_estimates`
/// are exactly `estimated_dm.ColSums()`: every lane adds each target's
/// terms in ascending source-row order. The hoisted quantities make
/// the rest possible:
///  - the simplex solve goes through SolveSimplexLsFromNormalEquations,
///    which is the literal tail of SolveSimplexLeastSquares, so a
///    precomputed Gram matrix changes nothing, and the column kernels
///    (linalg::GramOfColumns, ColumnsTVec) sum each entry in row order
///    as Matrix::Gram and MatTVec do;
///  - DMs stay raw with a scalar normalizer folded into the per-execute
///    effective weights, exactly as the legacy loop does (pre-scaling
///    the matrix values would reorder IEEE divisions);
///  - sparse::DisaggregateRows runs WeightedSum → RowSums →
///    DivideRowsOrZero → ScaleRows as one row pass with the same
///    operations per entry, on private and shared structures alike;
///    its aggregates output adds each kept entry into â^t_o in the
///    order ColSums would;
///  - the panel kernel (shared structures only) replays that pass per
///    lane.
///
/// Immutable after Compile and safe to share across threads: Execute
/// is const and touches no mutable state. Move-only (the prepared set
/// holds internal pointers that survive moves but not copies).
class CrosswalkPlan {
 public:
  /// Compiles the objective-independent work for `input.references`
  /// (the objective column in `input` is ignored). Fails on no
  /// references and on a fallback DM internal::CheckFallbackOption
  /// rejects, with the legacy path's messages, then on the first
  /// reference that sparse::CheckReference rejects. A DM whose rows do
  /// not sum to its aggregates still compiles, and so does a fallback
  /// DM of the wrong shape: it fails the executes that hit a zero row.
  /// When a fallback DM is supplied it is snapshotted, so the plan never
  /// dangles on the caller's pointer.
  ///
  /// The plan keeps a copy of each aggregate column (charged to the
  /// `ingest.bytes_copied` counter) and a copy of each DM, which shares
  /// the caller's arrays (a CsrMatrix copy allocates none).
  static Result<CrosswalkPlan> Compile(const CrosswalkInput& input,
                                       const GeoAlignOptions& options);

  /// Same, from a bare reference list.
  static Result<CrosswalkPlan> Compile(
      const std::vector<ReferenceAttribute>& references,
      const GeoAlignOptions& options);

  /// Zero-copy compile: the reference aggregate columns stay borrowed
  /// caller memory all the way into the prepared set — no aggregate
  /// column is duplicated (the `ingest.bytes_copied` counter stays
  /// flat). The viewed memory must outlive the plan; attach keepalives
  /// to the views to make that automatic. Surfaces the same errors —
  /// and produces the same fingerprint for the same bytes — as the
  /// owning overloads, so PlanCache keys are ingest-path independent.
  static Result<CrosswalkPlan> Compile(
      std::vector<ReferenceAttributeView> references,
      const GeoAlignOptions& options);

  CrosswalkPlan(CrosswalkPlan&&) = default;
  CrosswalkPlan& operator=(CrosswalkPlan&&) = default;
  CrosswalkPlan(const CrosswalkPlan&) = delete;
  CrosswalkPlan& operator=(const CrosswalkPlan&) = delete;

  /// Runs weight learning (Eq. 15) + disaggregation (Eq. 14) +
  /// re-aggregation (Eq. 17) for one objective column on the calling
  /// thread. Objective columns are borrowed views (a `linalg::Vector`
  /// converts implicitly) valid for the duration of the call only.
  /// `output` selects the result shape, and nothing else does: both
  /// outputs run the one row kernel, sparse::DisaggregateRows, on any
  /// reference structure, and it applies a zero row's fallback row at
  /// that row's turn. ExecuteOutput::kFullDm writes DM̂_o and takes its
  /// column sums; ExecuteOutput::kAggregatesOnly adds its kept entries
  /// straight into `target_estimates` and never materializes DM̂_o.
  ///
  /// `workspace` is an optional reusable arena (sized per
  /// workspace_spec(); grown only if needed, so steady-state executes
  /// through a prepared workspace perform zero hot-path buffer growth —
  /// the `execute.hot_path_allocs` / `execute.workspace_reuse`
  /// counters). A workspace serves one execute at a time; nullptr uses
  /// a per-call local one. Bit-identity: output shape and workspace
  /// reuse never change any produced value — `target_estimates`,
  /// `weights`, and `zero_rows` carry exactly the kFullDm/no-workspace
  /// bits.
  Result<CrosswalkResult> Execute(
      common::ColumnView objective_source,
      ExecuteOutput output = ExecuteOutput::kFullDm,
      ExecuteWorkspace* workspace = nullptr) const;

  /// Executes `count` objective columns as fused column panels
  /// (aggregates-only): weight learning stays scalar per column, then
  /// one shared-structure traversal per panel serves every lane
  /// through the vectorized sparse::FusedAggregatesPanel kernel,
  /// dispatched on the active ISA (sparse/simd/). `results[i]`
  /// receives column i's result or error — the same per-column
  /// statuses and exactly the same bits as per-column
  /// Execute(kAggregatesOnly) calls, at every panel width, ISA, and
  /// thread count.
  ///
  /// `objectives` is an array of `count` borrowed column views and
  /// `results` an array of `count` non-null pointers; `workspace` is
  /// the reusable per-slot arena (nullptr uses a per-call local one).
  /// ExecuteMany slices its columns into panels of panel_width() and
  /// runs one call per panel; counts above simd::kMaxPanelWidth are
  /// split internally. The panel kernel needs one shared structure, so
  /// on a non-aligned prepared set each column runs
  /// Execute(kAggregatesOnly) instead.
  void ExecutePanelWith(const common::ColumnView* objectives,
                        std::optional<Result<CrosswalkResult>>* const* results,
                        size_t count, ExecuteWorkspace* workspace) const;

  /// Executes many objective columns over this one plan — the paper's
  /// §6 portal shape, and the only multi-column execute:
  /// CrosswalkPipeline::RealignMany and BatchCrosswalk::Run both serve
  /// through it. Returns the results index-aligned with `objectives`,
  /// or the lowest-index failing column's status. Every result carries
  /// exactly the bits of a per-column Execute(`output`), at every
  /// thread count.
  ///
  /// Aligned kAggregatesOnly columns run as panels of panel_width()
  /// (ExecutePanelWith), one task per panel; every other shape runs
  /// one task per column. The tasks fan out over common::ParallelFor
  /// on `threads` (0 = every hardware thread); with one thread or one
  /// task they run in order on the calling thread. Each task runs on
  /// one thread, with its worker's ExecuteWorkspace, sized once from
  /// workspace_spec().
  Result<std::vector<CrosswalkResult>> ExecuteMany(
      common::ConstSpan<common::ColumnView> objectives, size_t threads,
      ExecuteOutput output) const;

  /// The serving panel width (columns per ExecutePanelWith call),
  /// derived at execute time from the active SIMD ISA. Deliberately
  /// NOT part of the plan or its fingerprint: a PlanCache entry
  /// compiled under one ISA must execute identically under any other,
  /// so ExecuteMany asks at execute time instead of baking a width
  /// into cached state (no serving surface takes a caller width).
  size_t panel_width() const;

  /// Weight learning only (Eq. 15) — β for one objective column. A
  /// column CheckObjective rejects fails with its message, as it does
  /// in Execute and every serving path.
  Result<linalg::Vector> LearnWeights(
      common::ColumnView objective_source) const;

  size_t num_source_units() const { return prepared_.num_source(); }
  size_t num_target_units() const { return prepared_.num_target(); }
  const GeoAlignOptions& options() const { return options_; }
  const sparse::PreparedReferenceSet& references() const { return prepared_; }

  /// Content fingerprint of the prepared reference set (names,
  /// aggregates, CSR arrays) — the reference half of a PlanCache key.
  uint64_t fingerprint() const { return prepared_.fingerprint(); }

  /// Scratch sizing for ExecuteWorkspace, fixed at Compile time —
  /// serving loops size their workspace bank from this once instead of
  /// re-resolving scratch sizes per call.
  const ExecuteWorkspaceSpec& workspace_spec() const {
    return workspace_spec_;
  }

 private:
  CrosswalkPlan(sparse::PreparedReferenceSet prepared,
                GeoAlignOptions options);

  /// The one Compile body behind every public overload: up-front
  /// checks, Prepare, column views, then the Gram matrix (kSimplex)
  /// or the row-major design matrix (kNnlsNormalized, kClampedLs; no
  /// other solver reads rows, so none gets one), workspace spec,
  /// fallback snapshot. The public entries open the `compile` span.
  static Result<CrosswalkPlan> CompileViews(
      std::vector<ReferenceAttributeView> references,
      const GeoAlignOptions& options);

  /// β for an already max-normalized objective vector.
  Result<linalg::Vector> SolveWeightsNormalized(
      const linalg::Vector& b_normalized) const;

  /// Eq. 14's weights for one column, shared by both outputs: fills
  /// the workspace's effective-weight buffer with β_k / normalizer_k.
  const linalg::Vector& EffectiveWeights(const linalg::Vector& beta,
                                         ExecuteWorkspace* ws) const;

  /// Eq. 14's denominators under kFromAggregates: Σ_k effective[k] ·
  /// a^s_k in the workspace, operands in ascending order with exact
  /// zero weights skipped. Null under kFromDmRowSums, where the row
  /// kernel sums each row itself.
  const linalg::Vector* Denominators(const linalg::Vector& effective,
                                     ExecuteWorkspace* ws) const;

  /// Under kFallbackDm, a column that hit zero rows took the fallback
  /// DM (counted), or fails with the oracle's error when that DM is not
  /// of the plan's shape. OK for every other column.
  Status CountFallback(const std::vector<size_t>& zero_rows) const;

  /// One panel (count <= simd::kMaxPanelWidth) of the panel lane:
  /// per-column weight solves, lane-major weight staging, one
  /// FusedAggregatesPanel call, per-column result fill.
  void ExecuteOnePanel(const common::ColumnView* objectives,
                       std::optional<Result<CrosswalkResult>>* const* results,
                       size_t count, ExecuteWorkspace* ws) const;

  sparse::PreparedReferenceSet prepared_;
  GeoAlignOptions options_;
  /// Eq. 15's columns A (one normalized aggregate column per
  /// reference), viewed in prepared_: the simplex solve forms A^T b
  /// from them at every execute.
  std::vector<linalg::VectorView> columns_;
  /// Row-major A, built only for the solvers that read it
  /// (kNnlsNormalized, kClampedLs); otherwise 0 rows x n columns.
  linalg::Matrix design_;
  linalg::Matrix gram_;  ///< A^T A from columns_; kSimplex only
  /// Snapshot of options.fallback_dm (a copy, sharing its arrays);
  /// after Compile, options_.fallback_dm points here, never at the
  /// caller's matrix.
  std::shared_ptr<const sparse::CsrMatrix> fallback_dm_;
  /// Under kFallbackDm with a fallback DM of the plan's shape, its row
  /// sums, and both as the row kernels take them; otherwise null.
  std::shared_ptr<const linalg::Vector> fallback_row_sums_;
  sparse::FallbackRows row_fallback_;
  ExecuteWorkspaceSpec workspace_spec_;  ///< scratch sizing, see accessor
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_CROSSWALK_PLAN_H_
