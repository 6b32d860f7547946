#ifndef GEOALIGN_CORE_EXECUTE_WORKSPACE_H_
#define GEOALIGN_CORE_EXECUTE_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "sparse/fused_execute.h"
#include "sparse/sparse_ops.h"

namespace geoalign::core {

/// Per-plan scratch sizing, computed once at `CrosswalkPlan::Compile`
/// (`CrosswalkPlan::workspace_spec()`). Serving loops that used to
/// re-resolve scratch sizes on every iteration size their workspace
/// bank from this instead — nothing about buffer sizes is decided per
/// call.
struct ExecuteWorkspaceSpec {
  size_t num_references = 0;
  size_t num_source = 0;
  size_t num_target = 0;
  /// True when the prepared references share one CSR structure — the
  /// precondition of the panel lane.
  bool aligned = false;
  /// Panel-kernel sizing (row/col counts, widest row); meaningful only
  /// when `aligned`.
  sparse::FusedWorkspace::Spec fused;
};

/// Reusable per-execute buffers for `CrosswalkPlan::Execute`: the
/// effective-weight and denominator vectors, the row kernel's scratch
/// and the panel kernel's arena. One workspace serves one execute at a
/// time; `CrosswalkPlan::ExecuteMany` keeps one per worker and reuses
/// it across objective columns so steady-state executes never grow a
/// buffer.
///
/// alloc_events() counts buffer growth (including the row scratch's
/// and the panel arena's) across the workspace's lifetime;
/// `CrosswalkPlan::Execute` reports the per-execute delta as
/// `execute.hot_path_allocs` and counts zero-growth
/// externally-supplied workspaces as `execute.workspace_reuse`
/// (docs/observability.md). A workspace
/// passed through Prepare() once reports zero growth for every later
/// execute of that plan.
class ExecuteWorkspace {
 public:
  ExecuteWorkspace() = default;
  ExecuteWorkspace(const ExecuteWorkspace&) = delete;
  ExecuteWorkspace& operator=(const ExecuteWorkspace&) = delete;
  ExecuteWorkspace(ExecuteWorkspace&&) = default;
  ExecuteWorkspace& operator=(ExecuteWorkspace&&) = default;

  /// Per-panel serving scratch for CrosswalkPlan::ExecutePanelWith:
  /// the lane-major effective-weight staging plus the per-lane pointer
  /// arrays handed to sparse::FusedAggregatesPanel. Sized by
  /// PreparePanel; reused across panels so the steady-state panel lane
  /// grows nothing.
  struct PanelScratch {
    std::vector<double> lane_weights;  ///< references × width, lane-major
    std::vector<common::ColumnView> row_scales;
    std::vector<common::ColumnView> operand_aggregates;
    std::vector<linalg::Vector*> targets;
    std::vector<std::vector<size_t>*> zero_lists;
    std::vector<size_t> lanes;  ///< panel-local → caller column index
  };

  /// Eagerly grows the single-column buffers (effective weights,
  /// denominators, row scratch) to cover `spec`. Monotonic; call once
  /// per plan to make later executes growth-free. The second parameter
  /// is unused; it stays only because perfbench/ still passes it, and
  /// goes with the next revision of perfbench.
  void Prepare(const ExecuteWorkspaceSpec& spec, size_t /*unused*/ = 1);

  /// Eagerly grows the panel-lane buffers (this scratch plus the panel
  /// arena) for panels of up to `width` columns.
  /// Monotonic like Prepare; serving loops call it once at the plan's
  /// panel width so later panel executes are growth-free.
  void PreparePanel(const ExecuteWorkspaceSpec& spec, size_t width);

  /// The panel serving scratch (sized by PreparePanel).
  PanelScratch& panel() { return panel_; }

  /// The effective-weight buffer, reset to `n` zeros (grows only if
  /// capacity is short).
  linalg::Vector& EffectiveWeights(size_t n);

  /// The Eq. 14 denominator buffer, reset to `n` zeros.
  linalg::Vector& Denominators(size_t n);

  /// The row kernel's scratch (sparse::DisaggregateRows).
  sparse::RowScratch& rows() { return rows_; }

  /// The panel kernel's buffer arena.
  sparse::FusedWorkspace& fused() { return fused_; }

  /// Cumulative buffer growth events, row scratch and panel arena
  /// included.
  uint64_t alloc_events() const {
    return alloc_events_ + rows_.alloc_events() + fused_.alloc_events();
  }

 private:
  linalg::Vector& Reset(linalg::Vector& v, size_t n);

  linalg::Vector effective_weights_;
  linalg::Vector denominators_;
  sparse::RowScratch rows_;
  sparse::FusedWorkspace fused_;
  PanelScratch panel_;
  uint64_t alloc_events_ = 0;
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_EXECUTE_WORKSPACE_H_
