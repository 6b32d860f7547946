#ifndef GEOALIGN_SPARSE_FUSED_EXECUTE_H_
#define GEOALIGN_SPARSE_FUSED_EXECUTE_H_

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "sparse/csr_matrix.h"
#include "sparse/simd/isa.h"

namespace geoalign::sparse {

/// Reusable buffers for FusedAggregatesAligned and FusedAggregatesPanel:
/// the row scratch, the zero-row list, the active-operand staging
/// arrays, and the panel arenas. One workspace serves one execute at a
/// time; serving loops keep one per worker slot and reuse it across
/// columns so the steady-state kernel never touches the heap.
///
/// Prepare() grows buffers monotonically and counts every buffer that
/// actually grew in alloc_events() — the source of the
/// `execute.hot_path_allocs` counter (docs/observability.md). A
/// workspace prepared once for a plan's Spec reports zero further
/// events for every later execute of that plan.
class FusedWorkspace {
 public:
  /// Sizing for one shared CSR structure, computable once at plan
  /// compile time (the plan-compiled workspace spec).
  struct Spec {
    size_t rows = 0;
    size_t cols = 0;
    size_t max_row_nnz = 0;      ///< widest row of the shared structure
    size_t max_operands = 0;     ///< reference count upper bound
  };

  /// Derives the Spec of a shared structure (row/col counts, widest
  /// row) for `num_operands` aligned matrices.
  static Spec ComputeSpec(const CsrMatrix& structure, size_t num_operands);

  FusedWorkspace() = default;
  FusedWorkspace(const FusedWorkspace&) = delete;
  FusedWorkspace& operator=(const FusedWorkspace&) = delete;
  FusedWorkspace(FusedWorkspace&&) = default;
  FusedWorkspace& operator=(FusedWorkspace&&) = default;

  /// Ensures every single-column buffer covers `spec`. Monotonic:
  /// buffers never shrink.
  void Prepare(const Spec& spec);

  /// Ensures the column-panel buffers cover `spec` at panel width
  /// `width` (clamped to [1, simd::kMaxPanelWidth]). Monotonic like
  /// Prepare; the panel arenas are sized cols × width and
  /// max_row_nnz × width doubles, so serving loops prepare once at the
  /// plan's panel width and every later panel execute is growth-free.
  void PreparePanel(const Spec& spec, size_t width);

  /// Cumulative count of buffer growth events across every Prepare.
  uint64_t alloc_events() const { return alloc_events_; }

 private:
  friend Status FusedAggregatesAligned(
      const struct FusedAggregatesInputs& in, const Spec& spec,
      linalg::Vector* target_estimates, std::vector<size_t>* zero_rows,
      FusedWorkspace* workspace);
  friend Status FusedAggregatesPanel(const struct FusedPanelInputs& in,
                                     const Spec& spec, simd::Isa isa,
                                     linalg::Vector* const* target_estimates,
                                     std::vector<size_t>* const* zero_rows,
                                     FusedWorkspace* workspace);

  /// One row whose denominator fell below tolerance in at least one
  /// panel lane; bit p of `lanes` marks the affected lanes.
  struct PanelZeroRow {
    size_t row = 0;
    uint64_t lanes = 0;
  };

  std::vector<double> row_scratch_;  ///< max_row_nnz numerators
  std::vector<size_t> zero_rows_;    ///< reserved to spec.rows

  // Active-operand staging (value arrays + weights of the operands the
  // materializing kernel would keep).
  std::vector<const double*> active_values_;
  std::vector<double> active_weights_;

  // --- Column-panel arenas (PreparePanel; lane-major layout: the
  // doubles of one logical cell's `width` lanes are contiguous).
  size_t panel_width_ = 0;                 ///< prepared lane capacity
  std::vector<double> panel_scratch_;      ///< max_row_nnz × width
  std::vector<double> panel_accum_;        ///< cols × width targets
  std::vector<double> panel_weights_;      ///< active ops × width
  std::vector<double> panel_row_;          ///< denom/inv/rscale, 3 × width
  std::vector<PanelZeroRow> panel_zero_;   ///< reserved to spec.rows
  std::vector<const double*> active_aggs_; ///< kFromAggregates operands

  uint64_t alloc_events_ = 0;
};

/// Inputs of the fused Eq. 14 + Eq. 17 pass. All pointers are borrowed
/// and must outlive the call; `mats` must be non-empty matrices
/// sharing one CSR structure (the PreparedReferenceSet "aligned"
/// case).
struct FusedAggregatesInputs {
  /// Aligned operand matrices (the raw reference DMs).
  const std::vector<const CsrMatrix*>* mats = nullptr;
  /// Effective per-operand weights β_k / normalizer_k (exact zeros are
  /// skipped, as in WeightedSumAligned).
  const linalg::Vector* weights = nullptr;
  /// Per-row Eq. 14 denominators (DenominatorMode::kFromAggregates);
  /// null means "row sums of the weighted numerator"
  /// (DenominatorMode::kFromDmRowSums).
  const linalg::Vector* denominators = nullptr;
  /// Rows with |denominator| <= zero_tolerance are zero rows.
  double zero_tolerance = 0.0;
  /// Per-row scale a^s_o (the objective column), as a borrowed view —
  /// caller memory flows straight into the kernel. Required (a
  /// default-constructed view is rejected).
  common::ColumnView row_scale;
  /// Optional zero-row fallback DM (same shape as the operands) and
  /// its precomputed row sums; both set or both null. Zero rows with
  /// positive fallback support scatter row_scale[r]/fallback_sums[r]
  /// times the fallback row instead of vanishing.
  const CsrMatrix* fallback_dm = nullptr;
  const linalg::Vector* fallback_row_sums = nullptr;
};

/// One fused pass over the shared structure on the calling thread:
/// accumulates the β-weighted numerator per entry (Eq. 14 numerator),
/// applies the per-row denominator and the objective row scale, and
/// scatters straight into `target_estimates` in ascending row order
/// (Eq. 17) — without ever materializing the estimated DM.
///
/// Bit-identity contract: `target_estimates` and `zero_rows` carry
/// exactly the bits of the materializing pipeline
///   WeightedSumAligned → RowSums/denominators → DivideRowsOrZero →
///   ScaleRows → [zero-row fallback rebuild] → CsrMatrix::ColSums
/// because every per-entry/per-row operation replays the materializing
/// kernels' arithmetic, and each target adds its terms in the same
/// ascending row order as ColSums' storage-order walk. (Entries those
/// kernels prune are exact ±0.0 here; adding them to a target that
/// accumulates from +0.0 can never flip a bit, so skipping the
/// materialization is bit-neutral.)
///
/// `spec` is the plan-compiled sizing (FusedWorkspace::ComputeSpec of
/// the shared structure); `workspace` must be non-null and is prepared
/// (grown only if needed) internally.
Status FusedAggregatesAligned(const FusedAggregatesInputs& in,
                              const FusedWorkspace::Spec& spec,
                              linalg::Vector* target_estimates,
                              std::vector<size_t>* zero_rows,
                              FusedWorkspace* workspace);

/// Inputs of the column-panel fused pass: `width` objective columns
/// (1..simd::kMaxPanelWidth) executed against one shared CSR traversal.
/// All pointers are borrowed and must outlive the call.
struct FusedPanelInputs {
  /// Aligned operand matrices (the raw reference DMs).
  const std::vector<const CsrMatrix*>* mats = nullptr;
  /// Lane-major effective weights: lane_weights[mi * width + p] is
  /// operand mi's β_p / normalizer for panel lane p. Operands whose
  /// weight is exactly zero in EVERY lane are skipped (the
  /// WeightedSumAligned filter); a lane-local exact zero contributes
  /// ±0.0 to that lane's +0.0-seeded accumulator, which is bit-neutral.
  const double* lane_weights = nullptr;
  /// Panel width (lane count), 1..simd::kMaxPanelWidth.
  size_t width = 0;
  /// Per-lane objective columns a^s_o (each length rows), as borrowed
  /// views.
  const common::ColumnView* row_scales = nullptr;
  /// DenominatorMode::kFromAggregates: per-operand source-aggregate
  /// vectors (each length rows, indexed like *mats); the kernel then
  /// derives each lane's denominator per row by the same
  /// operand-ascending accumulation from 0.0 as the hoisted
  /// linalg::Axpy loop. Null selects kFromDmRowSums (denominators from
  /// the weighted numerator's row sums, in-pass).
  const common::ColumnView* operand_aggregates = nullptr;
  /// Rows with |denominator| <= zero_tolerance are zero rows (per lane).
  double zero_tolerance = 0.0;
  /// Optional zero-row fallback DM + row sums, as in
  /// FusedAggregatesInputs; applied per lane.
  const CsrMatrix* fallback_dm = nullptr;
  const linalg::Vector* fallback_row_sums = nullptr;
};

/// The cache-blocked multi-column form of FusedAggregatesAligned: one
/// traversal of the shared structure serves `in.width` objective
/// columns, with the per-entry accumulate/scatter vectorized across
/// panel lanes by the `isa` kernel table (sparse/simd/). Runs inline
/// on the calling thread — serving loops parallelize across panels,
/// not within one.
///
/// Bit-identity contract: lane p's `target_estimates[p]` /
/// `zero_rows[p]` carry exactly the bits of a single-column
/// FusedAggregatesAligned call (and therefore of the materializing
/// pipeline) for column p, at every panel width and ISA. Structurally
/// guaranteed: each lane performs the scalar sequence of its own
/// column (lane-wise kernels, fixed in-lane order, no FMA) and
/// scatters into its targets in the same ascending row order.
/// Verified differentially by tests/simd_kernel_test.cc.
///
/// `target_estimates` and `zero_rows` are arrays of `in.width`
/// non-null pointers.
Status FusedAggregatesPanel(const FusedPanelInputs& in,
                            const FusedWorkspace::Spec& spec, simd::Isa isa,
                            linalg::Vector* const* target_estimates,
                            std::vector<size_t>* const* zero_rows,
                            FusedWorkspace* workspace);

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_FUSED_EXECUTE_H_
