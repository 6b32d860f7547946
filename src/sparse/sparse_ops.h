#ifndef GEOALIGN_SPARSE_SPARSE_OPS_H_
#define GEOALIGN_SPARSE_SPARSE_OPS_H_

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "sparse/csr_matrix.h"

namespace geoalign::sparse {

/// alpha * a + beta * b elementwise (shapes must match).
Result<CsrMatrix> Add(const CsrMatrix& a, const CsrMatrix& b,
                      double alpha = 1.0, double beta = 1.0);

/// Weighted sum  sum_k weights[k] * mats[k]  of same-shaped matrices.
/// This is the "Σ β_k DM_rk" inner step of paper Eq. 14 (the plan
/// runs it inside DisaggregateRows; the uncompiled oracle calls it);
/// implemented as one row-merge pass over all operands
/// rather than repeated pairwise adds. Every entry accumulates its
/// operands in ascending order from 0.0, and exact-zero sums are
/// dropped.
Result<CsrMatrix> WeightedSum(const std::vector<const CsrMatrix*>& mats,
                              const linalg::Vector& weights);

/// Divides every entry of row r by denom[r]. Rows whose denominator is
/// (absolutely) below `zero_tol` are set entirely to zero and appended
/// to `zero_rows` in ascending order when non-null — the paper's
/// "otherwise 0" branch of Eq. 14.
void DivideRowsOrZero(CsrMatrix& m, const linalg::Vector& denom,
                      double zero_tol, std::vector<size_t>* zero_rows);

/// A zero-row fallback DM and its row sums, as the row kernels take
/// them: both null (zero rows stay empty) or both set.
struct FallbackRows {
  const CsrMatrix* dm = nullptr;
  const linalg::Vector* row_sums = nullptr;

  /// The zero-row fallback rule of every output and kernel: zero row r
  /// emits emit(c, v · row_scale / (*row_sums)[r]) for each entry
  /// (c, v) of its `dm` row when that sum is positive, else nothing.
  template <typename Fn>
  void EmitRow(size_t r, double row_scale, Fn&& emit) const {
    if (dm == nullptr || !((*row_sums)[r] > 0.0)) return;
    const double scale = row_scale / (*row_sums)[r];
    const CsrMatrix::RowView row = dm->Row(r);
    for (size_t k = 0; k < row.size; ++k) {
      emit(row.cols[k], row.values[k] * scale);
    }
  }

  /// OK when both are null, or `dm` is `rows` x `cols` with `rows` row
  /// sums; otherwise InvalidArgument, its message prefixed by `caller`.
  Status Check(const char* caller, size_t rows, size_t cols) const;
};

/// Reusable buffers of DisaggregateRows: the active operands, the
/// merge cursors, one merged row (at most `cols` entries, since a
/// row's merged columns are unique) and the aggregates output's
/// zero-row list (at most `rows` entries). core::ExecuteWorkspace
/// prepares one from the plan-compiled spec, so the aggregates output
/// runs without touching the heap.
class RowScratch {
 public:
  /// Grows the buffers to serve up to `num_operands` operands of
  /// `rows` x `cols` matrices. Monotonic; each buffer that grew counts
  /// one alloc_events() event.
  void Prepare(size_t num_operands, size_t rows, size_t cols);

  /// Cumulative count of buffer growth events across every Prepare.
  uint64_t alloc_events() const { return alloc_events_; }

 private:
  friend Result<CsrMatrix> DisaggregateRows(
      const std::vector<const CsrMatrix*>& mats, const linalg::Vector& weights,
      const linalg::Vector* denominators, double zero_tol,
      common::ConstSpan<double> row_scale, const FallbackRows& fallback,
      std::vector<size_t>* zero_rows);
  friend Status DisaggregateRows(const std::vector<const CsrMatrix*>& mats,
                                 const linalg::Vector& weights,
                                 const linalg::Vector* denominators,
                                 double zero_tol,
                                 common::ConstSpan<double> row_scale,
                                 const FallbackRows& fallback,
                                 linalg::Vector* target_estimates,
                                 std::vector<size_t>* zero_rows,
                                 RowScratch* scratch);

  /// The one Eq. 14 row loop behind both outputs (sparse_ops.cc):
  /// merge, denominator, zero-row rule, fallback rule and keep rule.
  /// It calls `keep(c, v)` for each kept (or fallback) entry of a row
  /// in column order, then `finish_row(r, zero)`, where `zero` marks a
  /// zero row.
  template <typename Keep, typename FinishRow>
  void RowPass(const std::vector<const CsrMatrix*>& mats,
               const linalg::Vector& weights,
               const linalg::Vector* denominators, double zero_tol,
               common::ConstSpan<double> row_scale,
               const FallbackRows& fallback, Keep keep, FinishRow finish_row);

  /// One operand with a nonzero weight, as the row loop reads it.
  struct Operand {
    const size_t* row_ptr;
    const size_t* cols;
    const double* values;
    double weight;
  };

  std::vector<Operand> ops_;
  std::vector<size_t> cursor_;
  std::vector<size_t> stop_;
  std::vector<size_t> row_cols_;
  std::vector<double> row_values_;
  std::vector<size_t> zero_list_;
  uint64_t alloc_events_ = 0;
};

/// Eq. 14 for operands of any sparsity structure, in one pass per row
/// on the calling thread: diag(row_scale) · diag(1/d) · Σ_k weights[k]
/// · mats[k], where d is `*denominators`, or, when `denominators` is
/// null (DenominatorMode::kFromDmRowSums), each row's sum of the
/// weighted merge. Rows with |d| <= zero_tol are appended to
/// `zero_rows` (when non-null) in ascending order and filled by
/// fallback.EmitRow.
///
/// Bit-identical, in every CSR array and in `zero_rows`, to the four
/// steps WeightedSum → [RowSums] → DivideRowsOrZero →
/// ScaleRows(row_scale): each entry adds its operands in ascending
/// order from +0.0 (exact-zero weights skipped), the merged columns
/// come out ascending, exact-zero sums are dropped, a row's sum adds
/// the kept entries in column order, and a quotient v · (1/d) is kept
/// only where Prune(0.0) keeps it (|q| > 0, so ±0.0 and NaN go) before
/// row_scale[r] multiplies it. The final arrays are written once.
/// Operands that share one structure (PreparedReferenceSet::aligned())
/// take the same merge; every entry then adds every active operand.
/// When a fallback DM is given and a zero row occurred, one in-place
/// pass then drops every exact-zero entry (NaN stays), as the oracle's
/// CooBuilder rebuild of the fallback rows does.
Result<CsrMatrix> DisaggregateRows(const std::vector<const CsrMatrix*>& mats,
                                   const linalg::Vector& weights,
                                   const linalg::Vector* denominators,
                                   double zero_tol,
                                   common::ConstSpan<double> row_scale,
                                   const FallbackRows& fallback,
                                   std::vector<size_t>* zero_rows);

/// The aggregates output of the same row pass (Eq. 14 + Eq. 17
/// without DM̂_o): each entry the pass keeps or takes from the
/// fallback DM is added into `target_estimates[c]` in ascending row
/// order. `zero_rows` receives the zero rows in ascending order.
///
/// Bit-identical to ColSums of the matrix output: every target adds
/// the same terms in the same ascending row order from +0.0, and the
/// exact zeros that output drops change no bit of such a sum.
/// `scratch` is prepared here if it is short, so a scratch prepared
/// for the plan makes the pass allocation-free.
Status DisaggregateRows(const std::vector<const CsrMatrix*>& mats,
                        const linalg::Vector& weights,
                        const linalg::Vector* denominators, double zero_tol,
                        common::ConstSpan<double> row_scale,
                        const FallbackRows& fallback,
                        linalg::Vector* target_estimates,
                        std::vector<size_t>* zero_rows, RowScratch* scratch);

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_SPARSE_OPS_H_
