#ifndef GEOALIGN_SPARSE_SPARSE_OPS_H_
#define GEOALIGN_SPARSE_SPARSE_OPS_H_

#include <vector>

#include "common/span.h"
#include "sparse/csr_matrix.h"

namespace geoalign::sparse {

/// alpha * a + beta * b elementwise (shapes must match).
Result<CsrMatrix> Add(const CsrMatrix& a, const CsrMatrix& b,
                      double alpha = 1.0, double beta = 1.0);

/// Weighted sum  sum_k weights[k] * mats[k]  of same-shaped matrices.
/// This is the "Σ β_k DM_rk" inner step of paper Eq. 14 (the plan's
/// general lane runs it inside DisaggregateRows; the uncompiled oracle
/// calls it); implemented as one row-merge pass over all operands
/// rather than repeated pairwise adds. Every entry accumulates its
/// operands in ascending order from 0.0, and exact-zero sums are
/// dropped.
Result<CsrMatrix> WeightedSum(const std::vector<const CsrMatrix*>& mats,
                              const linalg::Vector& weights);

/// WeightedSum for matrices that share one sparsity structure
/// (identical row_ptr/col_idx arrays — the PreparedReferenceSet
/// "aligned" case, e.g. every reference DM derived from the same
/// overlay). Skips the scatter-gather accumulator and walks the shared
/// structure directly. Structure equality is a precondition verified
/// by the caller (checked here only in debug builds); shapes and
/// weight count are still validated. Bit-identical to WeightedSum on
/// any aligned input.
Result<CsrMatrix> WeightedSumAligned(const std::vector<const CsrMatrix*>& mats,
                                     const linalg::Vector& weights);

/// Divides every entry of row r by denom[r]. Rows whose denominator is
/// (absolutely) below `zero_tol` are set entirely to zero and appended
/// to `zero_rows` in ascending order when non-null — the paper's
/// "otherwise 0" branch of Eq. 14.
void DivideRowsOrZero(CsrMatrix& m, const linalg::Vector& denom,
                      double zero_tol, std::vector<size_t>* zero_rows);

/// Eq. 14 for operands of any sparsity structure, in one pass per row
/// on the calling thread: diag(row_scale) · diag(1/d) · Σ_k weights[k]
/// · mats[k], where d is `*denominators`, or, when `denominators` is
/// null (DenominatorMode::kFromDmRowSums), each row's sum of the
/// weighted merge. Rows with |d| <= zero_tol are left empty and
/// appended to `zero_rows` (when non-null) in ascending order.
///
/// Bit-identical, in every CSR array and in `zero_rows`, to the four
/// steps WeightedSum → [RowSums] → DivideRowsOrZero →
/// ScaleRows(row_scale): each entry adds its operands in ascending
/// order from +0.0 (exact-zero weights skipped), the merged columns
/// come out ascending, exact-zero sums are dropped, a row's sum adds
/// the kept entries in column order, and a quotient v · (1/d) is kept
/// only where Prune(0.0) keeps it (|q| > 0, so ±0.0 and NaN go) before
/// row_scale[r] multiplies it. The final arrays are written once.
Result<CsrMatrix> DisaggregateRows(const std::vector<const CsrMatrix*>& mats,
                                   const linalg::Vector& weights,
                                   const linalg::Vector* denominators,
                                   double zero_tol,
                                   common::ConstSpan<double> row_scale,
                                   std::vector<size_t>* zero_rows);

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_SPARSE_OPS_H_
