#ifndef GEOALIGN_SPARSE_CSR_MATRIX_H_
#define GEOALIGN_SPARSE_CSR_MATRIX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace geoalign::sparse {

/// Borrowed CSR arrays, as handed over by an embedding host (Arrow
/// buffers, numpy arrays, the C ABI). Plain views — no lifetime.
struct CsrView {
  size_t rows = 0;
  size_t cols = 0;
  common::ConstSpan<size_t> row_ptr;
  common::ConstSpan<size_t> col_idx;
  common::ConstSpan<double> values;
};

/// Compressed-sparse-row matrix of doubles.
///
/// Disaggregation matrices are |U^s| x |U^t| and extremely sparse (a
/// zip code intersects a handful of counties), so the paper stores
/// them sparse (§4.3); this is the equivalent of the SciPy CSR matrix
/// used there. Column indices within each row are kept sorted and
/// unique.
///
/// Storage is either **owned** (the default: three vectors) or
/// **borrowed** (`FromBorrowed`: three caller spans plus an optional
/// keepalive). Read access always goes through the span accessors, so
/// every kernel is oblivious to which mode a matrix is in; mutation
/// first materializes an owned copy (`EnsureOwned`), so borrowed
/// caller memory is never written through.
class CsrMatrix {
 public:
  /// Empty rows x cols matrix (no stored entries).
  CsrMatrix(size_t rows, size_t cols);
  CsrMatrix() : CsrMatrix(0, 0) {}

  /// Builds directly from CSR arrays. `row_ptr` must have rows+1
  /// monotone entries; column indices must be < cols and strictly
  /// increasing within each row.
  static Result<CsrMatrix> FromCsrArrays(size_t rows, size_t cols,
                                         std::vector<size_t> row_ptr,
                                         std::vector<size_t> col_idx,
                                         std::vector<double> values);

  /// Zero-copy construction over caller-owned CSR arrays (same
  /// validation as FromCsrArrays). The caller keeps the arrays alive
  /// for the matrix's lifetime, or passes a `keepalive` handle that
  /// does. Mutating members copy-on-write; plain reads never copy.
  static Result<CsrMatrix> FromBorrowed(
      const CsrView& view, std::shared_ptr<const void> keepalive = nullptr);

  /// Zero-copy borrowed-mode matrix over this matrix's arrays, without
  /// re-validation (this matrix is valid by construction). This matrix
  /// must outlive the result and stay unmodified while it is read.
  CsrMatrix Borrow() const;

  /// Densifies `m` (intended for tests and small examples).
  static CsrMatrix FromDense(const linalg::Matrix& m,
                             double prune_below = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values().size(); }

  /// True when this matrix views caller memory instead of owning it.
  bool borrowed() const { return borrowed_; }

  /// Value at (r, c); 0 for entries not stored. O(log nnz(row)).
  double At(size_t r, size_t c) const;

  /// Row r as (col, value) spans.
  struct RowView {
    const size_t* cols;
    const double* values;
    size_t size;
  };
  RowView Row(size_t r) const;

  /// Sum over each row / column.
  linalg::Vector RowSums() const;
  linalg::Vector ColSums() const;

  /// Sum of all stored values.
  double Total() const;

  /// this * x (x has cols() entries).
  linalg::Vector MatVec(common::ConstSpan<double> x) const;
  /// this^T * x (x has rows() entries).
  linalg::Vector MatTVec(common::ConstSpan<double> x) const;

  /// Multiplies every stored entry of row r by s[r].
  void ScaleRows(common::ConstSpan<double> s);
  /// Multiplies every stored entry by s.
  void Scale(double s);

  /// Transposed copy.
  CsrMatrix Transposed() const;

  /// Dense copy (tests / small problems only).
  linalg::Matrix ToDense() const;

  /// Removes stored entries with |value| <= threshold.
  void Prune(double threshold);

  /// True when shapes match and every (implicitly zero) entry differs
  /// by at most tol.
  bool AllClose(const CsrMatrix& other, double tol) const;

  common::ConstSpan<size_t> row_ptr() const {
    return borrowed_ ? view_row_ptr_ : common::ConstSpan<size_t>(row_ptr_);
  }
  common::ConstSpan<size_t> col_idx() const {
    return borrowed_ ? view_col_idx_ : common::ConstSpan<size_t>(col_idx_);
  }
  common::ConstSpan<double> values() const {
    return borrowed_ ? view_values_ : common::ConstSpan<double>(values_);
  }
  std::vector<double>& mutable_values() {
    EnsureOwned();
    return values_;
  }

 private:
  // Builders whose output is valid by construction write the arrays
  // directly, without FromCsrArrays' validation pass.
  friend class CooBuilder;
  friend Result<CsrMatrix> DisaggregateRows(
      const std::vector<const CsrMatrix*>& mats, const linalg::Vector& weights,
      const linalg::Vector* denominators, double zero_tol,
      common::ConstSpan<double> row_scale, std::vector<size_t>* zero_rows);

  /// FromBorrowed minus the validation.
  static CsrMatrix BorrowUnchecked(const CsrView& view,
                                   std::shared_ptr<const void> keepalive);

  /// Copies borrowed storage into the owned vectors (no-op when
  /// already owned). Every mutator calls this first.
  void EnsureOwned();

  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;
  std::vector<size_t> col_idx_;
  std::vector<double> values_;

  // Borrowed mode: views over caller memory, disjoint from the owned
  // vectors above (so the defaulted copy/move stay correct — copies
  // share the keepalive, never self-reference).
  bool borrowed_ = false;
  common::ConstSpan<size_t> view_row_ptr_;
  common::ConstSpan<size_t> view_col_idx_;
  common::ConstSpan<double> view_values_;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_CSR_MATRIX_H_
