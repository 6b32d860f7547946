#ifndef GEOALIGN_SPARSE_CSR_MATRIX_H_
#define GEOALIGN_SPARSE_CSR_MATRIX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "sparse/content_hash.h"

namespace geoalign::sparse {

struct FallbackRows;  // sparse_ops.h

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
/// One storage mode: three read-only spans plus one owner handle that
/// keeps the viewed arrays alive. The handle is the immutable block of
/// arrays a builder filled (FromCsrArrays, CooBuilder::Build,
/// DisaggregateRows, FromDense, Transposed), the keepalive a
/// FromBorrowed caller passed, or null (a FromBorrowed matrix without
/// keepalive, or an empty one). Every kernel reads through the spans,
/// so none knows where the arrays came from.
///
/// A copy shares the handle, so copying a matrix (and so a
/// core::ReferenceAttribute or core::CrosswalkInput) allocates no
/// array. A writer (mutable_values, ScaleRows, Prune) writes in place
/// only when this matrix is the only holder of a block it built;
/// otherwise it first copies the arrays into a new block of its own.
/// So a write never shows through another copy, and borrowed caller
/// memory is never written. A moved-from matrix is empty (0 x 0).
///
/// A block this class built also memoizes its content digest
/// (Digest): the first call stores it in the block, and every copy
/// sharing the block reads it from then on, so plan fingerprints and
/// core::PlanCache keys hash a built DM's arrays once. The write step
/// drops the memo: in place it clears it, and a copied block starts
/// without one. Borrowed arrays (FromBorrowed, with or without a
/// keepalive) never keep a digest, since their owner may rewrite them;
/// they are hashed on every call.
///
/// Spans from the accessors stay valid while this matrix, or any copy
/// sharing its handle, is alive and unwritten. The span mutable_values
/// returns is valid until this matrix is next copied, moved, written
/// or digested: a write through a kept span after a copy would show
/// through that copy, and one after a Digest call would leave the
/// stored digest stale, so a PlanCache would serve a plan compiled
/// from other bytes. Call mutable_values again for each write.
class CsrMatrix {
 public:
  /// Empty rows x cols matrix (no stored entries).
  CsrMatrix(size_t rows, size_t cols);
  /// Empty 0 x 0 matrix; allocates nothing.
  CsrMatrix() = default;

  CsrMatrix(const CsrMatrix&) = default;
  CsrMatrix& operator=(const CsrMatrix&) = default;
  CsrMatrix(CsrMatrix&& other) noexcept;
  CsrMatrix& operator=(CsrMatrix&& other) noexcept;
  ~CsrMatrix() = default;

  /// Builds directly from CSR arrays. `row_ptr` must have rows+1
  /// monotone entries; column indices must be < cols and strictly
  /// increasing within each row.
  static Result<CsrMatrix> FromCsrArrays(size_t rows, size_t cols,
                                         std::vector<size_t> row_ptr,
                                         std::vector<size_t> col_idx,
                                         std::vector<double> values);

  /// Zero-copy construction over caller-owned CSR arrays (same
  /// validation as FromCsrArrays). The caller keeps the arrays alive
  /// and unchanged for the lifetime of the matrix and of every copy,
  /// or passes a `keepalive` handle that does. A writer copies first;
  /// plain reads never copy.
  static Result<CsrMatrix> FromBorrowed(
      const CsrView& view, std::shared_ptr<const void> keepalive = nullptr);

  /// Densifies `m` (intended for tests and small examples).
  static CsrMatrix FromDense(const linalg::Matrix& m,
                             double prune_below = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

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

  /// Transposed copy.
  CsrMatrix Transposed() const;

  /// Dense copy (tests / small problems only).
  linalg::Matrix ToDense() const;

  /// Removes stored entries with |value| <= threshold, and NaN ones.
  void Prune(double threshold);

  /// True when shapes match and every (implicitly zero) entry differs
  /// by at most tol.
  bool AllClose(const CsrMatrix& other, double tol) const;

  common::ConstSpan<size_t> row_ptr() const { return row_ptr_; }
  common::ConstSpan<size_t> col_idx() const { return col_idx_; }
  common::ConstSpan<double> values() const { return values_; }
  /// The stored values, writable (the write step runs first, dropping
  /// any stored digest). Valid until this matrix is next copied, moved,
  /// written or digested.
  std::span<double> mutable_values();

  /// The ContentHash of rows, cols, row_ptr, col_idx and values: the
  /// one way a DM enters a plan fingerprint or a PlanCache key. On a
  /// block this class built, the first call stores the digest in the
  /// block and later calls (through any copy) read it; threads racing
  /// on the first call each compute the same value. A borrowed matrix
  /// is hashed on every call.
  ContentDigest Digest() const;

 private:
  // Builders whose output is valid by construction hand their arrays
  // to Adopt, without FromCsrArrays' validation pass.
  friend class CooBuilder;
  friend Result<CsrMatrix> DisaggregateRows(
      const std::vector<const CsrMatrix*>& mats, const linalg::Vector& weights,
      const linalg::Vector* denominators, double zero_tol,
      common::ConstSpan<double> row_scale, const FallbackRows& fallback,
      std::vector<size_t>* zero_rows);

  /// The arrays of one builder's output (csr_matrix.cc).
  struct Block;

  /// Moves freshly filled, valid arrays into a new block that the
  /// result holds: FromCsrArrays minus the validation.
  static CsrMatrix Adopt(size_t rows, size_t cols,
                         std::vector<size_t> row_ptr,
                         std::vector<size_t> col_idx,
                         std::vector<double> values);

  /// The write step every writer runs first: returns this matrix's
  /// block, after copying the arrays into a new one unless this matrix
  /// is the only holder of a block it built. Either way the returned
  /// block holds no digest.
  Block& WritableBlock();

  /// This matrix's block when it holds one this class built, else null
  /// (borrowed arrays, or an empty matrix).
  const Block* OwnBlock() const;

  // row_ptr of every 0-row matrix that holds no block.
  static constexpr size_t kNoRows[1] = {0};

  size_t rows_ = 0;
  size_t cols_ = 0;
  common::ConstSpan<size_t> row_ptr_{kNoRows, 1};
  common::ConstSpan<size_t> col_idx_;
  common::ConstSpan<double> values_;
  std::shared_ptr<const void> owner_;
};

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_CSR_MATRIX_H_
