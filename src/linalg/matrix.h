#ifndef GEOALIGN_LINALG_MATRIX_H_
#define GEOALIGN_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/span.h"
#include "linalg/vector_ops.h"

namespace geoalign::linalg {

/// Dense row-major matrix of doubles.
///
/// Sized for the small systems GeoAlign solves (the weight-learning
/// design matrix has one column per reference attribute, i.e. usually
/// fewer than a dozen columns), but fully general.
class Matrix {
 public:
  Matrix() = default;
  /// rows x cols, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds from row-major nested initializer data; all rows must have
  /// equal length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Builds a matrix whose columns are the given vectors (the layout
  /// used for the weight-learning design matrix A in paper Eq. 15).
  static Matrix FromColumns(const std::vector<Vector>& cols);

  /// n x n identity.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Copies out row r / column c.
  Vector Row(size_t r) const;
  Vector Col(size_t c) const;

  /// this * x.
  Vector MatVec(const Vector& x) const;
  /// this^T * x.
  Vector MatTVec(const Vector& x) const;
  /// this * other.
  Matrix MatMul(const Matrix& other) const;
  /// this^T * this (Gram matrix), symmetric.
  Matrix Gram() const;
  /// Transposed copy.
  Matrix Transposed() const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// True when every entry differs by at most tol.
  bool AllClose(const Matrix& other, double tol) const;

  /// Raw row-major storage (rows() * cols() entries).
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Aᵀ A for A = Matrix::FromColumns(cols) without forming A: entry
/// (i, j) is the row-order sum from +0.0 of cols[i][r] · cols[j][r],
/// so the result carries exactly the bits of `A.Gram()`. Every column
/// must have the same length. Rows run in blocks that stay in cache
/// while each pass carries a 2 x 4 tile of entries in registers.
Matrix GramOfColumns(common::ConstSpan<VectorView> cols);

/// Aᵀ b for the same A: entry c is the row-order sum from +0.0 of
/// cols[c][r] · b[r], exactly the bits of `A.MatTVec(b)`. Each pass
/// over a row block carries up to 8 entries in registers.
Vector ColumnsTVec(common::ConstSpan<VectorView> cols, VectorView b);

}  // namespace geoalign::linalg

#endif  // GEOALIGN_LINALG_MATRIX_H_
