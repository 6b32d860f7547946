#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/float_eq.h"

namespace geoalign::linalg {

namespace {

// Rows per block of the column kernels: one block of every column
// stays in L1 while the register tiles sweep it.
constexpr size_t kRowBlock = 128;

// Adds rows [begin, end) of the products left[i][r] · right[j][r] into
// the I x J running sums at sums[i * stride + j]. Each sum stays in a
// register for the whole block and takes its rows in order, so every
// entry is the same row-order sum the row-major kernels accumulate.
template <size_t I, size_t J>
void AddProductTile(const VectorView* left, const VectorView* right,
                    size_t begin, size_t end, double* sums, size_t stride) {
  const double* l[I];
  const double* rt[J];
  double s[I][J];
#pragma GCC unroll 8
  for (size_t i = 0; i < I; ++i) {
    l[i] = left[i].data();
#pragma GCC unroll 4
    for (size_t j = 0; j < J; ++j) s[i][j] = sums[i * stride + j];
  }
#pragma GCC unroll 4
  for (size_t j = 0; j < J; ++j) rt[j] = right[j].data();
  for (size_t r = begin; r < end; ++r) {
#pragma GCC unroll 8
    for (size_t i = 0; i < I; ++i) {
      const double x = l[i][r];
#pragma GCC unroll 4
      for (size_t j = 0; j < J; ++j) s[i][j] += x * rt[j][r];
    }
  }
#pragma GCC unroll 8
  for (size_t i = 0; i < I; ++i) {
#pragma GCC unroll 4
    for (size_t j = 0; j < J; ++j) sums[i * stride + j] = s[i][j];
  }
}

// The Gram tiles: up to 2 left by up to 4 right columns.
void AddGramTile(size_t ni, size_t nj, const VectorView* left,
                 const VectorView* right, size_t begin, size_t end,
                 double* sums, size_t stride) {
  switch (ni * 4 + nj) {
    case 5: return AddProductTile<1, 1>(left, right, begin, end, sums, stride);
    case 6: return AddProductTile<1, 2>(left, right, begin, end, sums, stride);
    case 7: return AddProductTile<1, 3>(left, right, begin, end, sums, stride);
    case 8: return AddProductTile<1, 4>(left, right, begin, end, sums, stride);
    case 9: return AddProductTile<2, 1>(left, right, begin, end, sums, stride);
    case 10: return AddProductTile<2, 2>(left, right, begin, end, sums, stride);
    case 11: return AddProductTile<2, 3>(left, right, begin, end, sums, stride);
    default: return AddProductTile<2, 4>(left, right, begin, end, sums, stride);
  }
}

// The Aᵀb tiles: up to 8 columns against b.
void AddTVecTile(size_t ni, const VectorView* cols, const VectorView* b,
                 size_t begin, size_t end, double* sums) {
  switch (ni) {
    case 1: return AddProductTile<1, 1>(cols, b, begin, end, sums, 1);
    case 2: return AddProductTile<2, 1>(cols, b, begin, end, sums, 1);
    case 3: return AddProductTile<3, 1>(cols, b, begin, end, sums, 1);
    case 4: return AddProductTile<4, 1>(cols, b, begin, end, sums, 1);
    case 5: return AddProductTile<5, 1>(cols, b, begin, end, sums, 1);
    case 6: return AddProductTile<6, 1>(cols, b, begin, end, sums, 1);
    case 7: return AddProductTile<7, 1>(cols, b, begin, end, sums, 1);
    default: return AddProductTile<8, 1>(cols, b, begin, end, sums, 1);
  }
}

void CheckColumnLengths(common::ConstSpan<VectorView> cols, size_t rows) {
  for (VectorView col : cols) {
    GEOALIGN_CHECK(col.size() == rows) << "column kernels: ragged cols";
  }
}

}  // namespace

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    GEOALIGN_CHECK(rows[r].size() == m.cols_) << "FromRows: ragged rows";
    for (size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::FromColumns(const std::vector<Vector>& cols) {
  if (cols.empty()) return Matrix();
  Matrix m(cols[0].size(), cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    GEOALIGN_CHECK(cols[c].size() == m.rows_) << "FromColumns: ragged cols";
    for (size_t r = 0; r < m.rows_; ++r) m(r, c) = cols[c][r];
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::Row(size_t r) const {
  GEOALIGN_CHECK(r < rows_);
  Vector out(cols_);
  for (size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
  return out;
}

Vector Matrix::Col(size_t c) const {
  GEOALIGN_CHECK(c < cols_);
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Vector Matrix::MatVec(const Vector& x) const {
  GEOALIGN_CHECK(x.size() == cols_) << "MatVec: size mismatch";
  Vector out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + r * cols_;
    for (size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    out[r] = acc;
  }
  return out;
}

Vector Matrix::MatTVec(const Vector& x) const {
  GEOALIGN_CHECK(x.size() == rows_) << "MatTVec: size mismatch";
  Vector out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    for (size_t c = 0; c < cols_; ++c) out[c] += row[c] * x[r];
  }
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  GEOALIGN_CHECK(cols_ == other.rows_) << "MatMul: size mismatch";
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(r, k);
      if (ExactlyZero(a)) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::Gram() const {
  Matrix out(cols_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    for (size_t i = 0; i < cols_; ++i) {
      for (size_t j = i; j < cols_; ++j) {
        out(i, j) += row[i] * row[j];
      }
    }
  }
  for (size_t i = 0; i < cols_; ++i) {
    for (size_t j = 0; j < i; ++j) out(i, j) = out(j, i);
  }
  return out;
}

Matrix GramOfColumns(common::ConstSpan<VectorView> cols) {
  const size_t n = cols.size();
  Matrix out(n, n);
  if (n == 0) return out;
  const size_t rows = cols[0].size();
  CheckColumnLengths(cols, rows);
  // Tiles cover the upper triangle (and the one entry under each
  // diagonal tile, which the mirror below overwrites).
  for (size_t begin = 0; begin < rows; begin += kRowBlock) {
    const size_t end = std::min(rows, begin + kRowBlock);
    for (size_t i = 0; i < n; i += 2) {
      for (size_t j = i; j < n; j += 4) {
        AddGramTile(std::min<size_t>(2, n - i), std::min<size_t>(4, n - j),
                    &cols[i], &cols[j], begin, end, &out(i, j), n);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) out(i, j) = out(j, i);
  }
  return out;
}

Vector ColumnsTVec(common::ConstSpan<VectorView> cols, VectorView b) {
  const size_t n = cols.size();
  Vector out(n, 0.0);
  CheckColumnLengths(cols, b.size());
  for (size_t begin = 0; begin < b.size(); begin += kRowBlock) {
    const size_t end = std::min(b.size(), begin + kRowBlock);
    for (size_t i = 0; i < n; i += 8) {
      AddTVecTile(std::min<size_t>(8, n - i), &cols[i], &b, begin, end,
                  &out[i]);
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

bool Matrix::AllClose(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

}  // namespace geoalign::linalg
