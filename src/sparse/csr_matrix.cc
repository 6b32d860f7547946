#include "sparse/csr_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/float_eq.h"

namespace geoalign::sparse {

namespace {

/// Shared structural validation for both construction paths.
Status ValidateCsr(size_t rows, size_t cols,
                   common::ConstSpan<size_t> row_ptr,
                   common::ConstSpan<size_t> col_idx,
                   common::ConstSpan<double> values) {
  if (row_ptr.size() != rows + 1) {
    return Status::InvalidArgument("CSR: row_ptr must have rows+1 entries");
  }
  if (row_ptr.front() != 0 || row_ptr.back() != col_idx.size() ||
      col_idx.size() != values.size()) {
    return Status::InvalidArgument("CSR: inconsistent array lengths");
  }
  for (size_t r = 0; r < rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      return Status::InvalidArgument("CSR: row_ptr not monotone");
    }
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] >= cols) {
        return Status::InvalidArgument("CSR: column index out of range");
      }
      if (k > row_ptr[r] && col_idx[k] <= col_idx[k - 1]) {
        return Status::InvalidArgument(
            "CSR: column indices must be strictly increasing per row");
      }
    }
  }
  return Status::OK();
}

}  // namespace

CsrMatrix::CsrMatrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

Result<CsrMatrix> CsrMatrix::FromCsrArrays(size_t rows, size_t cols,
                                           std::vector<size_t> row_ptr,
                                           std::vector<size_t> col_idx,
                                           std::vector<double> values) {
  GEOALIGN_RETURN_IF_ERROR(
      ValidateCsr(rows, cols, row_ptr, col_idx, values));
  CsrMatrix m(rows, cols);
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

Result<CsrMatrix> CsrMatrix::FromBorrowed(
    const CsrView& view, std::shared_ptr<const void> keepalive) {
  GEOALIGN_RETURN_IF_ERROR(ValidateCsr(view.rows, view.cols, view.row_ptr,
                                       view.col_idx, view.values));
  return BorrowUnchecked(view, std::move(keepalive));
}

CsrMatrix CsrMatrix::Borrow() const {
  return BorrowUnchecked({rows_, cols_, row_ptr(), col_idx(), values()},
                         keepalive_);
}

CsrMatrix CsrMatrix::BorrowUnchecked(const CsrView& view,
                                     std::shared_ptr<const void> keepalive) {
  CsrMatrix m;
  m.rows_ = view.rows;
  m.cols_ = view.cols;
  m.row_ptr_.clear();  // unused in borrowed mode
  m.borrowed_ = true;
  m.view_row_ptr_ = view.row_ptr;
  m.view_col_idx_ = view.col_idx;
  m.view_values_ = view.values;
  m.keepalive_ = std::move(keepalive);
  return m;
}

CsrMatrix CsrMatrix::FromDense(const linalg::Matrix& m, double prune_below) {
  CsrMatrix out(m.rows(), m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      double v = m(r, c);
      if (!ExactlyZero(v) && std::fabs(v) > prune_below) {
        out.col_idx_.push_back(c);
        out.values_.push_back(v);
      }
    }
    out.row_ptr_[r + 1] = out.col_idx_.size();
  }
  return out;
}

void CsrMatrix::EnsureOwned() {
  if (!borrowed_) return;
  row_ptr_.assign(view_row_ptr_.begin(), view_row_ptr_.end());
  col_idx_.assign(view_col_idx_.begin(), view_col_idx_.end());
  values_.assign(view_values_.begin(), view_values_.end());
  borrowed_ = false;
  view_row_ptr_ = {};
  view_col_idx_ = {};
  view_values_ = {};
  keepalive_.reset();
}

double CsrMatrix::At(size_t r, size_t c) const {
  GEOALIGN_DCHECK(r < rows_ && c < cols_);
  common::ConstSpan<size_t> rp = row_ptr();
  common::ConstSpan<size_t> ci = col_idx();
  const size_t* begin = ci.data() + rp[r];
  const size_t* end = ci.data() + rp[r + 1];
  const size_t* it = std::lower_bound(begin, end, c);
  if (it != end && *it == c) {
    return values()[static_cast<size_t>(it - ci.data())];
  }
  return 0.0;
}

CsrMatrix::RowView CsrMatrix::Row(size_t r) const {
  GEOALIGN_DCHECK(r < rows_);
  common::ConstSpan<size_t> rp = row_ptr();
  RowView v;
  v.cols = col_idx().data() + rp[r];
  v.values = values().data() + rp[r];
  v.size = rp[r + 1] - rp[r];
  return v;
}

linalg::Vector CsrMatrix::RowSums() const {
  common::ConstSpan<size_t> rp = row_ptr();
  common::ConstSpan<double> vals = values();
  linalg::Vector out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (size_t k = rp[r]; k < rp[r + 1]; ++k) acc += vals[k];
    out[r] = acc;
  }
  return out;
}

linalg::Vector CsrMatrix::ColSums() const {
  common::ConstSpan<size_t> ci = col_idx();
  common::ConstSpan<double> vals = values();
  linalg::Vector out(cols_, 0.0);
  for (size_t k = 0; k < vals.size(); ++k) out[ci[k]] += vals[k];
  return out;
}

double CsrMatrix::Total() const {
  double acc = 0.0;
  for (double v : values()) acc += v;
  return acc;
}

linalg::Vector CsrMatrix::MatVec(common::ConstSpan<double> x) const {
  GEOALIGN_CHECK(x.size() == cols_) << "CSR MatVec: size mismatch";
  common::ConstSpan<size_t> rp = row_ptr();
  common::ConstSpan<size_t> ci = col_idx();
  common::ConstSpan<double> vals = values();
  linalg::Vector out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (size_t k = rp[r]; k < rp[r + 1]; ++k) {
      acc += vals[k] * x[ci[k]];
    }
    out[r] = acc;
  }
  return out;
}

linalg::Vector CsrMatrix::MatTVec(common::ConstSpan<double> x) const {
  GEOALIGN_CHECK(x.size() == rows_) << "CSR MatTVec: size mismatch";
  common::ConstSpan<size_t> rp = row_ptr();
  common::ConstSpan<size_t> ci = col_idx();
  common::ConstSpan<double> vals = values();
  linalg::Vector out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double xr = x[r];
    if (ExactlyZero(xr)) continue;
    for (size_t k = rp[r]; k < rp[r + 1]; ++k) {
      out[ci[k]] += vals[k] * xr;
    }
  }
  return out;
}

void CsrMatrix::ScaleRows(common::ConstSpan<double> s) {
  GEOALIGN_CHECK(s.size() == rows_) << "CSR ScaleRows: size mismatch";
  EnsureOwned();
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      values_[k] *= s[r];
    }
  }
}

void CsrMatrix::Scale(double s) {
  EnsureOwned();
  for (double& v : values_) v *= s;
}

CsrMatrix CsrMatrix::Transposed() const {
  common::ConstSpan<size_t> rp = row_ptr();
  common::ConstSpan<size_t> ci = col_idx();
  common::ConstSpan<double> vals = values();
  CsrMatrix out(cols_, rows_);
  // Count entries per output row (input column).
  std::vector<size_t> counts(cols_, 0);
  for (size_t c : ci) ++counts[c];
  out.row_ptr_.assign(cols_ + 1, 0);
  for (size_t c = 0; c < cols_; ++c) {
    out.row_ptr_[c + 1] = out.row_ptr_[c] + counts[c];
  }
  out.col_idx_.resize(nnz());
  out.values_.resize(nnz());
  std::vector<size_t> next(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = rp[r]; k < rp[r + 1]; ++k) {
      size_t pos = next[ci[k]]++;
      out.col_idx_[pos] = r;
      out.values_[pos] = vals[k];
    }
  }
  return out;
}

linalg::Matrix CsrMatrix::ToDense() const {
  common::ConstSpan<size_t> rp = row_ptr();
  common::ConstSpan<size_t> ci = col_idx();
  common::ConstSpan<double> vals = values();
  linalg::Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = rp[r]; k < rp[r + 1]; ++k) {
      out(r, ci[k]) = vals[k];
    }
  }
  return out;
}

void CsrMatrix::Prune(double threshold) {
  common::ConstSpan<size_t> rp = row_ptr();
  common::ConstSpan<size_t> ci = col_idx();
  common::ConstSpan<double> vals = values();
  std::vector<size_t> new_row_ptr(rows_ + 1, 0);
  std::vector<size_t> new_cols;
  std::vector<double> new_vals;
  new_cols.reserve(nnz());
  new_vals.reserve(nnz());
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (std::fabs(vals[k]) > threshold) {
        new_cols.push_back(ci[k]);
        new_vals.push_back(vals[k]);
      }
    }
    new_row_ptr[r + 1] = new_cols.size();
  }
  row_ptr_ = std::move(new_row_ptr);
  col_idx_ = std::move(new_cols);
  values_ = std::move(new_vals);
  borrowed_ = false;
  view_row_ptr_ = {};
  view_col_idx_ = {};
  view_values_ = {};
  keepalive_.reset();
}

bool CsrMatrix::AllClose(const CsrMatrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t r = 0; r < rows_; ++r) {
    RowView a = Row(r);
    RowView b = other.Row(r);
    size_t ia = 0;
    size_t ib = 0;
    while (ia < a.size || ib < b.size) {
      size_t ca = ia < a.size ? a.cols[ia] : SIZE_MAX;
      size_t cb = ib < b.size ? b.cols[ib] : SIZE_MAX;
      double va = 0.0;
      double vb = 0.0;
      if (ca <= cb) va = a.values[ia++];
      if (cb <= ca) vb = b.values[ib++];
      if (std::fabs(va - vb) > tol) return false;
    }
  }
  return true;
}

}  // namespace geoalign::sparse
