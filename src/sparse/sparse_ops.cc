#include "sparse/sparse_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/float_eq.h"
#include "sparse/simd/panel_kernels.h"

namespace geoalign::sparse {

Result<CsrMatrix> Add(const CsrMatrix& a, const CsrMatrix& b, double alpha,
                      double beta) {
  return WeightedSum({&a, &b}, {alpha, beta});
}

Result<CsrMatrix> WeightedSum(const std::vector<const CsrMatrix*>& mats,
                              const linalg::Vector& weights) {
  if (mats.empty()) {
    return Status::InvalidArgument("WeightedSum: no matrices");
  }
  if (mats.size() != weights.size()) {
    return Status::InvalidArgument("WeightedSum: weight count mismatch");
  }
  size_t rows = mats[0]->rows();
  size_t cols = mats[0]->cols();
  for (const CsrMatrix* m : mats) {
    if (m->rows() != rows || m->cols() != cols) {
      return Status::InvalidArgument("WeightedSum: shape mismatch");
    }
  }

  std::vector<size_t> out_rowptr(rows + 1, 0);
  std::vector<size_t> out_cols;
  std::vector<double> out_vals;
  // Scatter-gather row merge using a dense accumulator over columns
  // touched in the current row.
  std::vector<double> acc(cols, 0.0);
  std::vector<size_t> touched;
  for (size_t r = 0; r < rows; ++r) {
    touched.clear();
    for (size_t mi = 0; mi < mats.size(); ++mi) {
      double w = weights[mi];
      if (ExactlyZero(w)) continue;
      CsrMatrix::RowView row = mats[mi]->Row(r);
      for (size_t k = 0; k < row.size; ++k) {
        size_t c = row.cols[k];
        if (ExactlyZero(acc[c])) touched.push_back(c);
        acc[c] += w * row.values[k];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (size_t c : touched) {
      if (!ExactlyZero(acc[c])) {
        out_cols.push_back(c);
        out_vals.push_back(acc[c]);
      }
      acc[c] = 0.0;
    }
    out_rowptr[r + 1] = out_cols.size();
  }
  return CsrMatrix::FromCsrArrays(rows, cols, std::move(out_rowptr),
                                  std::move(out_cols), std::move(out_vals));
}

Result<CsrMatrix> WeightedSumAligned(const std::vector<const CsrMatrix*>& mats,
                                     const linalg::Vector& weights) {
  if (mats.empty()) {
    return Status::InvalidArgument("WeightedSumAligned: no matrices");
  }
  if (mats.size() != weights.size()) {
    return Status::InvalidArgument(
        "WeightedSumAligned: weight count mismatch");
  }
  size_t rows = mats[0]->rows();
  size_t cols = mats[0]->cols();
  for (const CsrMatrix* m : mats) {
    if (m->rows() != rows || m->cols() != cols) {
      return Status::InvalidArgument("WeightedSumAligned: shape mismatch");
    }
    // Full structure equality is the caller's precondition (checked
    // once at plan-compile time); re-verify only in debug builds.
    GEOALIGN_DCHECK(m->row_ptr() == mats[0]->row_ptr() &&
                    m->col_idx() == mats[0]->col_idx())
        << "WeightedSumAligned: sparsity structures differ";
  }

  common::ConstSpan<size_t> row_ptr = mats[0]->row_ptr();
  common::ConstSpan<size_t> col_idx = mats[0]->col_idx();
  const size_t nnz = row_ptr[rows];
  // The value lane is elementwise over the shared entry span, so it
  // dispatches to the vectorized simd kernels: per entry the operands
  // still accumulate in ascending order from 0.0 (the operand loop is
  // outer, the entry loop inner — a pure loop interchange), which
  // keeps every entry bit-identical to the scatter-gather kernel at
  // every ISA (tests/simd_kernel_test.cc). Operands with an exact-zero
  // weight are skipped, as the scatter-gather path skips them.
  const simd::PanelKernels& kern = simd::KernelsFor(simd::ActiveIsa());
  std::vector<double> vals(nnz, 0.0);
  for (size_t mi = 0; mi < mats.size(); ++mi) {
    if (ExactlyZero(weights[mi])) continue;
    kern.axpy_scalar(vals.data(), weights[mi], mats[mi]->values().data(),
                     nnz);
  }
  // Drop exact-zero sums, compacting the values in place.
  std::vector<size_t> out_rowptr(rows + 1, 0);
  std::vector<size_t> out_cols(nnz);
  size_t out = 0;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (ExactlyZero(vals[k])) continue;
      out_cols[out] = col_idx[k];
      vals[out] = vals[k];
      ++out;
    }
    out_rowptr[r + 1] = out;
  }
  out_cols.resize(out);
  vals.resize(out);
  return CsrMatrix::FromCsrArrays(rows, cols, std::move(out_rowptr),
                                  std::move(out_cols), std::move(vals));
}

void DivideRowsOrZero(CsrMatrix& m, const linalg::Vector& denom,
                      double zero_tol, std::vector<size_t>* zero_rows) {
  GEOALIGN_CHECK(denom.size() == m.rows())
      << "DivideRowsOrZero: size mismatch";
  // mutable_values() first: it materializes an owned copy of a
  // borrowed matrix, so the row_ptr span below views the final storage.
  std::vector<double>& values = m.mutable_values();
  common::ConstSpan<size_t> row_ptr = m.row_ptr();
  for (size_t r = 0; r < m.rows(); ++r) {
    double scale;
    if (std::fabs(denom[r]) <= zero_tol) {
      if (zero_rows != nullptr) zero_rows->push_back(r);
      scale = 0.0;
    } else {
      scale = 1.0 / denom[r];
    }
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      values[k] *= scale;
    }
  }
  m.Prune(0.0);
}

Result<CsrMatrix> DisaggregateRows(const std::vector<const CsrMatrix*>& mats,
                                   const linalg::Vector& weights,
                                   const linalg::Vector* denominators,
                                   double zero_tol,
                                   common::ConstSpan<double> row_scale,
                                   std::vector<size_t>* zero_rows) {
  if (mats.empty()) {
    return Status::InvalidArgument("DisaggregateRows: no matrices");
  }
  if (mats.size() != weights.size()) {
    return Status::InvalidArgument("DisaggregateRows: weight count mismatch");
  }
  const size_t rows = mats[0]->rows();
  const size_t cols = mats[0]->cols();
  for (const CsrMatrix* m : mats) {
    if (m->rows() != rows || m->cols() != cols) {
      return Status::InvalidArgument("DisaggregateRows: shape mismatch");
    }
  }
  if (row_scale.size() != rows ||
      (denominators != nullptr && denominators->size() != rows)) {
    return Status::InvalidArgument("DisaggregateRows: vector length mismatch");
  }

  // The operands WeightedSum reads: exact-zero weights are skipped.
  struct Operand {
    const size_t* row_ptr;
    const size_t* cols;
    const double* values;
    double weight;
  };
  std::vector<Operand> ops;
  size_t max_nnz = 0;
  for (size_t mi = 0; mi < mats.size(); ++mi) {
    if (ExactlyZero(weights[mi])) continue;
    const CsrMatrix& m = *mats[mi];
    ops.push_back({m.row_ptr().data(), m.col_idx().data(), m.values().data(),
                   weights[mi]});
    max_nnz += m.nnz();
  }
  const size_t num_ops = ops.size();
  std::vector<size_t> cursor(num_ops);
  std::vector<size_t> stop(num_ops);

  // The merge emits ascending in-range columns, so the arrays are
  // written in place, unvalidated. Capacity only: pages are touched as
  // entries are written.
  CsrMatrix out(rows, cols);
  std::vector<size_t>& out_cols = out.col_idx_;
  std::vector<double>& out_vals = out.values_;
  out_cols.reserve(max_nnz);
  out_vals.reserve(max_nnz);
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  for (size_t r = 0; r < rows; ++r) {
    // The weighted merge of the operands' sorted rows: each step takes
    // the smallest unmerged column and adds its operands in ascending
    // order from +0.0, WeightedSum's sequence per entry. An exact-zero
    // sum (never -0.0 from a +0.0 start) leaves the row sum as it is
    // and divides to ±0.0 or NaN below, so the prune drops it there,
    // as WeightedSum drops it here.
    const size_t begin = out_cols.size();
    size_t next = kNone;
    for (size_t k = 0; k < num_ops; ++k) {
      cursor[k] = ops[k].row_ptr[r];
      stop[k] = ops[k].row_ptr[r + 1];
      if (cursor[k] < stop[k]) next = std::min(next, ops[k].cols[cursor[k]]);
    }
    while (next != kNone) {
      const size_t c = next;
      next = kNone;
      double acc = 0.0;
      for (size_t k = 0; k < num_ops; ++k) {
        if (cursor[k] == stop[k]) continue;
        if (ops[k].cols[cursor[k]] == c) {
          acc += ops[k].weight * ops[k].values[cursor[k]];
          if (++cursor[k] == stop[k]) continue;
        }
        next = std::min(next, ops[k].cols[cursor[k]]);
      }
      out_cols.push_back(c);
      out_vals.push_back(acc);
    }
    const size_t end = out_cols.size();

    double denom;
    if (denominators != nullptr) {
      denom = (*denominators)[r];
    } else {
      denom = 0.0;  // RowSums; a zero sum adds nothing
      for (size_t k = begin; k < end; ++k) denom += out_vals[k];
    }
    size_t kept = begin;
    if (std::fabs(denom) <= zero_tol) {
      // Every v · 0.0 is ±0.0 or NaN, which Prune(0.0) drops.
      if (zero_rows != nullptr) zero_rows->push_back(r);
    } else {
      // DivideRowsOrZero's v · (1/d), its Prune(0.0), then ScaleRows,
      // compacting in place without a branch.
      const double inv = 1.0 / denom;
      const double scale = row_scale[r];
      for (size_t k = begin; k < end; ++k) {
        const double q = out_vals[k] * inv;
        out_cols[kept] = out_cols[k];
        out_vals[kept] = q * scale;
        kept += std::fabs(q) > 0.0 ? 1 : 0;
      }
    }
    out_cols.resize(kept);
    out_vals.resize(kept);
    out.row_ptr_[r + 1] = kept;
  }
  return out;
}

}  // namespace geoalign::sparse
