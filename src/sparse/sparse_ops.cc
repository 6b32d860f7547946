#include "sparse/sparse_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/float_eq.h"

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

void DivideRowsOrZero(CsrMatrix& m, const linalg::Vector& denom,
                      double zero_tol, std::vector<size_t>* zero_rows) {
  GEOALIGN_CHECK(denom.size() == m.rows())
      << "DivideRowsOrZero: size mismatch";
  // mutable_values() first: its write step may move the matrix to a
  // new block, so the row_ptr span below views the final storage.
  std::span<double> values = m.mutable_values();
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

namespace {

// The checks both outputs of DisaggregateRows share.
Status CheckRowPassInputs(const std::vector<const CsrMatrix*>& mats,
                          const linalg::Vector& weights,
                          const linalg::Vector* denominators,
                          common::ConstSpan<double> row_scale,
                          const FallbackRows& fallback) {
  if (mats.empty()) {
    return Status::InvalidArgument("DisaggregateRows: no matrices");
  }
  if (mats.size() != weights.size()) {
    return Status::InvalidArgument("DisaggregateRows: weight count mismatch");
  }
  const size_t rows = mats[0]->rows();
  for (const CsrMatrix* m : mats) {
    if (m->rows() != rows || m->cols() != mats[0]->cols()) {
      return Status::InvalidArgument("DisaggregateRows: shape mismatch");
    }
  }
  if (row_scale.size() != rows ||
      (denominators != nullptr && denominators->size() != rows)) {
    return Status::InvalidArgument("DisaggregateRows: vector length mismatch");
  }
  return fallback.Check("DisaggregateRows", rows, mats[0]->cols());
}

}  // namespace

Status FallbackRows::Check(const char* caller, size_t rows,
                           size_t cols) const {
  if ((dm == nullptr) != (row_sums == nullptr)) {
    return Status::InvalidArgument(
        std::string(caller) + ": fallback DM and row sums must be set together");
  }
  if (dm != nullptr && (dm->rows() != rows || dm->cols() != cols ||
                        row_sums->size() != rows)) {
    return Status::InvalidArgument(std::string(caller) +
                                   ": fallback shape mismatch");
  }
  return Status::OK();
}

void RowScratch::Prepare(size_t num_operands, size_t rows, size_t cols) {
  if (ops_.capacity() < num_operands || cursor_.size() < num_operands ||
      stop_.size() < num_operands) {
    ++alloc_events_;
    ops_.reserve(num_operands);
    cursor_.resize(std::max(cursor_.size(), num_operands));
    stop_.resize(std::max(stop_.size(), num_operands));
  }
  if (row_cols_.size() < cols || row_values_.size() < cols) {
    ++alloc_events_;
    row_cols_.resize(std::max(row_cols_.size(), cols));
    row_values_.resize(std::max(row_values_.size(), cols));
  }
  // Each row contributes at most one zero-row entry.
  if (zero_list_.capacity() < rows) {
    ++alloc_events_;
    zero_list_.reserve(rows);
  }
}

template <typename Keep, typename FinishRow>
void RowScratch::RowPass(const std::vector<const CsrMatrix*>& mats,
                         const linalg::Vector& weights,
                         const linalg::Vector* denominators, double zero_tol,
                         common::ConstSpan<double> row_scale,
                         const FallbackRows& fallback, Keep keep,
                         FinishRow finish_row) {
  // The operands WeightedSum reads: exact-zero weights are skipped.
  // Prepare reserved one slot per operand.
  ops_.clear();
  for (size_t mi = 0; mi < mats.size(); ++mi) {
    if (ExactlyZero(weights[mi])) continue;
    const CsrMatrix& m = *mats[mi];
    ops_.push_back({m.row_ptr().data(), m.col_idx().data(), m.values().data(),
                    weights[mi]});
  }
  const size_t num_ops = ops_.size();
  const Operand* ops = ops_.data();
  size_t* cursor = cursor_.data();
  size_t* stop = stop_.data();
  size_t* row_cols = row_cols_.data();
  double* row_values = row_values_.data();
  const size_t rows = mats[0]->rows();
  constexpr size_t kNone = std::numeric_limits<size_t>::max();

  // GEOALIGN_HOT_LOOP_BEGIN
  // Eq. 14, one row at a time: every buffer was sized by Prepare. (The
  // kFullDm output's callbacks, outside this region, grow DM̂_o's
  // arrays: that output builds its result.)
  for (size_t r = 0; r < rows; ++r) {
    // The weighted merge of the operands' sorted rows: each step takes
    // the smallest unmerged column and adds its operands in ascending
    // order from +0.0, WeightedSum's sequence per entry. An exact-zero
    // sum (never -0.0 from a +0.0 start) leaves the row sum as it is
    // and divides to ±0.0 or NaN below, so the keep rule drops it
    // there, as WeightedSum drops it here.
    size_t next = kNone;
    for (size_t k = 0; k < num_ops; ++k) {
      cursor[k] = ops[k].row_ptr[r];
      stop[k] = ops[k].row_ptr[r + 1];
      if (cursor[k] < stop[k]) next = std::min(next, ops[k].cols[cursor[k]]);
    }
    size_t n = 0;
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
      row_cols[n] = c;
      row_values[n] = acc;
      ++n;
    }

    double denom;
    if (denominators != nullptr) {
      denom = (*denominators)[r];
    } else {
      denom = 0.0;  // RowSums; a zero sum adds nothing
      for (size_t k = 0; k < n; ++k) denom += row_values[k];
    }
    if (std::fabs(denom) <= zero_tol) {
      // Every v · 0.0 is ±0.0 or NaN, which Prune(0.0) drops.
      fallback.EmitRow(r, row_scale[r], keep);
      finish_row(r, true);
      continue;
    }
    // DivideRowsOrZero's v · (1/d), kept where its Prune(0.0) keeps it,
    // then ScaleRows.
    const double inv = 1.0 / denom;
    const double scale = row_scale[r];
    for (size_t k = 0; k < n; ++k) {
      const double q = row_values[k] * inv;
      if (std::fabs(q) > 0.0) keep(row_cols[k], q * scale);
    }
    finish_row(r, false);
  }
  // GEOALIGN_HOT_LOOP_END
}

Result<CsrMatrix> DisaggregateRows(const std::vector<const CsrMatrix*>& mats,
                                   const linalg::Vector& weights,
                                   const linalg::Vector* denominators,
                                   double zero_tol,
                                   common::ConstSpan<double> row_scale,
                                   const FallbackRows& fallback,
                                   std::vector<size_t>* zero_rows) {
  GEOALIGN_RETURN_IF_ERROR(
      CheckRowPassInputs(mats, weights, denominators, row_scale, fallback));
  const size_t rows = mats[0]->rows();
  const size_t cols = mats[0]->cols();
  RowScratch scratch;
  scratch.Prepare(mats.size(), 0, cols);
  size_t max_nnz = fallback.dm != nullptr ? fallback.dm->nnz() : 0;
  for (size_t mi = 0; mi < mats.size(); ++mi) {
    if (!ExactlyZero(weights[mi])) max_nnz += mats[mi]->nnz();
  }

  // The row pass emits ascending in-range columns, so the arrays go to
  // Adopt unvalidated. Capacity only: pages are touched as entries are
  // written.
  std::vector<size_t> out_rows(rows + 1, 0);
  std::vector<size_t> out_cols;
  std::vector<double> out_vals;
  out_cols.reserve(max_nnz);
  out_vals.reserve(max_nnz);
  bool any_zero = false;
  scratch.RowPass(
      mats, weights, denominators, zero_tol, row_scale, fallback,
      [&](size_t c, double v) {
        out_cols.push_back(c);
        out_vals.push_back(v);
      },
      [&](size_t r, bool zero) {
        if (zero && zero_rows != nullptr) zero_rows->push_back(r);
        any_zero |= zero;
        out_rows[r + 1] = out_cols.size();
      });
  if (fallback.dm != nullptr && any_zero) {
    // The oracle's rebuild: CooBuilder::Build drops exact zeros (NaN is
    // not one) and passes every other value through as 0.0 + v == v.
    size_t kept = 0;
    for (size_t r = 0, k = 0; r < rows; ++r) {
      for (; k < out_rows[r + 1]; ++k) {
        if (ExactlyZero(out_vals[k])) continue;
        out_cols[kept] = out_cols[k];
        out_vals[kept++] = out_vals[k];
      }
      out_rows[r + 1] = kept;
    }
    out_cols.resize(kept);
    out_vals.resize(kept);
  }
  return CsrMatrix::Adopt(rows, cols, std::move(out_rows), std::move(out_cols),
                          std::move(out_vals));
}

Status DisaggregateRows(const std::vector<const CsrMatrix*>& mats,
                        const linalg::Vector& weights,
                        const linalg::Vector* denominators, double zero_tol,
                        common::ConstSpan<double> row_scale,
                        const FallbackRows& fallback,
                        linalg::Vector* target_estimates,
                        std::vector<size_t>* zero_rows, RowScratch* scratch) {
  if (target_estimates == nullptr || zero_rows == nullptr ||
      scratch == nullptr) {
    return Status::InvalidArgument("DisaggregateRows: null argument");
  }
  GEOALIGN_RETURN_IF_ERROR(
      CheckRowPassInputs(mats, weights, denominators, row_scale, fallback));
  const size_t rows = mats[0]->rows();
  const size_t cols = mats[0]->cols();
  scratch->Prepare(mats.size(), rows, cols);
  std::vector<size_t>& zeros = scratch->zero_list_;
  zeros.clear();
  target_estimates->assign(cols, 0.0);
  double* target = target_estimates->data();
  // GEOALIGN_HOT_LOOP_BEGIN
  // Eq. 17 scattered from the row pass: rows run in ascending order,
  // so each target adds its terms in ColSums' storage order.
  scratch->RowPass(
      mats, weights, denominators, zero_tol, row_scale, fallback,
      [target](size_t c, double v) { target[c] += v; },
      [&](size_t r, bool zero) {
        // Capacity was reserved to `rows` by Prepare.
        if (zero) zeros.push_back(r);  // NOLINT(geoalign-hot-alloc)
      });
  // GEOALIGN_HOT_LOOP_END
  zero_rows->assign(zeros.begin(), zeros.end());
  return Status::OK();
}

}  // namespace geoalign::sparse
