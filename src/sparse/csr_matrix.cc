#include "sparse/csr_matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

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

/// Deletes a block. Its type tags an owner handle as a block this
/// class built, which tells it apart from a FromBorrowed keepalive.
struct DeleteBlock {
  template <typename T>
  void operator()(T* block) const {
    delete block;
  }
};

}  // namespace

struct CsrMatrix::Block {
  std::vector<size_t> row_ptr;
  std::vector<size_t> col_idx;
  std::vector<double> values;
  // Digest() memo, written through the const handle every holder
  // shares. `digest_lo` and `digest_hi` are stored before `has_digest`
  // is set (release) and read only after it is seen set (acquire).
  // Threads racing on the first Digest() all store the same value.
  mutable std::atomic<uint64_t> digest_lo{0};
  mutable std::atomic<uint64_t> digest_hi{0};
  mutable std::atomic<bool> has_digest{false};
};

CsrMatrix::CsrMatrix(size_t rows, size_t cols)
    : CsrMatrix(Adopt(rows, cols, std::vector<size_t>(rows + 1, 0), {}, {})) {}

CsrMatrix::CsrMatrix(CsrMatrix&& other) noexcept
    : rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)),
      row_ptr_(std::exchange(other.row_ptr_, {kNoRows, 1})),
      col_idx_(std::exchange(other.col_idx_, {})),
      values_(std::exchange(other.values_, {})),
      owner_(std::move(other.owner_)) {}

CsrMatrix& CsrMatrix::operator=(CsrMatrix&& other) noexcept {
  CsrMatrix taken(std::move(other));  // empties `other`, even if it is *this
  rows_ = taken.rows_;
  cols_ = taken.cols_;
  row_ptr_ = taken.row_ptr_;
  col_idx_ = taken.col_idx_;
  values_ = taken.values_;
  owner_ = std::move(taken.owner_);
  return *this;
}

CsrMatrix CsrMatrix::Adopt(size_t rows, size_t cols,
                           std::vector<size_t> row_ptr,
                           std::vector<size_t> col_idx,
                           std::vector<double> values) {
  auto* block =
      new Block{std::move(row_ptr), std::move(col_idx), std::move(values)};
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = block->row_ptr;
  m.col_idx_ = block->col_idx;
  m.values_ = block->values;
  m.owner_ = std::shared_ptr<const void>(block, DeleteBlock{});
  return m;
}

CsrMatrix::Block& CsrMatrix::WritableBlock() {
  if (OwnBlock() != nullptr && owner_.use_count() == 1) {
    // use_count() is a relaxed load, so by itself it does not order
    // the reads another thread made through a copy it has since
    // dropped before the writes that follow. Copying the handle does:
    // libstdc++ increments the count with an acq_rel read-modify-write,
    // which reads the release decrement that dropped that copy. (An
    // acquire fence would order them too, but ThreadSanitizer does not
    // model fences and GCC rejects them under -fsanitize=thread.)
    const std::shared_ptr<const void> acquire = owner_;
    Block& block = *static_cast<Block*>(const_cast<void*>(owner_.get()));
    // The caller is about to write: the stored digest goes. No other
    // holder exists to read it concurrently.
    block.has_digest.store(false, std::memory_order_relaxed);
    return block;
  }
  // A fresh block, which holds no digest.
  *this = Adopt(rows_, cols_,
                std::vector<size_t>(row_ptr_.begin(), row_ptr_.end()),
                std::vector<size_t>(col_idx_.begin(), col_idx_.end()),
                std::vector<double>(values_.begin(), values_.end()));
  return *static_cast<Block*>(const_cast<void*>(owner_.get()));
}

const CsrMatrix::Block* CsrMatrix::OwnBlock() const {
  if (std::get_deleter<DeleteBlock>(owner_) == nullptr) return nullptr;
  return static_cast<const Block*>(owner_.get());
}

std::span<double> CsrMatrix::mutable_values() {
  return WritableBlock().values;
}

ContentDigest CsrMatrix::Digest() const {
  const Block* block = OwnBlock();
  if (block != nullptr && block->has_digest.load(std::memory_order_acquire)) {
    return {block->digest_lo.load(std::memory_order_relaxed),
            block->digest_hi.load(std::memory_order_relaxed)};
  }
  ContentHash hash;
  hash.MixSize(rows_);
  hash.MixSize(cols_);
  hash.MixSizes(row_ptr_);
  hash.MixSizes(col_idx_);
  hash.MixDoubles(values_);
  const ContentDigest digest = hash.Finish();
  if (block != nullptr) {
    block->digest_lo.store(digest.lo, std::memory_order_relaxed);
    block->digest_hi.store(digest.hi, std::memory_order_relaxed);
    block->has_digest.store(true, std::memory_order_release);
  }
  return digest;
}

Result<CsrMatrix> CsrMatrix::FromCsrArrays(size_t rows, size_t cols,
                                           std::vector<size_t> row_ptr,
                                           std::vector<size_t> col_idx,
                                           std::vector<double> values) {
  GEOALIGN_RETURN_IF_ERROR(
      ValidateCsr(rows, cols, row_ptr, col_idx, values));
  return Adopt(rows, cols, std::move(row_ptr), std::move(col_idx),
               std::move(values));
}

Result<CsrMatrix> CsrMatrix::FromBorrowed(
    const CsrView& view, std::shared_ptr<const void> keepalive) {
  GEOALIGN_RETURN_IF_ERROR(ValidateCsr(view.rows, view.cols, view.row_ptr,
                                       view.col_idx, view.values));
  CsrMatrix m;
  m.rows_ = view.rows;
  m.cols_ = view.cols;
  m.row_ptr_ = view.row_ptr;
  m.col_idx_ = view.col_idx;
  m.values_ = view.values;
  m.owner_ = std::move(keepalive);
  return m;
}

CsrMatrix CsrMatrix::FromDense(const linalg::Matrix& m, double prune_below) {
  std::vector<size_t> row_ptr(m.rows() + 1, 0);
  std::vector<size_t> col_idx;
  std::vector<double> values;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      double v = m(r, c);
      if (!ExactlyZero(v) && std::fabs(v) > prune_below) {
        col_idx.push_back(c);
        values.push_back(v);
      }
    }
    row_ptr[r + 1] = col_idx.size();
  }
  return Adopt(m.rows(), m.cols(), std::move(row_ptr), std::move(col_idx),
               std::move(values));
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
  std::span<double> values = mutable_values();
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      values[k] *= s[r];
    }
  }
}

CsrMatrix CsrMatrix::Transposed() const {
  common::ConstSpan<size_t> rp = row_ptr();
  common::ConstSpan<size_t> ci = col_idx();
  common::ConstSpan<double> vals = values();
  // Count entries per output row (input column).
  std::vector<size_t> counts(cols_, 0);
  for (size_t c : ci) ++counts[c];
  std::vector<size_t> out_row_ptr(cols_ + 1, 0);
  for (size_t c = 0; c < cols_; ++c) {
    out_row_ptr[c + 1] = out_row_ptr[c] + counts[c];
  }
  std::vector<size_t> out_col_idx(nnz());
  std::vector<double> out_values(nnz());
  std::vector<size_t> next(out_row_ptr.begin(), out_row_ptr.end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = rp[r]; k < rp[r + 1]; ++k) {
      size_t pos = next[ci[k]]++;
      out_col_idx[pos] = r;
      out_values[pos] = vals[k];
    }
  }
  return Adopt(cols_, rows_, std::move(out_row_ptr), std::move(out_col_idx),
               std::move(out_values));
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
  Block& block = WritableBlock();
  size_t kept = 0;
  for (size_t r = 0, k = 0; r < rows_; ++r) {
    for (; k < block.row_ptr[r + 1]; ++k) {
      if (!(std::fabs(block.values[k]) > threshold)) continue;
      block.col_idx[kept] = block.col_idx[k];
      block.values[kept++] = block.values[k];
    }
    block.row_ptr[r + 1] = kept;
  }
  block.col_idx.resize(kept);
  block.values.resize(kept);
  col_idx_ = block.col_idx;
  values_ = block.values;
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
