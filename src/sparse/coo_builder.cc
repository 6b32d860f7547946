#include "sparse/coo_builder.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/float_eq.h"

namespace geoalign::sparse {

void CooBuilder::Add(size_t r, size_t c, double value) {
  GEOALIGN_DCHECK(r < rows_ && c < cols_);
  entries_.push_back({r, c, value});
}

CsrMatrix CooBuilder::Build() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::vector<size_t> row_ptr(rows_ + 1, 0);
  std::vector<size_t> col_idx;
  std::vector<double> values;
  size_t i = 0;
  for (size_t r = 0; r < rows_; ++r) {
    while (i < entries_.size() && entries_[i].row == r) {
      size_t c = entries_[i].col;
      double acc = 0.0;
      while (i < entries_.size() && entries_[i].row == r &&
             entries_[i].col == c) {
        acc += entries_[i].value;
        ++i;
      }
      if (!ExactlyZero(acc)) {
        col_idx.push_back(c);
        values.push_back(acc);
      }
    }
    row_ptr[r + 1] = col_idx.size();
  }
  entries_.clear();
  return CsrMatrix::Adopt(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                          std::move(values));
}

}  // namespace geoalign::sparse
