#include "sparse/fused_execute.h"

#include <algorithm>
#include <cmath>

#include "common/float_eq.h"
#include "common/logging.h"
#include "sparse/simd/panel_kernels.h"

namespace geoalign::sparse {

FusedWorkspace::Spec FusedWorkspace::ComputeSpec(const CsrMatrix& structure,
                                                 size_t num_operands) {
  Spec spec;
  spec.rows = structure.rows();
  spec.cols = structure.cols();
  spec.max_operands = num_operands;
  common::ConstSpan<size_t> row_ptr = structure.row_ptr();
  for (size_t r = 0; r < spec.rows; ++r) {
    spec.max_row_nnz = std::max(spec.max_row_nnz, row_ptr[r + 1] - row_ptr[r]);
  }
  return spec;
}

void FusedWorkspace::PreparePanel(const Spec& spec, size_t width) {
  width = std::min(std::max<size_t>(1, width), simd::kMaxPanelWidth);
  panel_width_ = std::max(panel_width_, width);
  auto grow = [this](std::vector<double>& v, size_t need) {
    if (v.size() < need) {
      ++alloc_events_;
      v.resize(need);
    }
  };
  grow(panel_scratch_, spec.max_row_nnz * panel_width_);
  grow(panel_accum_, spec.cols * panel_width_);
  grow(panel_weights_, spec.max_operands * panel_width_);
  grow(panel_row_, 3 * panel_width_);

  // Each row contributes at most one zero entry per panel pass.
  if (panel_zero_.capacity() < spec.rows) {
    ++alloc_events_;
    panel_zero_.reserve(spec.rows);
  }
  if (active_values_.capacity() < spec.max_operands ||
      active_aggs_.capacity() < spec.max_operands) {
    ++alloc_events_;
    active_values_.reserve(spec.max_operands);
    active_aggs_.reserve(spec.max_operands);
  }
}

Status FusedAggregatesPanel(const FusedPanelInputs& in,
                            const FusedWorkspace::Spec& spec, simd::Isa isa,
                            linalg::Vector* const* target_estimates,
                            std::vector<size_t>* const* zero_rows,
                            FusedWorkspace* workspace) {
  if (in.mats == nullptr || in.lane_weights == nullptr ||
      in.row_scales == nullptr || target_estimates == nullptr ||
      zero_rows == nullptr || workspace == nullptr) {
    return Status::InvalidArgument("FusedAggregatesPanel: null argument");
  }
  const size_t width = in.width;
  if (width < 1 || width > simd::kMaxPanelWidth) {
    return Status::InvalidArgument(
        "FusedAggregatesPanel: panel width out of range");
  }
  const std::vector<const CsrMatrix*>& mats = *in.mats;
  if (mats.empty()) {
    return Status::InvalidArgument("FusedAggregatesPanel: no matrices");
  }
  size_t rows = mats[0]->rows();
  size_t cols = mats[0]->cols();
  for (const CsrMatrix* m : mats) {
    if (m->rows() != rows || m->cols() != cols) {
      return Status::InvalidArgument("FusedAggregatesPanel: shape mismatch");
    }
    GEOALIGN_DCHECK(m->row_ptr() == mats[0]->row_ptr() &&
                    m->col_idx() == mats[0]->col_idx())
        << "FusedAggregatesPanel: sparsity structures differ";
  }
  for (size_t p = 0; p < width; ++p) {
    if (in.row_scales[p].data() == nullptr ||
        in.row_scales[p].size() != rows || target_estimates[p] == nullptr ||
        zero_rows[p] == nullptr) {
      return Status::InvalidArgument(
          "FusedAggregatesPanel: bad per-lane argument");
    }
  }
  if (in.operand_aggregates != nullptr) {
    for (size_t mi = 0; mi < mats.size(); ++mi) {
      if (in.operand_aggregates[mi].data() == nullptr ||
          in.operand_aggregates[mi].size() != rows) {
        return Status::InvalidArgument(
            "FusedAggregatesPanel: aggregate length mismatch");
      }
    }
  }
  GEOALIGN_RETURN_IF_ERROR(
      in.fallback.Check("FusedAggregatesPanel", rows, cols));
  if (spec.rows != rows || spec.cols != cols ||
      spec.max_operands < mats.size()) {
    return Status::InvalidArgument(
        "FusedAggregatesPanel: workspace spec does not cover operands");
  }

  FusedWorkspace& ws = *workspace;
  ws.PreparePanel(spec, width);
  const simd::PanelKernels& kern = simd::KernelsFor(isa);

  // Active operands: any lane nonzero. An operand that is zero in one
  // lane but live in another stays; its ±0.0 products are the IEEE
  // identity on that lane's +0.0-seeded accumulators, so per-lane bits
  // still match the row kernel's active-set filtering.
  ws.active_values_.clear();
  ws.active_aggs_.clear();
  size_t n_active = 0;
  for (size_t mi = 0; mi < mats.size(); ++mi) {
    const double* lanes = in.lane_weights + mi * width;
    bool any = false;
    for (size_t p = 0; p < width; ++p) {
      if (!ExactlyZero(lanes[p])) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    ws.active_values_.push_back(mats[mi]->values().data());
    if (in.operand_aggregates != nullptr) {
      ws.active_aggs_.push_back(in.operand_aggregates[mi].data());
    }
    std::copy(lanes, lanes + width,
              ws.panel_weights_.data() + n_active * width);
    ++n_active;
  }
  const double* const* active_vals = ws.active_values_.data();
  const double* const* active_aggs = ws.active_aggs_.data();
  const double* panel_w = ws.panel_weights_.data();

  common::ConstSpan<size_t> row_ptr = mats[0]->row_ptr();
  common::ConstSpan<size_t> col_idx = mats[0]->col_idx();

  double* scratch = ws.panel_scratch_.data();
  double* accum = ws.panel_accum_.data();
  double* denom = ws.panel_row_.data();
  double* inv = denom + width;
  double* rscale = inv + width;
  ws.panel_zero_.clear();

  std::fill(accum, accum + cols * width, 0.0);

  // GEOALIGN_HOT_LOOP_BEGIN
  // The panel form of the fused Eq. 14 + Eq. 17 scatter. Zero heap
  // allocations in this region (machine-checked); every buffer was
  // sized by PreparePanel. Rows run in ascending order and scatter
  // straight into the lane-major accumulator — per lane, the exact
  // addition order of the row kernel's aggregates output
  // (DisaggregateRows).
  for (size_t r = 0; r < rows; ++r) {
    const size_t rb = row_ptr[r];
    const size_t re = row_ptr[r + 1];
    // Eq. 14 numerator, all lanes at once: per entry, broadcast the
    // operand value against the per-lane weights in operand order
    // from 0.0 — each lane replays the row merge's sequence.
    if (in.operand_aggregates != nullptr) {
      // kFromAggregates: each lane's denominator accumulates the
      // operand aggregates in the same order (the hoisted
      // linalg::Axpy loop, per row).
      std::fill(denom, denom + width, 0.0);
      for (size_t mi = 0; mi < n_active; ++mi) {
        kern.axpy_broadcast(denom, panel_w + mi * width, active_aggs[mi][r],
                            width);
      }
      for (size_t k = rb; k < re; ++k) {
        double* acc = scratch + (k - rb) * width;
        std::fill(acc, acc + width, 0.0);
        for (size_t mi = 0; mi < n_active; ++mi) {
          kern.axpy_broadcast(acc, panel_w + mi * width,
                              active_vals[mi][k], width);
        }
      }
    } else {
      // kFromDmRowSums: row sums skip exact-zero numerator entries,
      // as the materializing path prunes them before RowSums.
      std::fill(denom, denom + width, 0.0);
      for (size_t k = rb; k < re; ++k) {
        double* acc = scratch + (k - rb) * width;
        std::fill(acc, acc + width, 0.0);
        for (size_t mi = 0; mi < n_active; ++mi) {
          kern.axpy_broadcast(acc, panel_w + mi * width,
                              active_vals[mi][k], width);
        }
        kern.masked_add(denom, acc, width);
      }
    }
    for (size_t p = 0; p < width; ++p) rscale[p] = in.row_scales[p][r];

    const uint64_t zmask = kern.zero_mask(denom, in.zero_tolerance, width);
    if (zmask == 0) {
      // Every lane live: vectorized divide + scatter.
      kern.reciprocal(inv, denom, width);
      for (size_t k = rb; k < re; ++k) {
        kern.scatter_scaled(accum + col_idx[k] * width,
                            scratch + (k - rb) * width, inv, rscale, width);
      }
      continue;
    }
    // At least one lane hit the Eq. 14 "otherwise 0" branch: record
    // the lane set (capacity reserved to spec.rows in PreparePanel),
    // then finish the row per lane — zero lanes take the fallback
    // scatter, live lanes the scalar divide + scatter, both the row
    // kernel's arithmetic.
    ws.panel_zero_.push_back(  // NOLINT(geoalign-hot-alloc)
        FusedWorkspace::PanelZeroRow{r, zmask});
    for (size_t p = 0; p < width; ++p) {
      if ((zmask >> p) & 1u) {
        in.fallback.EmitRow(r, rscale[p], [&](size_t c, double v) {
          accum[c * width + p] += v;
        });
        continue;
      }
      const double lane_inv = 1.0 / denom[p];
      for (size_t k = rb; k < re; ++k) {
        const double acc = scratch[(k - rb) * width + p];
        if (ExactlyZero(acc)) continue;
        accum[col_idx[k] * width + p] += (acc * lane_inv) * rscale[p];
      }
    }
  }
  // GEOALIGN_HOT_LOOP_END

  // De-interleave the lane-major accumulator into the per-column
  // outputs — a pure copy, so the accumulated bits pass through.
  for (size_t p = 0; p < width; ++p) {
    target_estimates[p]->resize(cols);
    double* target = target_estimates[p]->data();
    for (size_t c = 0; c < cols; ++c) target[c] = accum[c * width + p];
  }
  for (size_t p = 0; p < width; ++p) zero_rows[p]->clear();
  for (const FusedWorkspace::PanelZeroRow& z : ws.panel_zero_) {
    for (size_t p = 0; p < width; ++p) {
      if ((z.lanes >> p) & 1u) zero_rows[p]->push_back(z.row);
    }
  }
  return Status::OK();
}

}  // namespace geoalign::sparse
