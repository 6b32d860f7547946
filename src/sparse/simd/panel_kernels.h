#ifndef GEOALIGN_SPARSE_SIMD_PANEL_KERNELS_H_
#define GEOALIGN_SPARSE_SIMD_PANEL_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "sparse/simd/isa.h"

namespace geoalign::sparse::simd {

/// Widest panel the kernels accept. zero_mask reports one bit per
/// lane, so the bound is the uint64_t width; it also caps the panel
/// scratch the fused workspace sizes (cols × width doubles per array).
inline constexpr size_t kMaxPanelWidth = 64;

/// The vectorized micro-kernels of the column-panel execute path, one
/// table per ISA. Every kernel is a pure lane-wise map: lane p of an
/// n-lane call performs exactly the scalar instruction sequence of the
/// reference implementation — IEEE mul/add/div/compare only, operands
/// in the same order, no FMA contraction, no cross-lane shuffles — so
/// a vectorized call is bit-identical to n scalar calls by
/// construction. tests/simd_kernel_test.cc enforces that differentially
/// for every table returned by KernelsFor on the running machine.
///
/// Masked kernels replicate the reference's "skip exact ±0.0" branches
/// branch-free with a select: skipped lanes keep the destination's
/// ORIGINAL bits (never an added +0.0), so the identity holds for
/// every destination value — including a -0.0 a caller might hand in —
/// not just the +0.0-seeded accumulators of the fused path.
struct PanelKernels {
  /// dst[p] += w[p] * v — the Eq. 14 numerator step: one CSR entry's
  /// value broadcast against the per-lane effective weights.
  void (*axpy_broadcast)(double* dst, const double* w, double v, size_t n);

  /// dst[i] += w * src[i] — the elementwise value lane of
  /// WeightedSumAligned: one operand's weight broadcast over a span of
  /// shared-structure entry values.
  void (*axpy_scalar)(double* dst, double w, const double* src, size_t n);

  /// sum[p] += acc[p] for lanes where acc[p] is not exactly ±0.0 — the
  /// kFromDmRowSums row-sum update (pruned entries excluded).
  void (*masked_add)(double* sum, const double* acc, size_t n);

  /// part[p] += (acc[p] * inv[p]) * rscale[p] for lanes where acc[p]
  /// is not exactly ±0.0 — DivideRowsOrZero + ScaleRows + the Eq. 17
  /// scatter, fused per entry. The acc==0 mask also guards the
  /// 0 × inf = NaN hazard when a lane's denominator underflowed.
  void (*scatter_scaled)(double* part, const double* acc, const double* inv,
                         const double* rscale, size_t n);

  /// Bit p set iff |denom[p]| <= tol (the zero-row predicate).
  /// Requires n <= kMaxPanelWidth.
  uint64_t (*zero_mask)(const double* denom, double tol, size_t n);

  /// inv[p] = 1.0 / denom[p]. Callers must only pass lanes that
  /// cleared zero_mask — the reference path never divides by a
  /// below-tolerance denominator.
  void (*reciprocal)(double* inv, const double* denom, size_t n);
};

/// The kernel table for `isa`; an ISA this build/CPU cannot run
/// resolves to the scalar reference table.
const PanelKernels& KernelsFor(Isa isa);

namespace internal {
/// Per-ISA tables (dispatch detail; tests reach them via KernelsFor).
const PanelKernels& ScalarKernels();
#if GEOALIGN_SIMD_X86
const PanelKernels& Avx2Kernels();
#endif
#if GEOALIGN_SIMD_NEON
const PanelKernels& NeonKernels();
#endif
}  // namespace internal

}  // namespace geoalign::sparse::simd

#endif  // GEOALIGN_SPARSE_SIMD_PANEL_KERNELS_H_
