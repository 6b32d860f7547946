#include <cmath>

#include "common/float_eq.h"
#include "sparse/simd/panel_kernels.h"

// The scalar reference implementation: the ground truth every
// vectorized table is proven against (tests/simd_kernel_test.cc), and
// the table dispatch falls back to. These loops are the per-lane
// semantics — the AVX2/NEON units replicate them 4/2 lanes at a time
// with the same operand order and no contraction (-ffp-contract=off
// project-wide keeps the compiler from fusing a*b+c here either).

namespace geoalign::sparse::simd {

namespace {

void AxpyBroadcastScalar(double* dst, const double* w, double v, size_t n) {
  for (size_t p = 0; p < n; ++p) dst[p] += w[p] * v;
}

void AxpyScalarScalar(double* dst, double w, const double* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += w * src[i];
}

void MaskedAddScalar(double* sum, const double* acc, size_t n) {
  for (size_t p = 0; p < n; ++p) {
    if (!ExactlyZero(acc[p])) sum[p] += acc[p];
  }
}

void ScatterScaledScalar(double* part, const double* acc, const double* inv,
                         const double* rscale, size_t n) {
  for (size_t p = 0; p < n; ++p) {
    if (ExactlyZero(acc[p])) continue;
    part[p] += (acc[p] * inv[p]) * rscale[p];
  }
}

uint64_t ZeroMaskScalar(const double* denom, double tol, size_t n) {
  uint64_t mask = 0;
  for (size_t p = 0; p < n; ++p) {
    if (std::fabs(denom[p]) <= tol) mask |= uint64_t{1} << p;
  }
  return mask;
}

void ReciprocalScalar(double* inv, const double* denom, size_t n) {
  for (size_t p = 0; p < n; ++p) inv[p] = 1.0 / denom[p];
}

}  // namespace

namespace internal {

const PanelKernels& ScalarKernels() {
  static const PanelKernels table{
      AxpyBroadcastScalar, AxpyScalarScalar, MaskedAddScalar,
      ScatterScaledScalar, ZeroMaskScalar,   ReciprocalScalar,
  };
  return table;
}

}  // namespace internal

const PanelKernels& KernelsFor(Isa isa) {
  if (!IsaSupported(isa)) return internal::ScalarKernels();
  switch (isa) {
#if GEOALIGN_SIMD_X86
    case Isa::kAvx2:
      return internal::Avx2Kernels();
#endif
#if GEOALIGN_SIMD_NEON
    case Isa::kNeon:
      return internal::NeonKernels();
#endif
    default:
      return internal::ScalarKernels();
  }
}

}  // namespace geoalign::sparse::simd
