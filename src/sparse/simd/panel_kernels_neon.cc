#include "sparse/simd/panel_kernels.h"

// NEON panel kernels: 2 double lanes per vector, baseline on aarch64
// (no extra compile flags). Mirrors the AVX2 unit kernel-for-kernel;
// see panel_kernels_avx2.cc for the bit-identity rules. vmulq_f64 +
// vaddq_f64 stay separate (never vfmaq_f64) and -ffp-contract=off
// keeps the compiler from re-fusing them.

#if GEOALIGN_SIMD_NEON

#include <arm_neon.h>

#include <cmath>

#include "common/float_eq.h"

namespace geoalign::sparse::simd {

namespace {

void AxpyBroadcastNeon(double* dst, const double* w, double v, size_t n) {
  const float64x2_t vv = vdupq_n_f64(v);
  size_t p = 0;
  for (; p + 2 <= n; p += 2) {
    float64x2_t prod = vmulq_f64(vld1q_f64(w + p), vv);
    vst1q_f64(dst + p, vaddq_f64(vld1q_f64(dst + p), prod));
  }
  for (; p < n; ++p) dst[p] += w[p] * v;
}

void MaskedAddNeon(double* sum, const double* acc, size_t n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  size_t p = 0;
  for (; p + 2 <= n; p += 2) {
    float64x2_t a = vld1q_f64(acc + p);
    float64x2_t s = vld1q_f64(sum + p);
    // vceqq yields all-ones lanes where acc == ±0.0; those lanes keep
    // the ORIGINAL sum bits (select, not add-zero) — exactly the
    // reference's skip branch, even for a -0.0 destination.
    uint64x2_t is_zero = vceqq_f64(a, zero);
    vst1q_f64(sum + p, vbslq_f64(is_zero, s, vaddq_f64(s, a)));
  }
  for (; p < n; ++p) {
    if (!ExactlyZero(acc[p])) sum[p] += acc[p];
  }
}

void ScatterScaledNeon(double* part, const double* acc, const double* inv,
                       const double* rscale, size_t n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  size_t p = 0;
  for (; p + 2 <= n; p += 2) {
    float64x2_t a = vld1q_f64(acc + p);
    float64x2_t t =
        vmulq_f64(vmulq_f64(a, vld1q_f64(inv + p)), vld1q_f64(rscale + p));
    // Select the original partial back on acc==±0.0 lanes after the
    // multiply: replicates the reference's skip exactly (including a
    // -0.0 destination) and keeps 0 × inf NaNs out of the result.
    uint64x2_t is_zero = vceqq_f64(a, zero);
    float64x2_t d = vld1q_f64(part + p);
    vst1q_f64(part + p, vbslq_f64(is_zero, d, vaddq_f64(d, t)));
  }
  for (; p < n; ++p) {
    if (ExactlyZero(acc[p])) continue;
    part[p] += (acc[p] * inv[p]) * rscale[p];
  }
}

uint64_t ZeroMaskNeon(const double* denom, double tol, size_t n) {
  const float64x2_t tolv = vdupq_n_f64(tol);
  uint64_t mask = 0;
  size_t p = 0;
  for (; p + 2 <= n; p += 2) {
    float64x2_t mag = vabsq_f64(vld1q_f64(denom + p));
    uint64x2_t le = vcleq_f64(mag, tolv);
    mask |= (vgetq_lane_u64(le, 0) & 1u) << p;
    mask |= (vgetq_lane_u64(le, 1) & 1u) << (p + 1);
  }
  for (; p < n; ++p) {
    if (std::fabs(denom[p]) <= tol) mask |= uint64_t{1} << p;
  }
  return mask;
}

void ReciprocalNeon(double* inv, const double* denom, size_t n) {
  const float64x2_t one = vdupq_n_f64(1.0);
  size_t p = 0;
  for (; p + 2 <= n; p += 2) {
    // Full-precision IEEE divide — never the vrecpeq approximation.
    vst1q_f64(inv + p, vdivq_f64(one, vld1q_f64(denom + p)));
  }
  for (; p < n; ++p) inv[p] = 1.0 / denom[p];
}

}  // namespace

namespace internal {

const PanelKernels& NeonKernels() {
  static const PanelKernels table{
      AxpyBroadcastNeon, MaskedAddNeon,  ScatterScaledNeon,
      ZeroMaskNeon,      ReciprocalNeon,
  };
  return table;
}

}  // namespace internal

}  // namespace geoalign::sparse::simd

#endif  // GEOALIGN_SIMD_NEON
