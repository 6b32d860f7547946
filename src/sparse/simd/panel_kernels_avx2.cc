#include "sparse/simd/panel_kernels.h"

// AVX2 panel kernels: 4 double lanes per vector, unaligned loads (the
// panel arenas are contiguous but width-strided). This translation
// unit is compiled with -mavx2 (src/CMakeLists.txt) and must only be
// reached through KernelsFor, which gates on the runtime cpuid check
// in IsaSupported.
//
// Bit-identity rules (docs/parallelism.md):
//  - mul/add/div stay separate instructions (_mm256_mul_pd +
//    _mm256_add_pd, never _mm256_fmadd_pd) so each lane performs the
//    scalar reference's exact rounding sequence;
//  - "skip exact ±0.0" branches become compare-and-blend: skipped
//    lanes keep the destination's original bits, exactly like the
//    reference's branch (a forced "+ 0.0" would flip a -0.0
//    destination to +0.0);
//  - remainder lanes (n % 4) run the scalar loop verbatim.

#if GEOALIGN_SIMD_X86

#include <immintrin.h>

#include <cmath>

#include "common/float_eq.h"

namespace geoalign::sparse::simd {

namespace {

void AxpyBroadcastAvx2(double* dst, const double* w, double v, size_t n) {
  const __m256d vv = _mm256_set1_pd(v);
  size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    __m256d d = _mm256_loadu_pd(dst + p);
    __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(w + p), vv);
    _mm256_storeu_pd(dst + p, _mm256_add_pd(d, prod));
  }
  for (; p < n; ++p) dst[p] += w[p] * v;
}

void MaskedAddAvx2(double* sum, const double* acc, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    __m256d a = _mm256_loadu_pd(acc + p);
    __m256d s = _mm256_loadu_pd(sum + p);
    // Lanes where acc is exactly ±0.0 keep the ORIGINAL sum bits
    // (blend, not add-zero) — exactly the reference's skip branch,
    // even for a -0.0 destination.
    __m256d is_zero = _mm256_cmp_pd(a, zero, _CMP_EQ_OQ);
    _mm256_storeu_pd(sum + p,
                     _mm256_blendv_pd(_mm256_add_pd(s, a), s, is_zero));
  }
  for (; p < n; ++p) {
    if (!ExactlyZero(acc[p])) sum[p] += acc[p];
  }
}

void ScatterScaledAvx2(double* part, const double* acc, const double* inv,
                       const double* rscale, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    __m256d a = _mm256_loadu_pd(acc + p);
    __m256d t = _mm256_mul_pd(_mm256_mul_pd(a, _mm256_loadu_pd(inv + p)),
                              _mm256_loadu_pd(rscale + p));
    // Blending acc==±0.0 lanes back to the original partial AFTER the
    // multiply replicates the reference's skip exactly (including a
    // -0.0 destination) and keeps the 0 × inf = NaN an underflowed
    // denominator would inject out of the result.
    __m256d is_zero = _mm256_cmp_pd(a, zero, _CMP_EQ_OQ);
    __m256d d = _mm256_loadu_pd(part + p);
    _mm256_storeu_pd(part + p,
                     _mm256_blendv_pd(_mm256_add_pd(d, t), d, is_zero));
  }
  for (; p < n; ++p) {
    if (ExactlyZero(acc[p])) continue;
    part[p] += (acc[p] * inv[p]) * rscale[p];
  }
}

uint64_t ZeroMaskAvx2(const double* denom, double tol, size_t n) {
  // |x| via clearing the sign bit — bit-exact fabs for every input
  // including NaN payloads (the compare then mirrors fabs(x) <= tol).
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d tolv = _mm256_set1_pd(tol);
  uint64_t mask = 0;
  size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    __m256d mag = _mm256_andnot_pd(sign, _mm256_loadu_pd(denom + p));
    __m256d le = _mm256_cmp_pd(mag, tolv, _CMP_LE_OQ);
    mask |= static_cast<uint64_t>(
                static_cast<unsigned>(_mm256_movemask_pd(le)))
            << p;
  }
  for (; p < n; ++p) {
    if (std::fabs(denom[p]) <= tol) mask |= uint64_t{1} << p;
  }
  return mask;
}

void ReciprocalAvx2(double* inv, const double* denom, size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    // Full-precision IEEE divide — never the _mm256_rcp approximation.
    _mm256_storeu_pd(inv + p,
                     _mm256_div_pd(one, _mm256_loadu_pd(denom + p)));
  }
  for (; p < n; ++p) inv[p] = 1.0 / denom[p];
}

}  // namespace

namespace internal {

const PanelKernels& Avx2Kernels() {
  static const PanelKernels table{
      AxpyBroadcastAvx2, MaskedAddAvx2,  ScatterScaledAvx2,
      ZeroMaskAvx2,      ReciprocalAvx2,
  };
  return table;
}

}  // namespace internal

}  // namespace geoalign::sparse::simd

#endif  // GEOALIGN_SIMD_X86
