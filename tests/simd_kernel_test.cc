// Differential harness for the SIMD column-panel execute kernels
// (sparse/simd/): every ISA variant KernelsFor can return on this
// machine is driven against the scalar reference implementation and
// must match BIT-FOR-BIT — comparisons go through the raw uint64
// representation, so even a +0.0/-0.0 flip fails, and ASSERTs stop at
// the first non-identical bit.
//
// Two layers:
//  1. micro-kernels: each PanelKernels entry over randomized arrays
//     (exact ±0.0 lanes, subnormals, huge/tiny magnitudes, negatives)
//     at every length that exercises both the vector body and the
//     scalar tail;
//  2. the fused panel kernel: FusedAggregatesPanel over randomized
//     shared CSR structures (empty rows, zero weights, zero aggregate
//     rows) at panel widths 1..64 including ragged tails, for every
//     DenominatorMode × ZeroRowFallback combination — each ISA against
//     the scalar panel, and every lane of the scalar panel against a
//     per-column FusedAggregatesAligned oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "common/span.h"
#include "common/string_util.h"
#include "linalg/matrix.h"
#include "sparse/coo_builder.h"
#include "sparse/csr_matrix.h"
#include "sparse/fused_execute.h"
#include "sparse/simd/isa.h"
#include "sparse/simd/panel_kernels.h"

namespace geoalign {
namespace {

namespace simd = sparse::simd;

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Bit-level equality: fails on -0.0 vs +0.0 and distinguishes NaN
// payloads, which double operator== cannot.
void ExpectBitsEqual(const double* got, const double* want, size_t n,
                     const char* what) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " diverges at lane " << i << ": got " << got[i]
        << " want " << want[i];
  }
}

void ExpectBitsEqual(const linalg::Vector& got, const linalg::Vector& want,
                     const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (!got.empty()) ExpectBitsEqual(got.data(), want.data(), got.size(), what);
}

// Adversarial double generator: exact zeros of both signs, subnormals,
// and magnitudes that make reciprocal-multiply round interestingly.
double TrickyDouble(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(-8.0, 8.0);
  switch (rng() % 16) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return 4.9406564584124654e-324;  // smallest subnormal
    case 3:
      return -4.9406564584124654e-324;
    case 4:
      return 1.0e300;
    case 5:
      return -1.0e-300;
    default:
      return unit(rng);
  }
}

std::vector<double> TrickyArray(std::mt19937_64& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = TrickyDouble(rng);
  return v;
}

// Lengths covering empty calls, the scalar tail alone, full vector
// bodies (4 = one AVX2 vector, 2 = one NEON vector), bodies plus every
// ragged tail, and the widest panel.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 31, 32, 64};

class SimdKernelTest : public ::testing::TestWithParam<simd::Isa> {};

TEST_P(SimdKernelTest, MicroKernelsMatchScalarReferenceBitForBit) {
  const simd::PanelKernels& ref = simd::KernelsFor(simd::Isa::kScalar);
  const simd::PanelKernels& kern = simd::KernelsFor(GetParam());
  std::mt19937_64 rng(0xC0FFEE ^ static_cast<uint64_t>(GetParam()));

  for (size_t n : kLengths) {
    for (int trial = 0; trial < 32; ++trial) {
      SCOPED_TRACE(StrFormat("isa=%s n=%zu trial=%d",
                             simd::IsaName(GetParam()), n, trial));

      // axpy_broadcast: dst[p] += w[p] * v
      {
        std::vector<double> w = TrickyArray(rng, n);
        double v = TrickyDouble(rng);
        std::vector<double> got = TrickyArray(rng, n);
        std::vector<double> want = got;
        kern.axpy_broadcast(got.data(), w.data(), v, n);
        ref.axpy_broadcast(want.data(), w.data(), v, n);
        ExpectBitsEqual(got.data(), want.data(), n, "axpy_broadcast");
      }

      // axpy_scalar: dst[i] += w * src[i]
      {
        double w = TrickyDouble(rng);
        std::vector<double> src = TrickyArray(rng, n);
        std::vector<double> got = TrickyArray(rng, n);
        std::vector<double> want = got;
        kern.axpy_scalar(got.data(), w, src.data(), n);
        ref.axpy_scalar(want.data(), w, src.data(), n);
        ExpectBitsEqual(got.data(), want.data(), n, "axpy_scalar");
      }

      // masked_add: sum[p] += acc[p] unless acc[p] is exactly ±0.0
      {
        std::vector<double> acc = TrickyArray(rng, n);
        std::vector<double> got = TrickyArray(rng, n);
        std::vector<double> want = got;
        kern.masked_add(got.data(), acc.data(), n);
        ref.masked_add(want.data(), acc.data(), n);
        ExpectBitsEqual(got.data(), want.data(), n, "masked_add");
      }

      // scatter_scaled: part[p] += (acc[p] * inv[p]) * rscale[p],
      // skipping exact-±0.0 acc lanes. inv lanes come from real
      // reciprocals (including inf from subnormal denominators — the
      // mask must keep 0 × inf out of the result exactly as the
      // reference does).
      {
        std::vector<double> acc = TrickyArray(rng, n);
        std::vector<double> denom = TrickyArray(rng, n);
        std::vector<double> inv(n);
        for (size_t i = 0; i < n; ++i) {
          if (denom[i] == 0.0) denom[i] = 1.5;
          inv[i] = 1.0 / denom[i];
        }
        std::vector<double> rscale = TrickyArray(rng, n);
        std::vector<double> got = TrickyArray(rng, n);
        std::vector<double> want = got;
        kern.scatter_scaled(got.data(), acc.data(), inv.data(), rscale.data(),
                            n);
        ref.scatter_scaled(want.data(), acc.data(), inv.data(), rscale.data(),
                           n);
        ExpectBitsEqual(got.data(), want.data(), n, "scatter_scaled");
      }

      // zero_mask: bit p iff |denom[p]| <= tol — boundary values
      // included (|x| == tol must count as zero, one ulp above must
      // not).
      {
        for (double tol : {0.0, 1e-12, 1.0}) {
          std::vector<double> denom = TrickyArray(rng, n);
          for (size_t i = 0; i < n && tol > 0.0; i += 3) {
            denom[i] = (i % 2 == 0) ? tol : -tol;  // exact boundary
          }
          uint64_t got = kern.zero_mask(denom.data(), tol, n);
          uint64_t want = ref.zero_mask(denom.data(), tol, n);
          ASSERT_EQ(got, want)
              << StrFormat("zero_mask(tol=%g): got %llx want %llx", tol,
                           static_cast<unsigned long long>(got),
                           static_cast<unsigned long long>(want));
        }
      }

      // reciprocal: inv[p] = 1.0 / denom[p] (nonzero lanes only, per
      // the contract; subnormals stay in — both sides must produce the
      // same inf).
      {
        std::vector<double> denom = TrickyArray(rng, n);
        for (double& d : denom) {
          if (d == 0.0) d = -3.25;
        }
        std::vector<double> got(n), want(n);
        kern.reciprocal(got.data(), denom.data(), n);
        ref.reciprocal(want.data(), denom.data(), n);
        ExpectBitsEqual(got.data(), want.data(), n, "reciprocal");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, SimdKernelTest,
                         ::testing::ValuesIn(simd::SupportedIsas()),
                         [](const auto& info) {
                           return simd::IsaName(info.param);
                         });

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndForcedIsaClamps) {
  EXPECT_TRUE(simd::IsaSupported(simd::Isa::kScalar));
  std::vector<simd::Isa> isas = simd::SupportedIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::kScalar);
  for (simd::Isa isa : isas) EXPECT_TRUE(simd::IsaSupported(isa));
  EXPECT_TRUE(simd::IsaSupported(simd::BestSupportedIsa()));

  // ScopedForceIsa overrides ActiveIsa and restores on scope exit;
  // an unsupported request clamps to scalar instead of crashing.
  simd::Isa before = simd::ActiveIsa();
  {
    simd::ScopedForceIsa force(simd::Isa::kScalar);
    EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
    {
      simd::ScopedForceIsa nested(simd::BestSupportedIsa());
      EXPECT_EQ(simd::ActiveIsa(), simd::BestSupportedIsa());
    }
    EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
#if !GEOALIGN_SIMD_NEON
    simd::ScopedForceIsa unsupported(simd::Isa::kNeon);
    EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
#endif
  }
  EXPECT_EQ(simd::ActiveIsa(), before);

  for (simd::Isa isa : isas) {
    EXPECT_STRNE(simd::IsaName(isa), "");
  }
}

// ---------------------------------------------------------------------------
// Fused panel kernel: randomized shared-structure worlds.

struct PanelWorld {
  std::vector<sparse::CsrMatrix> mats;  // aligned (one shared structure)
  std::vector<const sparse::CsrMatrix*> mat_ptrs;
  std::vector<linalg::Vector> aggs;  // per-operand source aggregates
  std::vector<common::ColumnView> agg_views;
  sparse::CsrMatrix fallback;
  linalg::Vector fallback_sums;
  // kMaxPanelWidth objective columns and a full operands × kMaxPanelWidth
  // weight grid; calls repack the first `width` lanes at stride `width`.
  std::vector<linalg::Vector> objectives;
  std::vector<double> weight_grid;
  size_t rows = 0;
  size_t cols = 0;
  sparse::FusedWorkspace::Spec spec;
};

PanelWorld MakePanelWorld(uint64_t seed, size_t rows, size_t cols,
                          size_t operands) {
  PanelWorld w;
  w.rows = rows;
  w.cols = cols;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> val(-4.0, 4.0);

  // Shared structure: every 5th row empty (no entries at all — the
  // kFromDmRowSums zero-row case), otherwise a random nonempty column
  // subset.
  std::vector<std::vector<size_t>> row_cols(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (r % 5 == 3) continue;  // empty row
    for (size_t c = 0; c < cols; ++c) {
      if (unit(rng) < 0.35) row_cols[r].push_back(c);
    }
    if (row_cols[r].empty()) row_cols[r].push_back(r % cols);
  }

  for (size_t mi = 0; mi < operands; ++mi) {
    sparse::CooBuilder builder(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c : row_cols[r]) {
        double v = val(rng);
        if (v == 0.0) v = 0.5;
        builder.Add(r, c, v);
      }
    }
    w.mats.push_back(builder.Build());
  }
  for (const sparse::CsrMatrix& m : w.mats) w.mat_ptrs.push_back(&m);

  // Aggregates: every 7th row zero across ALL operands (the
  // kFromAggregates zero-row case), the rest random (negatives kept:
  // the denominators are arithmetic, not domain-validated, here).
  for (size_t mi = 0; mi < operands; ++mi) {
    linalg::Vector agg(rows, 0.0);
    for (size_t r = 0; r < rows; ++r) {
      if (r % 7 == 2) continue;
      agg[r] = val(rng) + 5.0;
    }
    w.aggs.push_back(std::move(agg));
  }
  for (const linalg::Vector& a : w.aggs) w.agg_views.push_back(a);

  // Fallback DM: support on most rows, but deliberately none on some
  // (a zero row without fallback support loses its mass — both paths
  // must agree on that too).
  {
    sparse::CooBuilder builder(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      if (r % 10 == 3) continue;  // no fallback support
      builder.Add(r, r % cols, 1.0 + unit(rng));
      builder.Add(r, (r + 3) % cols, 0.5 + unit(rng));
    }
    w.fallback = builder.Build();
    w.fallback_sums = w.fallback.RowSums();
  }

  // Objectives: random with exact zeros sprinkled (a zero row scale is
  // the ScaleRows-of-zero case).
  for (size_t p = 0; p < simd::kMaxPanelWidth; ++p) {
    linalg::Vector obj(rows, 0.0);
    for (size_t r = 0; r < rows; ++r) {
      obj[r] = (unit(rng) < 0.1) ? 0.0 : val(rng) + 6.0;
    }
    w.objectives.push_back(std::move(obj));
  }

  // Weight grid: exact zeros per lane AND one operand zero across all
  // lanes of the upper half (the active-operand filter must stay
  // bit-neutral for lanes where an active operand's weight is zero).
  w.weight_grid.assign(operands * simd::kMaxPanelWidth, 0.0);
  for (size_t mi = 0; mi < operands; ++mi) {
    for (size_t p = 0; p < simd::kMaxPanelWidth; ++p) {
      double v = (unit(rng) < 0.2) ? 0.0 : unit(rng) * 2.0;
      if (mi == operands - 1 && p >= simd::kMaxPanelWidth / 2) v = 0.0;
      w.weight_grid[mi * simd::kMaxPanelWidth + p] = v;
    }
  }

  w.spec = sparse::FusedWorkspace::ComputeSpec(w.mats[0], operands);
  return w;
}

// Runs FusedAggregatesPanel on the first `width` lanes of `w` under
// `isa`, into `targets`/`zeros` (resized to width).
void RunPanel(const PanelWorld& w, size_t width, simd::Isa isa,
              bool from_aggregates, bool with_fallback, double tol,
              sparse::FusedWorkspace* ws, std::vector<linalg::Vector>* targets,
              std::vector<std::vector<size_t>>* zeros) {
  std::vector<double> lane_weights(w.mats.size() * width);
  for (size_t mi = 0; mi < w.mats.size(); ++mi) {
    for (size_t p = 0; p < width; ++p) {
      lane_weights[mi * width + p] =
          w.weight_grid[mi * simd::kMaxPanelWidth + p];
    }
  }
  std::vector<common::ColumnView> row_scales(width);
  targets->assign(width, linalg::Vector());
  zeros->assign(width, {});
  std::vector<linalg::Vector*> target_ptrs(width);
  std::vector<std::vector<size_t>*> zero_ptrs(width);
  for (size_t p = 0; p < width; ++p) {
    row_scales[p] = w.objectives[p];
    target_ptrs[p] = &(*targets)[p];
    zero_ptrs[p] = &(*zeros)[p];
  }
  sparse::FusedPanelInputs in;
  in.mats = &w.mat_ptrs;
  in.lane_weights = lane_weights.data();
  in.width = width;
  in.row_scales = row_scales.data();
  if (from_aggregates) in.operand_aggregates = w.agg_views.data();
  in.zero_tolerance = tol;
  if (with_fallback) {
    in.fallback_dm = &w.fallback;
    in.fallback_row_sums = &w.fallback_sums;
  }
  ASSERT_TRUE(sparse::FusedAggregatesPanel(in, w.spec, isa, target_ptrs.data(),
                                           zero_ptrs.data(), ws)
                  .ok());
}

// The single-column oracle for lane p: FusedAggregatesAligned with the
// lane's weight vector and (for kFromAggregates) denominators hoisted
// by the same skip-zero Axpy loop the plan uses.
void RunSingleColumnOracle(const PanelWorld& w, size_t p, size_t width,
                           bool from_aggregates, bool with_fallback,
                           double tol, linalg::Vector* target,
                           std::vector<size_t>* zeros) {
  linalg::Vector weights(w.mats.size(), 0.0);
  for (size_t mi = 0; mi < w.mats.size(); ++mi) {
    weights[mi] = w.weight_grid[mi * simd::kMaxPanelWidth + p];
  }
  (void)width;
  sparse::FusedAggregatesInputs in;
  in.mats = &w.mat_ptrs;
  in.weights = &weights;
  linalg::Vector denom(w.rows, 0.0);
  if (from_aggregates) {
    for (size_t mi = 0; mi < w.mats.size(); ++mi) {
      if (weights[mi] == 0.0) continue;
      for (size_t r = 0; r < w.rows; ++r) {
        denom[r] += weights[mi] * w.aggs[mi][r];
      }
    }
    in.denominators = &denom;
  }
  in.zero_tolerance = tol;
  in.row_scale = w.objectives[p];
  if (with_fallback) {
    in.fallback_dm = &w.fallback;
    in.fallback_row_sums = &w.fallback_sums;
  }
  sparse::FusedWorkspace ws;
  target->clear();
  zeros->clear();
  ASSERT_TRUE(
      sparse::FusedAggregatesAligned(in, w.spec, target, zeros, &ws).ok());
}

// Panel widths: 1 (degenerate), every vector-lane multiple, and ragged
// tails against both the 4-lane (AVX2) and 2-lane (NEON) vector widths.
const size_t kPanelWidths[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32, 64};

TEST(FusedPanelDifferentialTest, AllIsasAllModesAllWidthsBitIdentical) {
  for (uint64_t seed : {11u, 29u, 83u}) {
    PanelWorld w = MakePanelWorld(seed, /*rows=*/41, /*cols=*/23,
                                  /*operands=*/3);
    for (bool from_aggregates : {false, true}) {
      for (bool with_fallback : {false, true}) {
        for (size_t width : kPanelWidths) {
          SCOPED_TRACE(StrFormat("seed=%llu agg=%d fb=%d width=%zu",
                                 static_cast<unsigned long long>(seed),
                                 from_aggregates ? 1 : 0,
                                 with_fallback ? 1 : 0, width));
          sparse::FusedWorkspace scalar_ws;
          std::vector<linalg::Vector> scalar_targets;
          std::vector<std::vector<size_t>> scalar_zeros;
          RunPanel(w, width, simd::Isa::kScalar, from_aggregates,
                   with_fallback, /*tol=*/0.0, &scalar_ws, &scalar_targets,
                   &scalar_zeros);

          // Scalar panel vs the single-column kernel, lane by lane:
          // panel blocking must never change a bit or a zero-row list.
          for (size_t p = 0; p < width; ++p) {
            SCOPED_TRACE(StrFormat("lane=%zu", p));
            linalg::Vector want;
            std::vector<size_t> want_zeros;
            RunSingleColumnOracle(w, p, width, from_aggregates, with_fallback,
                                  /*tol=*/0.0, &want, &want_zeros);
            ExpectBitsEqual(scalar_targets[p], want, "panel vs single-column");
            ASSERT_EQ(scalar_zeros[p], want_zeros);
          }

          // Every other dispatched ISA vs the scalar panel.
          for (simd::Isa isa : simd::SupportedIsas()) {
            if (isa == simd::Isa::kScalar) continue;
            SCOPED_TRACE(simd::IsaName(isa));
            sparse::FusedWorkspace isa_ws;
            std::vector<linalg::Vector> isa_targets;
            std::vector<std::vector<size_t>> isa_zeros;
            RunPanel(w, width, isa, from_aggregates, with_fallback,
                     /*tol=*/0.0, &isa_ws, &isa_targets, &isa_zeros);
            for (size_t p = 0; p < width; ++p) {
              SCOPED_TRACE(StrFormat("lane=%zu", p));
              ExpectBitsEqual(isa_targets[p], scalar_targets[p],
                              "isa vs scalar panel");
              ASSERT_EQ(isa_zeros[p], scalar_zeros[p]);
            }
          }
        }
      }
    }
  }
}

TEST(FusedPanelDifferentialTest, PositiveToleranceZeroRowsBitIdentical) {
  // |denominator| <= tol rows must be classified identically by the
  // vectorized zero_mask and the scalar fabs comparison, including
  // denominators exactly at the boundary.
  PanelWorld w = MakePanelWorld(/*seed=*/7, /*rows=*/29, /*cols=*/17,
                                /*operands=*/2);
  for (double tol : {1e-9, 0.5, 10.0}) {
    for (bool from_aggregates : {false, true}) {
      for (size_t width : {size_t{1}, size_t{5}, size_t{16}, size_t{64}}) {
        SCOPED_TRACE(StrFormat("tol=%g agg=%d width=%zu", tol,
                               from_aggregates ? 1 : 0, width));
        sparse::FusedWorkspace scalar_ws;
        std::vector<linalg::Vector> scalar_targets;
        std::vector<std::vector<size_t>> scalar_zeros;
        RunPanel(w, width, simd::Isa::kScalar, from_aggregates,
                 /*with_fallback=*/true, tol, &scalar_ws, &scalar_targets,
                 &scalar_zeros);
        for (size_t p = 0; p < width; ++p) {
          SCOPED_TRACE(StrFormat("lane=%zu", p));
          linalg::Vector want;
          std::vector<size_t> want_zeros;
          RunSingleColumnOracle(w, p, width, from_aggregates,
                                /*with_fallback=*/true, tol, &want,
                                &want_zeros);
          ExpectBitsEqual(scalar_targets[p], want, "panel vs single-column");
          ASSERT_EQ(scalar_zeros[p], want_zeros);
        }
        for (simd::Isa isa : simd::SupportedIsas()) {
          if (isa == simd::Isa::kScalar) continue;
          sparse::FusedWorkspace isa_ws;
          std::vector<linalg::Vector> isa_targets;
          std::vector<std::vector<size_t>> isa_zeros;
          RunPanel(w, width, isa, from_aggregates, /*with_fallback=*/true,
                   tol, &isa_ws, &isa_targets, &isa_zeros);
          for (size_t p = 0; p < width; ++p) {
            ExpectBitsEqual(isa_targets[p], scalar_targets[p],
                            "isa vs scalar panel");
            ASSERT_EQ(isa_zeros[p], scalar_zeros[p]);
          }
        }
      }
    }
  }
}

TEST(FusedPanelDifferentialTest, PreparedWorkspaceRunsWithZeroGrowth) {
  // The steady-state promise at the kernel layer: a workspace that ran
  // one panel reruns the same shape without a single buffer growth.
  PanelWorld w = MakePanelWorld(/*seed=*/42, /*rows=*/31, /*cols=*/19,
                                /*operands=*/3);
  for (simd::Isa isa : simd::SupportedIsas()) {
    SCOPED_TRACE(simd::IsaName(isa));
    sparse::FusedWorkspace ws;
    std::vector<linalg::Vector> targets;
    std::vector<std::vector<size_t>> zeros;
    RunPanel(w, /*width=*/16, isa, /*from_aggregates=*/true,
             /*with_fallback=*/true, /*tol=*/0.0, &ws, &targets, &zeros);
    uint64_t after_first = ws.alloc_events();
    RunPanel(w, /*width=*/16, isa, /*from_aggregates=*/true,
             /*with_fallback=*/true, /*tol=*/0.0, &ws, &targets, &zeros);
    EXPECT_EQ(ws.alloc_events(), after_first)
        << "second identical panel must not grow any buffer";
    // Narrower panels fit in the prepared arenas too.
    RunPanel(w, /*width=*/7, isa, /*from_aggregates=*/true,
             /*with_fallback=*/true, /*tol=*/0.0, &ws, &targets, &zeros);
    EXPECT_EQ(ws.alloc_events(), after_first);
  }
}

TEST(FusedPanelDifferentialTest, RejectsMalformedInputs) {
  PanelWorld w = MakePanelWorld(/*seed=*/3, /*rows=*/11, /*cols=*/7,
                                /*operands=*/2);
  std::vector<double> lane_weights(w.mats.size(), 1.0);
  linalg::Vector target;
  std::vector<size_t> zeros;
  linalg::Vector* target_ptr = &target;
  std::vector<size_t>* zero_ptr = &zeros;
  const common::ColumnView scale_view = w.objectives[0];
  sparse::FusedWorkspace ws;

  sparse::FusedPanelInputs in;
  in.mats = &w.mat_ptrs;
  in.lane_weights = lane_weights.data();
  in.width = 1;
  in.row_scales = &scale_view;

  // Width 0 and width > kMaxPanelWidth are rejected.
  sparse::FusedPanelInputs bad = in;
  bad.width = 0;
  EXPECT_FALSE(sparse::FusedAggregatesPanel(bad, w.spec, simd::Isa::kScalar,
                                            &target_ptr, &zero_ptr, &ws)
                   .ok());
  bad.width = simd::kMaxPanelWidth + 1;
  EXPECT_FALSE(sparse::FusedAggregatesPanel(bad, w.spec, simd::Isa::kScalar,
                                            &target_ptr, &zero_ptr, &ws)
                   .ok());

  // Null workspace / weights / row_scales are rejected, not crashed on.
  EXPECT_FALSE(sparse::FusedAggregatesPanel(in, w.spec, simd::Isa::kScalar,
                                            &target_ptr, &zero_ptr, nullptr)
                   .ok());
  bad = in;
  bad.lane_weights = nullptr;
  EXPECT_FALSE(sparse::FusedAggregatesPanel(bad, w.spec, simd::Isa::kScalar,
                                            &target_ptr, &zero_ptr, &ws)
                   .ok());
  bad = in;
  bad.row_scales = nullptr;
  EXPECT_FALSE(sparse::FusedAggregatesPanel(bad, w.spec, simd::Isa::kScalar,
                                            &target_ptr, &zero_ptr, &ws)
                   .ok());

  // A fallback DM without its row sums (or vice versa) is rejected.
  bad = in;
  bad.fallback_dm = &w.fallback;
  bad.fallback_row_sums = nullptr;
  EXPECT_FALSE(sparse::FusedAggregatesPanel(bad, w.spec, simd::Isa::kScalar,
                                            &target_ptr, &zero_ptr, &ws)
                   .ok());

  // The well-formed baseline passes (guards the EXPECT_FALSEs above
  // against a kernel that rejects everything).
  EXPECT_TRUE(sparse::FusedAggregatesPanel(in, w.spec, simd::Isa::kScalar,
                                           &target_ptr, &zero_ptr, &ws)
                  .ok());
}

}  // namespace
}  // namespace geoalign
