// UBSan regression coverage (docs/static_analysis.md).
//
// These tests pin down the edge paths most likely to hide latent UB —
// zero denominators, empty shapes, degenerate solver inputs — and are
// expected to run in the UBSan leg of tools/ci.sh, where
// -fno-sanitize-recover=all turns any division-by-zero, overflow, or
// out-of-bounds access on these paths into a hard test failure. They
// also assert the documented fallback *values*, so they are meaningful
// (if weaker) in non-sanitized builds.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "linalg/simplex_ls.h"
#include "sparse/coo_builder.h"
#include "sparse/csr_matrix.h"
#include "sparse/sparse_ops.h"

namespace geoalign {
namespace {

using linalg::Matrix;
using linalg::SolveSimplexLeastSquares;
using linalg::Vector;
using sparse::CooBuilder;
using sparse::CsrMatrix;

CsrMatrix Dense3x2() {
  CooBuilder b(3, 2);
  b.Add(0, 0, 2.0);
  b.Add(0, 1, 4.0);
  b.Add(1, 0, -1.0);
  b.Add(2, 1, 8.0);
  return b.Build();
}

// Eq. 14 "otherwise 0" branch: rows whose denominator is (absolutely)
// within zero_tol must come back entirely zero, not divided by zero.
TEST(UbsanRegression, DivideRowsOrZeroZeroDenominator) {
  CsrMatrix m = Dense3x2();
  Vector denom = {2.0, 0.0, -0.0};  // exact zero and negative zero
  std::vector<size_t> zero_rows;
  sparse::DivideRowsOrZero(m, denom, /*zero_tol=*/0.0, &zero_rows);
  EXPECT_EQ(zero_rows, (std::vector<size_t>{1, 2}));
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 0.0);
}

TEST(UbsanRegression, DivideRowsOrZeroSubTolerance) {
  CsrMatrix m = Dense3x2();
  // Denominators below the tolerance must take the zero branch even
  // though 1.0 / denom would be finite (if enormous).
  Vector denom = {1e-30, 1.0, 1e-30};
  std::vector<size_t> zero_rows;
  sparse::DivideRowsOrZero(m, denom, /*zero_tol=*/1e-12, &zero_rows);
  EXPECT_EQ(zero_rows, (std::vector<size_t>{0, 2}));
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), -1.0);
}

TEST(UbsanRegression, DivideRowsOrZeroAllZeroAndEmpty) {
  CsrMatrix all = Dense3x2();
  Vector zeros(3, 0.0);
  std::vector<size_t> zero_rows;
  sparse::DivideRowsOrZero(all, zeros, 0.0, &zero_rows);
  EXPECT_EQ(zero_rows, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(all.nnz(), 0u);  // fully pruned

  CsrMatrix empty(0, 4);
  Vector no_denom;
  std::vector<size_t> none;
  sparse::DivideRowsOrZero(empty, no_denom, 0.0, &none);
  EXPECT_TRUE(none.empty());
}

// DivideRowsOrZero runs on whichever thread calls it; copies run from
// pool workers by a task fan-out must agree with the calling-thread
// run on the degenerate inputs too, not only on the benchmark shapes.
TEST(UbsanRegression, DivideRowsOrZeroParallelMatchesSequential) {
  Vector denom = {2.0, 0.0, 1e-30};
  CsrMatrix seq = Dense3x2();
  std::vector<size_t> seq_zero;
  sparse::DivideRowsOrZero(seq, denom, 1e-12, &seq_zero);
  EXPECT_EQ(seq_zero, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(seq.nnz(), 2u);
  EXPECT_DOUBLE_EQ(seq.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(seq.At(0, 1), 2.0);

  constexpr size_t kTasks = 8;
  common::ThreadPool pool(4);
  std::vector<CsrMatrix> par(kTasks, Dense3x2());
  std::vector<std::vector<size_t>> par_zero(kTasks);
  common::ParallelForChunks(&pool, kTasks, [&](size_t t) {
    sparse::DivideRowsOrZero(par[t], denom, 1e-12, &par_zero[t]);
  });

  for (size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(seq_zero, par_zero[t]) << "task " << t;
    ASSERT_EQ(seq.nnz(), par[t].nnz()) << "task " << t;
    EXPECT_EQ(seq.values(), par[t].values()) << "task " << t;
  }
}

// Simplex solver (Eq. 15) degenerate shapes: every early-exit must be
// a clean Status, never an out-of-bounds Gram access or 0/0.
TEST(UbsanRegression, SimplexRejectsDegenerateShapes) {
  Matrix empty;
  EXPECT_FALSE(SolveSimplexLeastSquares(empty, {}).ok());

  Matrix no_cols(3, 0);
  EXPECT_FALSE(SolveSimplexLeastSquares(no_cols, {1.0, 2.0, 3.0}).ok());

  Matrix mismatched(3, 2);
  EXPECT_FALSE(SolveSimplexLeastSquares(mismatched, {1.0}).ok());
}

TEST(UbsanRegression, SimplexZeroMatrixAndZeroRhs) {
  // All-zero design: any simplex point is optimal; the solver must
  // still terminate at a feasible point without dividing by the zero
  // Gram diagonal.
  Matrix zero_a(2, 2);
  auto zero_sol = SolveSimplexLeastSquares(zero_a, {0.0, 0.0});
  ASSERT_TRUE(zero_sol.ok());
  double sum = 0.0;
  for (double v : zero_sol->beta) {
    EXPECT_GE(v, -1e-12);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);

  // Zero rhs with a real design: optimum is the simplex point of
  // minimum norm in A's metric; residual must be finite, not NaN.
  Matrix a = Matrix::FromColumns({{1.0, 0.0}, {0.0, 2.0}});
  auto sol = SolveSimplexLeastSquares(a, {0.0, 0.0});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(std::isfinite(sol->residual_norm));
  EXPECT_NEAR(sol->beta[0] + sol->beta[1], 1.0, 1e-9);
}

TEST(UbsanRegression, SimplexIdenticalColumnsSingularKkt) {
  // Every column identical: the KKT system is maximally singular and
  // the ridge fallback carries the whole solve.
  Matrix a = Matrix::FromColumns({{1.0, 2.0}, {1.0, 2.0}, {1.0, 2.0}});
  auto sol = SolveSimplexLeastSquares(a, {1.0, 2.0});
  ASSERT_TRUE(sol.ok());
  double sum = 0.0;
  for (double v : sol->beta) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(sol->residual_norm, 0.0, 1e-6);
}

TEST(UbsanRegression, SimplexSingleRowWideMatrix) {
  // One observation, many references — heavily underdetermined.
  Matrix a = Matrix::FromColumns({{2.0}, {3.0}, {5.0}});
  auto sol = SolveSimplexLeastSquares(a, {4.0});
  ASSERT_TRUE(sol.ok());
  double sum = 0.0;
  double fit = 0.0;
  for (size_t k = 0; k < sol->beta.size(); ++k) {
    sum += sol->beta[k];
    fit += sol->beta[k] * a(0, k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(fit, 4.0, 1e-8);
}

}  // namespace
}  // namespace geoalign
