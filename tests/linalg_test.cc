// Unit tests for the dense linear algebra substrate: vector ops,
// matrices, factorizations, and the constrained least-squares solvers
// behind GeoAlign's weight learning.

#include <gtest/gtest.h>

#include <limits>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/nnls.h"
#include "linalg/qr.h"
#include "linalg/simplex_ls.h"
#include "linalg/stats.h"
#include "linalg/vector_ops.h"

namespace geoalign::linalg {
namespace {

TEST(VectorOps, DotNormSum) {
  Vector a = {1.0, 2.0, 3.0};
  Vector b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(Norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(NormInf(b), 6.0);
  EXPECT_DOUBLE_EQ(Sum(a), 6.0);
  EXPECT_DOUBLE_EQ(Mean(a), 2.0);
  EXPECT_DOUBLE_EQ(Max(b), 6.0);
  EXPECT_DOUBLE_EQ(Min(b), -5.0);
}

TEST(VectorOps, AxpyScaleAddSub) {
  Vector x = {1.0, 2.0};
  Vector y = {10.0, 20.0};
  Axpy(2.0, x, y);
  EXPECT_EQ(y, (Vector{12.0, 24.0}));
  Scale(y, 0.5);
  EXPECT_EQ(y, (Vector{6.0, 12.0}));
  EXPECT_EQ(Add(x, x), (Vector{2.0, 4.0}));
  EXPECT_EQ(Sub(y, x), (Vector{5.0, 10.0}));
}

TEST(VectorOps, NormalizeByMax) {
  auto n = NormalizeByMax({2.0, 4.0, 1.0});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, (Vector{0.5, 1.0, 0.25}));
}

TEST(VectorOps, NormalizeByMaxRejectsBadInput) {
  EXPECT_FALSE(NormalizeByMax({}).ok());
  EXPECT_FALSE(NormalizeByMax({0.0, 0.0}).ok());
  EXPECT_FALSE(NormalizeByMax({1.0, -2.0}).ok());
}

TEST(VectorOps, NormalizeByMaxRejectsNonFinite) {
  // NaN compares false with everything, so it would slip past a sign
  // check and a max; ±Inf would turn into Inf/NaN estimates.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNan, kInf, -kInf}) {
    for (size_t pos = 0; pos < 3; ++pos) {
      Vector v = {1.0, 2.0, 3.0};
      v[pos] = bad;
      auto n = NormalizeByMax(v);
      ASSERT_FALSE(n.ok()) << bad << " at " << pos;
      EXPECT_EQ(n.status().message(),
                "NormalizeByMax: non-finite aggregate encountered");
    }
  }
}

TEST(VectorOps, AllClose) {
  EXPECT_TRUE(AllClose({1.0, 2.0}, {1.0 + 1e-12, 2.0}, 1e-9));
  EXPECT_FALSE(AllClose({1.0, 2.0}, {1.1, 2.0}, 1e-9));
  EXPECT_FALSE(AllClose({1.0}, {1.0, 2.0}, 1e-9));
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m = Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  EXPECT_EQ(m.Row(1), (Vector{3.0, 4.0}));
  EXPECT_EQ(m.Col(0), (Vector{1.0, 3.0, 5.0}));
}

TEST(Matrix, FromColumnsMatchesTranspose) {
  Matrix a = Matrix::FromColumns({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
  EXPECT_TRUE(a.Transposed().AllClose(
      Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}}), 0.0));
}

TEST(Matrix, MatVecAndMatMul) {
  Matrix m = Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m.MatVec({1.0, 1.0}), (Vector{3.0, 7.0}));
  EXPECT_EQ(m.MatTVec({1.0, 1.0}), (Vector{4.0, 6.0}));
  Matrix sq = m.MatMul(m);
  EXPECT_TRUE(sq.AllClose(Matrix::FromRows({{7.0, 10.0}, {15.0, 22.0}}),
                          1e-12));
}

TEST(Matrix, GramIsAtA) {
  Matrix m = Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  Matrix g = m.Gram();
  Matrix expected = m.Transposed().MatMul(m);
  EXPECT_TRUE(g.AllClose(expected, 1e-12));
}

// The column kernels behind the simplex solve's normal equations carry
// exactly Matrix::Gram's and MatTVec's bits, for every column count
// (so every register-tile remainder runs) and every row count up to
// past one row block.
TEST(Matrix, ColumnKernelsMatchRowMajorBitForBit) {
  Rng rng(29);
  auto draw = [&rng] {
    return rng.Uniform(-1.0, 1.0) *
           std::ldexp(1.0, static_cast<int>(rng.UniformInt(uint64_t{61})) - 30);
  };
  std::vector<size_t> row_counts;
  for (size_t rows = 0; rows <= 67; ++rows) row_counts.push_back(rows);
  for (size_t rows : {127, 128, 129, 300}) row_counts.push_back(rows);
  auto same_bits = [](const Vector& a, const Vector& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  for (size_t n = 1; n <= 13; ++n) {
    for (size_t rows : row_counts) {
      SCOPED_TRACE(::testing::Message() << n << " columns x " << rows << " rows");
      std::vector<Vector> cols(n, Vector(rows));
      for (Vector& col : cols) {
        for (double& v : col) v = draw();
      }
      Vector b(rows);
      for (double& v : b) v = draw();
      const std::vector<VectorView> views(cols.begin(), cols.end());
      const Matrix a = Matrix::FromColumns(cols);

      const Matrix gram = GramOfColumns(views);
      ASSERT_EQ(gram.rows(), n);
      ASSERT_EQ(gram.cols(), n);
      EXPECT_TRUE(same_bits(gram.data(), a.Gram().data()));
      EXPECT_TRUE(same_bits(ColumnsTVec(views, b), a.MatTVec(b)));
    }
  }
}

TEST(Matrix, IdentityAndFrobenius) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id.FrobeniusNorm(), std::sqrt(3.0));
  EXPECT_EQ(id.MatVec({1.0, 2.0, 3.0}), (Vector{1.0, 2.0, 3.0}));
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a = Matrix::FromRows({{2.0, 1.0}, {1.0, 3.0}});
  auto x = SolveLinearSystem(a, {5.0, 10.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  Matrix a = Matrix::FromRows({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_FALSE(LuFactorization::Compute(a).ok());
}

TEST(Lu, RequiresSquare) {
  Matrix a(2, 3);
  EXPECT_FALSE(LuFactorization::Compute(a).ok());
}

TEST(Lu, DeterminantWithPivoting) {
  Matrix a = Matrix::FromRows({{0.0, 1.0}, {1.0, 0.0}});
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu->Determinant(), -1.0, 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 1 + rng.UniformInt(uint64_t{8});
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) a(i, j) = rng.Gaussian(0.0, 1.0);
      a(i, i) += 4.0;  // diagonally dominant, well conditioned
    }
    Vector x_true(n);
    for (double& v : x_true) v = rng.Gaussian(0.0, 2.0);
    Vector b = a.MatVec(x_true);
    auto x = SolveLinearSystem(a, b);
    ASSERT_TRUE(x.ok());
    EXPECT_TRUE(AllClose(*x, x_true, 1e-8)) << "trial " << trial;
  }
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  Matrix a = Matrix::FromRows(
      {{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}, {1.0, 4.0}});
  Vector b = {6.0, 5.0, 7.0, 10.0};
  auto x = LeastSquaresQr(a, b);
  ASSERT_TRUE(x.ok());
  // Classic regression: intercept 3.5, slope 1.4.
  EXPECT_NEAR((*x)[0], 3.5, 1e-10);
  EXPECT_NEAR((*x)[1], 1.4, 1e-10);
}

TEST(Qr, ExactSolveWhenConsistent) {
  Rng rng(31);
  Matrix a(6, 3);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 3; ++j) a(i, j) = rng.Gaussian(0.0, 1.0);
  }
  Vector x_true = {1.0, -2.0, 0.5};
  Vector b = a.MatVec(x_true);
  auto x = LeastSquaresQr(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(AllClose(*x, x_true, 1e-9));
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a = Matrix::FromRows({{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}});
  EXPECT_FALSE(LeastSquaresQr(a, {1.0, 2.0, 3.0}).ok());
}

TEST(Qr, RequiresTallMatrix) {
  Matrix a(2, 3);
  EXPECT_FALSE(QrFactorization::Compute(a).ok());
}

TEST(Nnls, UnconstrainedOptimumAlreadyNonNegative) {
  Matrix a = Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}});
  Vector b = {1.0, 2.0, 3.0};
  auto sol = SolveNnls(a, b);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->x[0], 1.0, 1e-8);
  EXPECT_NEAR(sol->x[1], 2.0, 1e-8);
}

TEST(Nnls, ClampsNegativeComponent) {
  // Unconstrained LS would want a negative coefficient on column 1.
  Matrix a = Matrix::FromRows({{1.0, 1.0}, {0.0, 1.0}});
  Vector b = {1.0, -2.0};
  auto sol = SolveNnls(a, b);
  ASSERT_TRUE(sol.ok());
  for (double v : sol->x) EXPECT_GE(v, 0.0);
  // Best non-negative solution: x2 = 0, x1 = 1.
  EXPECT_NEAR(sol->x[0], 1.0, 1e-8);
  EXPECT_NEAR(sol->x[1], 0.0, 1e-8);
}

TEST(Nnls, ZeroRhsGivesZero) {
  Matrix a = Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  auto sol = SolveNnls(a, {0.0, 0.0});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(Norm2(sol->x), 0.0, 1e-12);
}

double SimplexObjective(const Matrix& a, const Vector& b, const Vector& beta) {
  return Norm2(Sub(a.MatVec(beta), b));
}

TEST(SimplexLs, RecoversExactConvexCombination) {
  // b is exactly 0.3*col0 + 0.7*col1.
  Matrix a = Matrix::FromColumns(
      {{1.0, 0.0, 2.0, 1.0}, {0.0, 1.0, 1.0, 3.0}});
  Vector beta_true = {0.3, 0.7};
  Vector b = a.MatVec(beta_true);
  auto sol = SolveSimplexLeastSquares(a, b);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(AllClose(sol->beta, beta_true, 1e-8));
  // The residual is reported via the normal-equation quadratic form,
  // which cancels to ~sqrt(machine epsilon) rather than exactly 0.
  EXPECT_NEAR(sol->residual_norm, 0.0, 1e-6);
}

TEST(SimplexLs, SingleColumnIsTrivial) {
  Matrix a = Matrix::FromColumns({{1.0, 2.0}});
  auto sol = SolveSimplexLeastSquares(a, {3.0, 4.0});
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->beta, (Vector{1.0}));
}

TEST(SimplexLs, ActivatesBoundWhenOptimalOutsideSimplex) {
  // b equals column 0; the unconstrained equality-constrained optimum
  // would put negative weight on column 1.
  Matrix a = Matrix::FromColumns({{1.0, 0.0}, {0.0, 1.0}});
  Vector b = {1.0, -0.5};
  auto sol = SolveSimplexLeastSquares(a, b);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->beta[0], 1.0, 1e-8);
  EXPECT_NEAR(sol->beta[1], 0.0, 1e-8);
}

TEST(SimplexLs, HandlesDuplicateColumns) {
  // Two identical references: the KKT system is singular; the ridge
  // fallback must still return a valid simplex point with the optimal
  // objective value.
  Matrix a = Matrix::FromColumns({{1.0, 2.0}, {1.0, 2.0}, {0.0, 1.0}});
  Vector b = {1.0, 2.0};
  auto sol = SolveSimplexLeastSquares(a, b);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(Sum(sol->beta), 1.0, 1e-9);
  EXPECT_NEAR(sol->beta[2], 0.0, 1e-6);
  EXPECT_NEAR(sol->residual_norm, 0.0, 1e-6);
}

TEST(SimplexLs, RejectsEmptyAndMismatched) {
  Matrix empty;
  EXPECT_FALSE(SolveSimplexLeastSquares(empty, {}).ok());
  Matrix a(3, 2);
  EXPECT_FALSE(SolveSimplexLeastSquares(a, {1.0, 2.0}).ok());
}

// Agreement between GeoAlign's two weight solvers (WeightSolver::
// kSimplex and kNnlsNormalized): when the design is well conditioned
// and the optimum is interior to the simplex, solving NNLS and
// rescaling to sum 1 must land on the same weights as the
// simplex-constrained solver.
TEST(SolverAgreement, ExactInteriorOptimum) {
  // Tall, near-orthogonal, strictly positive design; b is an exact
  // interior convex combination, so the unconstrained optimum already
  // sits on the simplex and both solvers must recover it exactly.
  size_t m = 60;
  size_t n = 4;
  Rng rng(404);
  Matrix a(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a(i, j) = (i % n == j ? 2.0 : 0.1) + 0.05 * rng.Uniform(0.0, 1.0);
    }
  }
  Vector beta_true = {0.4, 0.3, 0.2, 0.1};
  Vector b = a.MatVec(beta_true);

  auto simplex = SolveSimplexLeastSquares(a, b);
  ASSERT_TRUE(simplex.ok());
  auto nnls = SolveNnls(a, b);
  ASSERT_TRUE(nnls.ok());
  Vector nnls_normalized = nnls->x;
  ASSERT_GT(Sum(nnls_normalized), 0.0);
  Scale(nnls_normalized, 1.0 / Sum(nnls_normalized));

  EXPECT_TRUE(AllClose(simplex->beta, beta_true, 1e-8));
  EXPECT_TRUE(AllClose(nnls_normalized, beta_true, 1e-8));
  EXPECT_TRUE(AllClose(simplex->beta, nnls_normalized, 1e-8));
}

TEST(SolverAgreement, NoisyInteriorOptimumStaysWithinNoiseScale) {
  // With a small perturbation of the right-hand side the two programs
  // are no longer identical (NNLS renormalizes after the fact), but on
  // a well-conditioned design their weights may only drift apart at
  // the scale of the noise.
  size_t m = 80;
  size_t n = 5;
  Rng rng(405);
  Matrix a(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a(i, j) = (i % n == j ? 2.0 : 0.15) + 0.05 * rng.Uniform(0.0, 1.0);
    }
  }
  Vector beta_true = {0.3, 0.25, 0.2, 0.15, 0.1};
  Vector b = a.MatVec(beta_true);
  constexpr double kNoise = 1e-3;
  for (double& v : b) v += rng.Gaussian(0.0, kNoise);

  auto simplex = SolveSimplexLeastSquares(a, b);
  ASSERT_TRUE(simplex.ok());
  auto nnls = SolveNnls(a, b);
  ASSERT_TRUE(nnls.ok());
  Vector nnls_normalized = nnls->x;
  ASSERT_GT(Sum(nnls_normalized), 0.0);
  Scale(nnls_normalized, 1.0 / Sum(nnls_normalized));

  EXPECT_NEAR(Sum(simplex->beta), 1.0, 1e-9);
  EXPECT_NEAR(Sum(nnls_normalized), 1.0, 1e-12);
  // Both stay near the generating weights and near each other, within
  // a small multiple of the injected noise.
  EXPECT_TRUE(AllClose(simplex->beta, beta_true, 20.0 * kNoise));
  EXPECT_TRUE(AllClose(nnls_normalized, beta_true, 20.0 * kNoise));
  EXPECT_TRUE(AllClose(simplex->beta, nnls_normalized, 20.0 * kNoise));
}

// Property: the solver's result satisfies the constraints and is no
// worse than a dense sample of random feasible points.
class SimplexLsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexLsPropertyTest, BeatsRandomFeasiblePoints) {
  Rng rng(1000 + GetParam());
  size_t m = 5 + rng.UniformInt(uint64_t{40});
  size_t n = 2 + rng.UniformInt(uint64_t{6});
  Matrix a(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = std::fabs(rng.Gaussian(0.5, 1.0));
  }
  Vector b(m);
  for (double& v : b) v = std::fabs(rng.Gaussian(0.5, 1.0));

  auto sol = SolveSimplexLeastSquares(a, b);
  ASSERT_TRUE(sol.ok());
  // Feasibility.
  EXPECT_NEAR(Sum(sol->beta), 1.0, 1e-8);
  for (double v : sol->beta) EXPECT_GE(v, -1e-10);
  // Optimality vs random simplex points (Dirichlet-ish samples).
  double obj = SimplexObjective(a, b, sol->beta);
  for (int s = 0; s < 200; ++s) {
    Vector candidate(n);
    double total = 0.0;
    for (double& v : candidate) {
      v = rng.Exponential(1.0);
      total += v;
    }
    for (double& v : candidate) v /= total;
    EXPECT_LE(obj, SimplexObjective(a, b, candidate) + 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SimplexLsPropertyTest,
                         ::testing::Range(0, 25));

// Property: NNLS result satisfies KKT vs random non-negative points.
class NnlsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NnlsPropertyTest, BeatsScaledRandomNonNegativePoints) {
  Rng rng(2000 + GetParam());
  size_t m = 4 + rng.UniformInt(uint64_t{20});
  size_t n = 1 + rng.UniformInt(uint64_t{5});
  Matrix a(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.Gaussian(0.0, 1.0);
  }
  Vector b(m);
  for (double& v : b) v = rng.Gaussian(0.0, 1.0);
  auto sol = SolveNnls(a, b);
  ASSERT_TRUE(sol.ok());
  for (double v : sol->x) EXPECT_GE(v, 0.0);
  double obj = Norm2(Sub(a.MatVec(sol->x), b));
  EXPECT_NEAR(obj, sol->residual_norm, 1e-9);
  for (int s = 0; s < 100; ++s) {
    Vector candidate(n);
    for (double& v : candidate) v = rng.Exponential(1.0);
    EXPECT_LE(obj, Norm2(Sub(a.MatVec(candidate), b)) + 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, NnlsPropertyTest,
                         ::testing::Range(0, 20));

TEST(Stats, VarianceAndStdDev) {
  Vector v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(Variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(v), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(Variance({1.0}), 0.0);
}

TEST(Stats, PearsonCorrelation) {
  Vector x = {1.0, 2.0, 3.0, 4.0};
  Vector y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  Vector z = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, {1.0, 1.0, 1.0, 1.0}), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  Vector v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({5.0}, 0.3), 5.0);
}

TEST(Stats, BoxStats) {
  Vector v = {1.0, 2.0, 3.0, 4.0, 5.0};
  BoxStats s = ComputeBoxStats(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

}  // namespace
}  // namespace geoalign::linalg
