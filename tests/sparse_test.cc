// Unit tests for the CSR sparse matrix substrate.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "sparse/coo_builder.h"
#include "sparse/csr_matrix.h"
#include "sparse/prepared_reference.h"
#include "sparse/sparse_ops.h"

namespace geoalign::sparse {
namespace {

using linalg::Matrix;
using linalg::Vector;

CsrMatrix Small() {
  // [1 0 2]
  // [0 0 0]
  // [3 4 0]
  CooBuilder b(3, 3);
  b.Add(0, 0, 1.0);
  b.Add(0, 2, 2.0);
  b.Add(2, 0, 3.0);
  b.Add(2, 1, 4.0);
  return b.Build();
}

TEST(CooBuilder, BuildsSortedCsr) {
  CsrMatrix m = Small();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 4.0);
}

TEST(CooBuilder, SumsDuplicates) {
  CooBuilder b(2, 2);
  b.Add(0, 1, 1.0);
  b.Add(0, 1, 2.5);
  b.Add(1, 0, -1.0);
  b.Add(1, 0, 1.0);  // cancels to zero -> dropped
  CsrMatrix m = b.Build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 3.5);
}

TEST(CooBuilder, ReusableAfterBuild) {
  CooBuilder b(1, 1);
  b.Add(0, 0, 1.0);
  CsrMatrix first = b.Build();
  EXPECT_EQ(first.nnz(), 1u);
  b.Add(0, 0, 7.0);
  CsrMatrix second = b.Build();
  EXPECT_DOUBLE_EQ(second.At(0, 0), 7.0);
}

TEST(CsrMatrix, FromCsrArraysValidates) {
  // Wrong row_ptr length.
  EXPECT_FALSE(CsrMatrix::FromCsrArrays(2, 2, {0, 1}, {0}, {1.0}).ok());
  // Column out of range.
  EXPECT_FALSE(CsrMatrix::FromCsrArrays(1, 2, {0, 1}, {2}, {1.0}).ok());
  // Non-increasing columns.
  EXPECT_FALSE(
      CsrMatrix::FromCsrArrays(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}).ok());
  // Valid.
  EXPECT_TRUE(
      CsrMatrix::FromCsrArrays(1, 3, {0, 2}, {0, 2}, {1.0, 2.0}).ok());
}

TEST(CsrMatrix, DenseRoundTrip) {
  Matrix d = Matrix::FromRows({{0.0, 5.0}, {7.0, 0.0}});
  CsrMatrix m = CsrMatrix::FromDense(d);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_TRUE(m.ToDense().AllClose(d, 0.0));
}

TEST(CsrMatrix, RowAndColSums) {
  CsrMatrix m = Small();
  EXPECT_EQ(m.RowSums(), (Vector{3.0, 0.0, 7.0}));
  EXPECT_EQ(m.ColSums(), (Vector{4.0, 4.0, 2.0}));
  EXPECT_DOUBLE_EQ(m.Total(), 10.0);
}

TEST(CsrMatrix, MatVecAndTranspose) {
  CsrMatrix m = Small();
  EXPECT_EQ(m.MatVec({1.0, 1.0, 1.0}), (Vector{3.0, 0.0, 7.0}));
  EXPECT_EQ(m.MatTVec({1.0, 1.0, 1.0}), (Vector{4.0, 4.0, 2.0}));
  CsrMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t.At(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.At(1, 2), 4.0);
  EXPECT_TRUE(t.Transposed().AllClose(m, 0.0));
}

TEST(CsrMatrix, ScaleRowsAndPrune) {
  CsrMatrix m = Small();
  m.ScaleRows({2.0, 5.0, 0.0});
  EXPECT_DOUBLE_EQ(m.At(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 0.0);
  m.Prune(0.0);
  EXPECT_EQ(m.nnz(), 2u);
}

TEST(CsrMatrix, RowView) {
  CsrMatrix m = Small();
  CsrMatrix::RowView row = m.Row(2);
  ASSERT_EQ(row.size, 2u);
  EXPECT_EQ(row.cols[0], 0u);
  EXPECT_EQ(row.cols[1], 1u);
  EXPECT_DOUBLE_EQ(row.values[0], 3.0);
  CsrMatrix::RowView empty = m.Row(1);
  EXPECT_EQ(empty.size, 0u);
}

TEST(CsrMatrix, AllCloseComparesStructurallyDifferentMatrices) {
  CooBuilder b1(2, 2);
  b1.Add(0, 0, 1.0);
  CsrMatrix a = b1.Build();
  CooBuilder b2(2, 2);
  b2.Add(0, 0, 1.0);
  b2.Add(1, 1, 1e-13);
  CsrMatrix b = b2.Build();
  EXPECT_TRUE(a.AllClose(b, 1e-9));
  EXPECT_FALSE(a.AllClose(b, 1e-15));
  CsrMatrix c(2, 3);
  EXPECT_FALSE(a.AllClose(c, 1.0));
}

TEST(SparseOps, AddMatchesDense) {
  CsrMatrix a = Small();
  CooBuilder b(3, 3);
  b.Add(0, 0, -1.0);
  b.Add(1, 1, 2.0);
  CsrMatrix c = b.Build();
  auto sum = Add(a, c);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum->At(0, 0), 0.0);  // cancelled and dropped
  EXPECT_DOUBLE_EQ(sum->At(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(sum->At(2, 1), 4.0);
}

TEST(SparseOps, WeightedSumMatchesDenseReference) {
  Rng rng(3);
  size_t rows = 20;
  size_t cols = 15;
  std::vector<CsrMatrix> mats;
  std::vector<Matrix> dense;
  for (int k = 0; k < 4; ++k) {
    CooBuilder b(rows, cols);
    Matrix d(rows, cols);
    for (int e = 0; e < 60; ++e) {
      size_t r = rng.UniformInt(uint64_t{rows});
      size_t c = rng.UniformInt(uint64_t{cols});
      double v = rng.Gaussian(0.0, 1.0);
      b.Add(r, c, v);
      d(r, c) += v;
    }
    mats.push_back(b.Build());
    dense.push_back(std::move(d));
  }
  Vector w = {0.1, 0.0, -2.0, 1.5};
  std::vector<const CsrMatrix*> ptrs;
  for (const CsrMatrix& m : mats) ptrs.push_back(&m);
  auto sum = WeightedSum(ptrs, w);
  ASSERT_TRUE(sum.ok());
  Matrix expected(rows, cols);
  for (size_t k = 0; k < 4; ++k) {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        expected(r, c) += w[k] * dense[k](r, c);
      }
    }
  }
  EXPECT_TRUE(sum->ToDense().AllClose(expected, 1e-12));
}

TEST(SparseOps, WeightedSumValidatesShapes) {
  CsrMatrix a(2, 2);
  CsrMatrix b(2, 3);
  EXPECT_FALSE(WeightedSum({&a, &b}, {1.0, 1.0}).ok());
  EXPECT_FALSE(WeightedSum({&a}, {1.0, 2.0}).ok());
  EXPECT_FALSE(WeightedSum({}, {}).ok());
}

TEST(SparseOps, DivideRowsOrZero) {
  CsrMatrix m = Small();
  std::vector<size_t> zero_rows;
  DivideRowsOrZero(m, {2.0, 0.0, 4.0}, 0.0, &zero_rows);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 1.0);
  ASSERT_EQ(zero_rows.size(), 1u);
  EXPECT_EQ(zero_rows[0], 1u);
}

TEST(SparseOps, DivideRowsZeroToleranceZeroesTinyDenominators) {
  CsrMatrix m = Small();
  std::vector<size_t> zero_rows;
  DivideRowsOrZero(m, {1e-15, 1.0, 1.0}, 1e-12, &zero_rows);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 0.0);
  // Only row 0's denominator is below tolerance (rows 1 and 2 have
  // denominator 1.0; row 1 simply stores no entries).
  ASSERT_EQ(zero_rows.size(), 1u);
  EXPECT_EQ(zero_rows[0], 0u);
}

// Every value the DM-entry check must accept or reject, one entry at a
// time: -0.0 and the extreme finite values pass; every negative, ±Inf
// and NaN (either sign) fails.
TEST(CheckReference, DmEntriesAtTheFiniteNonNegativeBoundary) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::denorm_min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::nan("");
  for (double v : {0.0, -0.0, kMin, 1.0, kMax}) {
    CsrMatrix dm = std::move(CsrMatrix::FromCsrArrays(1, 1, {0, 1}, {0}, {v}))
                       .ValueOrDie();
    EXPECT_TRUE(CheckReference("r", {1.0}, dm, 1, 1).ok()) << v;
  }
  for (double v : {-kMin, -1.0, -kMax, kInf, -kInf, kNan, -kNan}) {
    CsrMatrix dm = std::move(CsrMatrix::FromCsrArrays(1, 1, {0, 1}, {0}, {v}))
                       .ValueOrDie();
    Result<Vector> checked = CheckReference("r", {1.0}, dm, 1, 1);
    ASSERT_FALSE(checked.ok()) << v;
    EXPECT_EQ(checked.status().message(),
              "reference 'r': negative or non-finite DM entry");
  }
}

// Property test: transpose-transpose identity and sum invariants over
// random matrices.
class CsrRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CsrRandomTest, StructuralInvariants) {
  Rng rng(500 + GetParam());
  size_t rows = 1 + rng.UniformInt(uint64_t{30});
  size_t cols = 1 + rng.UniformInt(uint64_t{30});
  CooBuilder b(rows, cols);
  size_t entries = rng.UniformInt(uint64_t{rows * cols});
  for (size_t e = 0; e < entries; ++e) {
    b.Add(rng.UniformInt(uint64_t{rows}), rng.UniformInt(uint64_t{cols}),
          rng.Uniform(0.1, 2.0));
  }
  CsrMatrix m = b.Build();
  // Row/col index invariants.
  for (size_t r = 0; r < rows; ++r) {
    CsrMatrix::RowView row = m.Row(r);
    for (size_t k = 1; k < row.size; ++k) {
      EXPECT_LT(row.cols[k - 1], row.cols[k]);
    }
  }
  // Total preserved under transpose; row sums of T = col sums of m.
  CsrMatrix t = m.Transposed();
  EXPECT_NEAR(t.Total(), m.Total(), 1e-9);
  EXPECT_TRUE(linalg::AllClose(t.RowSums(), m.ColSums(), 1e-12));
  EXPECT_TRUE(t.Transposed().AllClose(m, 0.0));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CsrRandomTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace geoalign::sparse
