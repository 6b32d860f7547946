// Unit tests for the CSR sparse matrix substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/float_eq.h"
#include "common/parallel_for.h"
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

// Values that stress the one-pass Eq. 14 kernel's drop rules:
// explicit ±0.0, the smallest subnormal (its quotient underflows to
// 0), tiny magnitudes, and ordinary ones of both signs.
double Eq14Value(Rng& rng) {
  switch (rng.UniformInt(uint64_t{8})) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::denorm_min();
    case 3:
      return rng.Uniform(1e-30, 1e-20);
    case 4:
      return -rng.Uniform(0.5, 10.0);
    default:
      return rng.Uniform(0.5, 10.0);
  }
}

// A random operand with a private structure and explicit zeros (built
// from raw arrays: CooBuilder would drop them). With `negate`, rows
// 0 mod 3 are `negate`'s rows negated, so equal weights cancel them
// exactly; without it, rows 0 mod 6 stay empty unless `fill_all`.
CsrMatrix Eq14Operand(Rng& rng, size_t rows, size_t cols,
                      const CsrMatrix* negate, bool fill_all) {
  std::vector<size_t> row_ptr = {0};
  std::vector<size_t> col_idx;
  std::vector<double> values;
  for (size_t r = 0; r < rows; ++r) {
    if (negate != nullptr && r % 3 == 0) {
      CsrMatrix::RowView row = negate->Row(r);
      for (size_t k = 0; k < row.size; ++k) {
        col_idx.push_back(row.cols[k]);
        values.push_back(-row.values[k]);
      }
    } else if (fill_all || negate != nullptr || r % 6 != 0) {
      for (size_t c = 0; c < cols; ++c) {
        if (rng.UniformInt(uint64_t{4}) != 0) continue;
        col_idx.push_back(c);
        values.push_back(Eq14Value(rng));
      }
    }
    row_ptr.push_back(col_idx.size());
  }
  return std::move(CsrMatrix::FromCsrArrays(rows, cols, std::move(row_ptr),
                                            std::move(col_idx),
                                            std::move(values)))
      .ValueOrDie();
}

// An operand on `structure`'s CSR structure, with Eq14Value values or,
// in rows 0 mod 3, `negate`'s values negated: a set built from one
// structure is aligned (PreparedReferenceSet::aligned()).
CsrMatrix Eq14AlignedOperand(Rng& rng, const CsrMatrix& structure,
                             const CsrMatrix* negate) {
  const common::ConstSpan<size_t> row_ptr = structure.row_ptr();
  std::vector<double> values(structure.nnz());
  for (size_t r = 0; r < structure.rows(); ++r) {
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      values[k] = negate != nullptr && r % 3 == 0 ? -negate->values()[k]
                                                  : Eq14Value(rng);
    }
  }
  return std::move(CsrMatrix::FromCsrArrays(
                       structure.rows(), structure.cols(),
                       {row_ptr.begin(), row_ptr.end()},
                       {structure.col_idx().begin(), structure.col_idx().end()},
                       std::move(values)))
      .ValueOrDie();
}

// A zero-row fallback DM whose rows have no support (rows 0 mod 4 are
// empty, rows 1 mod 4 hold explicit zeros) or positive support (rows
// 3 mod 4 lead with an explicit zero, which the rebuild drops).
CsrMatrix Eq14Fallback(Rng& rng, size_t rows, size_t cols) {
  std::vector<size_t> row_ptr = {0};
  std::vector<size_t> col_idx;
  std::vector<double> values;
  for (size_t r = 0; r < rows; ++r) {
    if (r % 4 != 0) {
      for (size_t c = r % 3; c < cols; c += 3) {
        const bool zero = r % 4 == 1 || (r % 4 == 3 && c == r % 3);
        col_idx.push_back(c);
        values.push_back(zero ? 0.0 : rng.Uniform(0.5, 10.0));
      }
    }
    row_ptr.push_back(col_idx.size());
  }
  return std::move(CsrMatrix::FromCsrArrays(rows, cols, std::move(row_ptr),
                                            std::move(col_idx),
                                            std::move(values)))
      .ValueOrDie();
}

// The zero-row fallback rebuild of core::CrosswalkUncompiled: kept rows
// as they are, each zero row with a positive fallback row sum replaced
// by its fallback row times row_scale[r] / sum, every exact zero
// dropped.
CsrMatrix RebuildZeroRows(const CsrMatrix& m,
                          const std::vector<size_t>& zero_rows,
                          const CsrMatrix& fallback, const Vector& fb_sums,
                          const Vector& row_scale) {
  std::vector<bool> is_zero_row(m.rows(), false);
  for (size_t r : zero_rows) is_zero_row[r] = true;
  CooBuilder builder(m.rows(), m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    const bool replace = is_zero_row[r];
    if (replace && fb_sums[r] <= 0.0) continue;
    const CsrMatrix::RowView row = replace ? fallback.Row(r) : m.Row(r);
    const double scale = replace ? row_scale[r] / fb_sums[r] : 1.0;
    for (size_t k = 0; k < row.size; ++k) {
      builder.Add(r, row.cols[k], replace ? row.values[k] * scale
                                          : row.values[k]);
    }
  }
  return builder.Build();
}

bool SameBits(common::ConstSpan<double> a, common::ConstSpan<double> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// DisaggregateRows against the four steps it fuses, on random
// operands with private structures and on aligned ones (one shared
// structure): exact-zero weights, explicit ±0.0 entries, empty rows
// and rows whose operands cancel to 0, zero tolerances above 0, zero
// row scales (their explicit zeros stay), quotients that underflow to
// 0 or overflow to ±Inf (NaN after a zero row scale), and three
// denominator sources (row sums, given ones with zeros, and all ones,
// which leave no zero row). With a fallback DM and a
// zero row, the matrix output must be the four-step form after the
// oracle's zero-row fallback rebuild, and without a zero row the
// four-step form itself; the aggregates output must be its ColSums.
TEST(SparseOps, DisaggregateRowsMatchesFourStepForm) {
  const size_t rows = 72;
  const size_t cols = 11;
  // The last operand always weighs 0 and holds ±Inf and NaN, so any
  // read of it would show.
  const std::vector<Vector> weight_sets = {
      {0.5, 0.5, 0.0, 1.25, 0.0, 0.0},
      {1.0, 0.25, 2.0, 0.0, 0.125, 0.0},
      {0.0, 0.0, 0.0, 3.0, 0.0, 0.0},
  };
  RowScratch scratch;
  size_t runs_compacting = 0;
  size_t runs_keeping_nan = 0;
  size_t runs_without_zero_rows = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed, 41);
    std::vector<CsrMatrix> mats;
    mats.push_back(Eq14Operand(rng, rows, cols, nullptr, true));
    mats.push_back(Eq14Operand(rng, rows, cols, &mats[0], false));
    for (int k = 0; k < 3; ++k) {
      mats.push_back(Eq14Operand(rng, rows, cols, nullptr, false));
    }
    CsrMatrix poisoned = Eq14Operand(rng, rows, cols, nullptr, true);
    std::vector<CsrMatrix> aligned;
    aligned.push_back(Eq14AlignedOperand(rng, mats[2], nullptr));
    aligned.push_back(Eq14AlignedOperand(rng, mats[2], &aligned[0]));
    for (int k = 0; k < 3; ++k) {
      aligned.push_back(Eq14AlignedOperand(rng, mats[2], nullptr));
    }
    CsrMatrix aligned_poisoned = Eq14AlignedOperand(rng, mats[2], nullptr);
    for (CsrMatrix* m : {&poisoned, &aligned_poisoned}) {
      for (double& v : m->mutable_values()) {
        const double picks[] = {HUGE_VAL, -HUGE_VAL, std::nan(""), v};
        v = picks[rng.UniformInt(uint64_t{4})];
      }
    }
    mats.push_back(std::move(poisoned));
    aligned.push_back(std::move(aligned_poisoned));
    const CsrMatrix fallback = Eq14Fallback(rng, rows, cols);
    const Vector fb_sums = fallback.RowSums();
    Vector row_scale(rows);
    Vector given(rows);
    for (size_t r = 0; r < rows; ++r) {
      row_scale[r] = r % 5 == 0 ? 0.0 : rng.Uniform(0.5, 100.0);
      // 1 / denorm_min is +Inf, so kept quotients are ±Inf, and NaN
      // where row_scale[r] is 0.
      const double picks[] = {0.0,  1e-4, 1e300, -2.0,
                              std::numeric_limits<double>::denorm_min(),
                              rng.Uniform(0.5, 10.0)};
      given[r] = picks[rng.UniformInt(uint64_t{6})];
    }
    const Vector ones(rows, 1.0);
    for (const std::vector<CsrMatrix>* set : {&mats, &aligned}) {
      std::vector<const CsrMatrix*> ptrs;
      for (const CsrMatrix& m : *set) ptrs.push_back(&m);
      for (const Vector& weights : weight_sets) {
        for (double tol : {0.0, 1e-3}) {
          for (const Vector* denominators :
               {static_cast<const Vector*>(nullptr),
                static_cast<const Vector*>(&given),
                static_cast<const Vector*>(&ones)}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed
                         << (set == &aligned ? " aligned" : " private")
                         << " w0 " << weights[0] << " tol " << tol
                         << (denominators == nullptr ? " row sums"
                             : denominators == &ones ? " ones"
                                                     : " given"));
            CsrMatrix four_step =
                std::move(WeightedSum(ptrs, weights)).ValueOrDie();
            const Vector denom =
                denominators != nullptr ? *denominators : four_step.RowSums();
            std::vector<size_t> want_zero = {999};
            DivideRowsOrZero(four_step, denom, tol, &want_zero);
            four_step.ScaleRows(row_scale);
            want_zero.erase(want_zero.begin());
            const common::ConstSpan<double> values = four_step.values();
            if (want_zero.empty()) {
              ++runs_without_zero_rows;
            } else if (std::any_of(values.begin(), values.end(),
                                   ExactlyZero)) {
              ++runs_compacting;
              runs_keeping_nan +=
                  std::any_of(values.begin(), values.end(),
                              [](double v) { return std::isnan(v); });
            }

            // Both outputs, without and with the fallback.
            for (const CsrMatrix* fb : {static_cast<const CsrMatrix*>(nullptr),
                                        &fallback}) {
              SCOPED_TRACE(fb == nullptr ? "no fallback" : "fallback");
              const FallbackRows fallback_rows = {
                  fb, fb == nullptr ? nullptr : &fb_sums};
              const CsrMatrix want =
                  fb == nullptr || want_zero.empty()
                      ? four_step
                      : RebuildZeroRows(four_step, want_zero, fallback,
                                        fb_sums, row_scale);
              std::vector<size_t> got_zero = {999};
              CsrMatrix got =
                  std::move(DisaggregateRows(ptrs, weights, denominators, tol,
                                             row_scale, fallback_rows,
                                             &got_zero))
                      .ValueOrDie();
              EXPECT_EQ(got.rows(), rows);
              EXPECT_EQ(got.cols(), cols);
              EXPECT_EQ(got.row_ptr(), want.row_ptr());
              EXPECT_EQ(got.col_idx(), want.col_idx());
              EXPECT_TRUE(SameBits(got.values(), want.values()));
              got_zero.erase(got_zero.begin());
              EXPECT_EQ(got_zero, want_zero);

              Vector got_targets = {999.0};
              std::vector<size_t> got_agg_zero = {999};
              ASSERT_TRUE(DisaggregateRows(ptrs, weights, denominators, tol,
                                           row_scale, fallback_rows,
                                           &got_targets, &got_agg_zero,
                                           &scratch)
                              .ok());
              EXPECT_TRUE(SameBits(got_targets, want.ColSums()));
              EXPECT_EQ(got_agg_zero, want_zero);
            }
          }
        }
      }
    }
  }
  // Premises: the matrix output's compaction had exact zeros to drop
  // and NaN to keep, and a fallback DM met inputs without a zero row.
  EXPECT_GT(runs_compacting, 0u);
  EXPECT_GT(runs_keeping_nan, 0u);
  EXPECT_GT(runs_without_zero_rows, 0u);
}

TEST(SparseOps, DisaggregateRowsValidatesInputs) {
  CsrMatrix a(2, 2);
  CsrMatrix b(2, 3);
  const Vector scale = {1.0, 1.0};
  EXPECT_FALSE(DisaggregateRows({}, {}, nullptr, 0.0, scale, {}, nullptr).ok());
  EXPECT_FALSE(
      DisaggregateRows({&a}, {1.0, 2.0}, nullptr, 0.0, scale, {}, nullptr)
          .ok());
  EXPECT_FALSE(
      DisaggregateRows({&a, &b}, {1.0, 1.0}, nullptr, 0.0, scale, {}, nullptr)
          .ok());
  EXPECT_FALSE(
      DisaggregateRows({&a}, {1.0}, nullptr, 0.0, {1.0}, {}, nullptr).ok());
  const Vector short_denominators = {1.0};
  EXPECT_FALSE(DisaggregateRows({&a}, {1.0}, &short_denominators, 0.0, scale,
                                {}, nullptr)
                   .ok());
  EXPECT_TRUE(
      DisaggregateRows({&a}, {1.0}, nullptr, 0.0, scale, {}, nullptr).ok());

  // Both outputs need a fallback DM with row sums of its shape, and the
  // aggregates output its outputs.
  const Vector sums = {0.0, 0.0};
  EXPECT_FALSE(DisaggregateRows({&a}, {1.0}, nullptr, 0.0, scale,
                                {&a, nullptr}, nullptr)
                   .ok());
  EXPECT_FALSE(DisaggregateRows({&a}, {1.0}, nullptr, 0.0, scale, {&b, &sums},
                                nullptr)
                   .ok());
  EXPECT_TRUE(DisaggregateRows({&a}, {1.0}, nullptr, 0.0, scale, {&a, &sums},
                               nullptr)
                  .ok());
  RowScratch scratch;
  Vector targets;
  std::vector<size_t> zeros;
  EXPECT_FALSE(DisaggregateRows({&a}, {1.0}, nullptr, 0.0, scale, {}, nullptr,
                                &zeros, &scratch)
                   .ok());
  EXPECT_FALSE(DisaggregateRows({&a}, {1.0}, nullptr, 0.0, scale,
                                {&a, nullptr}, &targets, &zeros, &scratch)
                   .ok());
  EXPECT_FALSE(DisaggregateRows({&a}, {1.0}, nullptr, 0.0, scale, {&b, &sums},
                                &targets, &zeros, &scratch)
                   .ok());
  EXPECT_FALSE(DisaggregateRows({}, {}, nullptr, 0.0, scale, {}, &targets,
                                &zeros, &scratch)
                   .ok());
  EXPECT_TRUE(DisaggregateRows({&a}, {1.0}, nullptr, 0.0, scale, {&a, &sums},
                               &targets, &zeros, &scratch)
                  .ok());
}

// ---- storage: copies share one block; writers copy unless sole -------

// A bit-exact snapshot of a matrix's arrays.
struct Arrays {
  explicit Arrays(const CsrMatrix& m)
      : row_ptr(m.row_ptr().begin(), m.row_ptr().end()),
        col_idx(m.col_idx().begin(), m.col_idx().end()),
        values(m.values().begin(), m.values().end()) {}

  bool SameBits(const CsrMatrix& m) const {
    return m.row_ptr() == row_ptr && m.col_idx() == col_idx &&
           m.nnz() == values.size() &&
           std::memcmp(m.values().data(), values.data(),
                       values.size() * sizeof(double)) == 0;
  }

  std::vector<size_t> row_ptr;
  std::vector<size_t> col_idx;
  std::vector<double> values;
};

// Every writer, as one call on a matrix.
struct Writer {
  const char* name;
  void (*write)(CsrMatrix&);
};
const Writer kWriters[] = {
    {"mutable_values",
     [](CsrMatrix& m) {
       for (double& v : m.mutable_values()) v *= 3.0;
     }},
    {"ScaleRows", [](CsrMatrix& m) { m.ScaleRows({2.0, 5.0, 0.0}); }},
    {"Prune", [](CsrMatrix& m) { m.Prune(1.5); }},
    {"DivideRowsOrZero",
     [](CsrMatrix& m) { DivideRowsOrZero(m, {4.0, 1.0, 0.0}, 0.0, nullptr); }},
};

TEST(CsrStorage, CopySharesTheArrays) {
  const CsrMatrix m = Small();
  const CsrMatrix copy = m;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.row_ptr().data(), m.row_ptr().data());
  EXPECT_EQ(copy.col_idx().data(), m.col_idx().data());
  EXPECT_EQ(copy.values().data(), m.values().data());
  CsrMatrix assigned(2, 2);
  assigned = m;
  EXPECT_EQ(assigned.values().data(), m.values().data());
  EXPECT_EQ(assigned.rows(), 3u);
}

TEST(CsrStorage, EachWriterLeavesTheOtherCopyBitIdentical) {
  for (const Writer& writer : kWriters) {
    // Write the copy, then the original, each while the other holds the
    // block.
    for (bool write_copy : {true, false}) {
      CsrMatrix original = Small();
      CsrMatrix copy = original;
      CsrMatrix& written = write_copy ? copy : original;
      const CsrMatrix& kept = write_copy ? original : copy;
      const Arrays before(kept);
      const double* kept_values = kept.values().data();
      writer.write(written);
      EXPECT_TRUE(before.SameBits(kept)) << writer.name;
      EXPECT_EQ(kept.values().data(), kept_values) << writer.name;
      EXPECT_NE(written.values().data(), kept_values) << writer.name;
      EXPECT_NE(written.col_idx().data(), kept.col_idx().data())
          << writer.name;
    }
  }
}

TEST(CsrStorage, SoleHolderWritesInPlace) {
  for (const Writer& writer : kWriters) {
    CsrMatrix m = Small();
    { const CsrMatrix dropped = m; }  // shared once, sole again
    const size_t* row_ptr = m.row_ptr().data();
    const size_t* col_idx = m.col_idx().data();
    const double* values = m.values().data();
    writer.write(m);
    EXPECT_EQ(m.row_ptr().data(), row_ptr) << writer.name;
    EXPECT_EQ(m.col_idx().data(), col_idx) << writer.name;
    EXPECT_EQ(m.values().data(), values) << writer.name;
  }
  // The values written in place are the writer's.
  CsrMatrix m = Small();
  m.ScaleRows({2.0, 5.0, 0.0});
  m.Prune(0.0);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 4.0);
  EXPECT_EQ(m.mutable_values().data(), m.values().data());
}

TEST(CsrStorage, WritingABorrowedMatrixLeavesTheCallerArrays) {
  const Arrays host(Small());
  for (const Writer& writer : kWriters) {
    for (bool with_keepalive : {false, true}) {
      Arrays caller = host;
      // With a keepalive the matrix is its only holder, but the arrays
      // are still the caller's, so the writer still copies them.
      std::shared_ptr<const void> keepalive;
      if (with_keepalive) keepalive = std::make_shared<int>(0);
      const std::weak_ptr<const void> watch = keepalive;
      CsrMatrix m = std::move(CsrMatrix::FromBorrowed(
                                  {3, 3, caller.row_ptr, caller.col_idx,
                                   caller.values},
                                  std::move(keepalive)))
                        .ValueOrDie();
      EXPECT_EQ(m.values().data(), caller.values.data());
      writer.write(m);
      EXPECT_NE(m.values().data(), caller.values.data()) << writer.name;
      EXPECT_NE(m.col_idx().data(), caller.col_idx.data()) << writer.name;
      EXPECT_TRUE(watch.expired()) << writer.name;  // the copy let it go
      EXPECT_EQ(caller.row_ptr, host.row_ptr) << writer.name;
      EXPECT_EQ(caller.col_idx, host.col_idx) << writer.name;
      EXPECT_EQ(0, std::memcmp(caller.values.data(), host.values.data(),
                               host.values.size() * sizeof(double)))
          << writer.name;
    }
  }
}

TEST(CsrStorage, MovedFromMatrixIsEmpty) {
  CsrMatrix m = Small();
  const double* values = m.values().data();
  CsrMatrix moved = std::move(m);
  EXPECT_EQ(moved.values().data(), values);
  EXPECT_EQ(moved.nnz(), 4u);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the
  // subject here.
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.row_ptr().size(), 1u);
  EXPECT_TRUE(m.RowSums().empty());
  CsrMatrix assigned(2, 2);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.values().data(), values);
  EXPECT_EQ(moved.rows(), 0u);
  EXPECT_EQ(moved.cols(), 0u);
  EXPECT_EQ(moved.nnz(), 0u);
  EXPECT_TRUE(moved.mutable_values().empty());
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_TRUE(assigned.AllClose(Small(), 0.0));
}

// One matrix shared by every worker: each copies it, writes its copy
// with every writer, and checks that the shared matrix kept its bits.
// Under ThreadSanitizer a write that lands in the shared block races
// the other workers' reads.
TEST(CsrStorageConcurrency, WorkersWriteTheirOwnCopies) {
  const CsrMatrix shared = Small();
  const Arrays expected(shared);
  constexpr size_t kWorkers = 4;
  constexpr size_t kRounds = 200;
  std::atomic<size_t> mismatches{0};
  common::ParallelFor(kWorkers, kWorkers, [&](size_t, size_t) {
    for (size_t round = 0; round < kRounds; ++round) {
      CsrMatrix mine = shared;
      for (const Writer& writer : kWriters) writer.write(mine);
      if (!expected.SameBits(shared) ||
          mine.values().data() == shared.values().data()) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_TRUE(expected.SameBits(shared));
}

// A copy read and dropped on one worker, then the original written in
// place on another, with no synchronization between the two but the
// owner handle's count. Under ThreadSanitizer this reports a race
// unless the write step orders that drop before its writes.
TEST(CsrStorageConcurrency, CopyDroppedOnAnotherThreadIsOrderedBeforeTheWrite) {
  for (int round = 0; round < 20; ++round) {
    CsrMatrix m = Small();
    CsrMatrix held = m;
    const double* values = m.values().data();
    std::atomic<bool> dropped{false};
    double held_total = 0.0;
    common::ParallelFor(2, 2, [&](size_t task, size_t) {
      if (task == 0) {
        held_total = held.Total();
        held = CsrMatrix();
        dropped.store(true, std::memory_order_relaxed);
        return;
      }
      while (!dropped.load(std::memory_order_relaxed)) {
      }
      m.ScaleRows({2.0, 2.0, 2.0});
    });
    EXPECT_DOUBLE_EQ(held_total, 10.0);
    EXPECT_EQ(m.values().data(), values);  // written in place
    EXPECT_DOUBLE_EQ(m.Total(), 20.0);
  }
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
