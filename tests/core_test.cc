// Unit tests for the core interpolators: GeoAlign (Algorithm 1) and
// the baselines, including the paper's key invariants — volume
// preservation (Eq. 16), simplex weights (Eq. 15), dimension
// independence, and exact recovery when a perfect reference exists.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "core/areal_weighting.h"
#include "core/dasymetric.h"
#include "core/geoalign.h"
#include "core/pipeline.h"
#include "partition/interval_partition.h"
#include "partition/overlay.h"
#include "sparse/coo_builder.h"
#include "sparse/sparse_ops.h"

namespace geoalign::core {
namespace {

using linalg::Vector;
using sparse::CooBuilder;
using sparse::CsrMatrix;

// Builds a reference from a dense DM given as nested rows; the source
// aggregates are the row sums (always consistent).
ReferenceAttribute MakeRef(std::string name,
                           const std::vector<std::vector<double>>& dm_rows) {
  ReferenceAttribute ref;
  ref.name = std::move(name);
  linalg::Matrix dm = linalg::Matrix::FromRows(dm_rows);
  ref.disaggregation = CsrMatrix::FromDense(dm);
  ref.source_aggregates = ref.disaggregation.RowSums();
  return ref;
}

// A random consistent input: `num_refs` references over an
// `ns` x `nt` unit pair, plus an objective derived from a hidden
// convex combination of the references (so GeoAlign can recover it).
struct SyntheticCase {
  CrosswalkInput input;
  Vector true_target;
  Vector true_beta;
};

SyntheticCase RandomRecoverableCase(Rng& rng, size_t ns, size_t nt,
                                    size_t num_refs) {
  SyntheticCase out;
  std::vector<CsrMatrix> dms;
  for (size_t k = 0; k < num_refs; ++k) {
    CooBuilder b(ns, nt);
    for (size_t i = 0; i < ns; ++i) {
      // Each source unit intersects 1-3 target units.
      size_t spread = 1 + rng.UniformInt(uint64_t{3});
      for (size_t s = 0; s < spread; ++s) {
        b.Add(i, rng.UniformInt(uint64_t{nt}), rng.Uniform(0.5, 20.0));
      }
    }
    // Anchor every reference's maximum at source unit 0 (think: all
    // attributes peak in the same metro). Max-normalization then maps
    // the hidden convex combination onto the simplex exactly, making
    // it recoverable; without a shared peak the normalized mixture's
    // maximum falls below 1 and no simplex point reproduces it.
    b.Add(0, 0, 120.0);
    CsrMatrix dm = b.Build();
    ReferenceAttribute ref;
    ref.name = "ref" + std::to_string(k);
    ref.source_aggregates = dm.RowSums();
    ref.disaggregation = dm;
    out.input.references.push_back(ref);
    dms.push_back(std::move(dm));
  }
  // Hidden simplex weights over the normalized references.
  Vector beta(num_refs);
  double total = 0.0;
  for (double& v : beta) {
    v = rng.Exponential(1.0);
    total += v;
  }
  for (double& v : beta) v /= total;
  out.true_beta = beta;
  // Objective DM = sum_k beta_k * DM'_k (normalized by each ref's max);
  // objective aggregates are its row sums, truth its column sums.
  std::vector<const CsrMatrix*> ptrs;
  Vector eff(num_refs);
  for (size_t k = 0; k < num_refs; ++k) {
    ptrs.push_back(&dms[k]);
    eff[k] = beta[k] / linalg::Max(out.input.references[k].source_aggregates);
  }
  CsrMatrix objective_dm = std::move(sparse::WeightedSum(ptrs, eff)).ValueOrDie();
  out.input.objective_source = objective_dm.RowSums();
  out.true_target = objective_dm.ColSums();
  return out;
}

TEST(CrosswalkInput, ValidateCatchesShapeErrors) {
  CrosswalkInput input;
  input.objective_source = {1.0, 2.0};
  EXPECT_FALSE(input.Validate().ok());  // no references
  input.references.push_back(MakeRef("r", {{1.0, 0.0}, {0.0, 1.0}}));
  EXPECT_TRUE(input.Validate().ok());
  input.references[0].source_aggregates = {1.0};  // wrong length
  EXPECT_FALSE(input.Validate().ok());
}

TEST(CrosswalkInput, ValidateCatchesInconsistentDm) {
  CrosswalkInput input;
  input.objective_source = {1.0, 2.0};
  ReferenceAttribute ref = MakeRef("r", {{1.0, 0.0}, {0.0, 1.0}});
  ref.source_aggregates = {5.0, 1.0};  // row 0 sums to 1, not 5
  input.references.push_back(ref);
  EXPECT_FALSE(input.Validate().ok());
}

TEST(CrosswalkInput, ValidateCatchesNegatives) {
  CrosswalkInput input;
  input.objective_source = {1.0, -2.0};
  input.references.push_back(MakeRef("r", {{1.0, 0.0}, {0.0, 1.0}}));
  EXPECT_FALSE(input.Validate().ok());
}

TEST(CrosswalkInput, FindAndSubset) {
  CrosswalkInput input;
  input.objective_source = {1.0, 1.0};
  input.references.push_back(MakeRef("a", {{1.0, 0.0}, {0.0, 1.0}}));
  input.references.push_back(MakeRef("b", {{2.0, 0.0}, {0.0, 2.0}}));
  EXPECT_EQ(std::move(input.FindReference("b")).ValueOrDie(), 1u);
  EXPECT_FALSE(input.FindReference("c").ok());
  auto sub = std::move(input.WithReferenceSubset({1})).ValueOrDie();
  EXPECT_EQ(sub.references.size(), 1u);
  EXPECT_EQ(sub.references[0].name, "b");
  EXPECT_FALSE(input.WithReferenceSubset({}).ok());
  EXPECT_FALSE(input.WithReferenceSubset({5}).ok());
}

TEST(GeoAlign, IntroExampleSingleReference) {
  // Paper intro: 100 crimes, zip population splits 10k/15k -> 40/60.
  CrosswalkInput input;
  input.objective_source = {100.0};
  input.references.push_back(MakeRef("population", {{10000.0, 15000.0}}));
  GeoAlign geoalign;
  auto res = std::move(geoalign.Crosswalk(input)).ValueOrDie();
  EXPECT_NEAR(res.target_estimates[0], 40.0, 1e-9);
  EXPECT_NEAR(res.target_estimates[1], 60.0, 1e-9);
}

TEST(GeoAlign, WeightsLieOnSimplex) {
  Rng rng(101);
  SyntheticCase c = RandomRecoverableCase(rng, 30, 8, 4);
  GeoAlign geoalign;
  auto res = std::move(geoalign.Crosswalk(c.input)).ValueOrDie();
  EXPECT_NEAR(linalg::Sum(res.weights), 1.0, 1e-8);
  for (double b : res.weights) EXPECT_GE(b, -1e-10);
}

TEST(GeoAlign, VolumePreservation) {
  // Eq. 16: row sums of the estimated DM reproduce the source
  // aggregates exactly (consistent references, full support).
  Rng rng(103);
  for (int trial = 0; trial < 10; ++trial) {
    SyntheticCase c = RandomRecoverableCase(rng, 40, 10, 3);
    GeoAlign geoalign;
    auto res = std::move(geoalign.Crosswalk(c.input)).ValueOrDie();
    EXPECT_TRUE(res.zero_rows.empty());
    EXPECT_LT(res.VolumePreservationError(c.input.objective_source), 1e-8);
    // Mass conservation at target level.
    EXPECT_NEAR(linalg::Sum(res.target_estimates),
                linalg::Sum(c.input.objective_source), 1e-6);
  }
}

TEST(GeoAlign, RecoversHiddenConvexCombination) {
  // When the objective's DM is exactly a convex combination of the
  // normalized reference DMs, GeoAlign reproduces the target truth.
  Rng rng(105);
  for (int trial = 0; trial < 10; ++trial) {
    SyntheticCase c = RandomRecoverableCase(rng, 50, 12, 4);
    GeoAlign geoalign;
    auto res = std::move(geoalign.Crosswalk(c.input)).ValueOrDie();
    for (size_t j = 0; j < c.true_target.size(); ++j) {
      EXPECT_NEAR(res.target_estimates[j], c.true_target[j],
                  1e-6 * std::max(1.0, c.true_target[j]))
          << "trial " << trial << " target " << j;
    }
  }
}

TEST(GeoAlign, PerfectReferenceGetsAllWeight) {
  // references: one exactly proportional to the objective, one wildly
  // different. The proportional one should dominate.
  CrosswalkInput input;
  input.references.push_back(
      MakeRef("good", {{4.0, 0.0}, {1.0, 3.0}, {0.0, 2.0}}));
  input.references.push_back(
      MakeRef("bad", {{0.0, 9.0}, {8.0, 0.0}, {7.0, 7.0}}));
  // objective = 2.5 * good's source vector.
  input.objective_source = input.references[0].source_aggregates;
  linalg::Scale(input.objective_source, 2.5);
  GeoAlign geoalign;
  auto res = std::move(geoalign.Crosswalk(input)).ValueOrDie();
  EXPECT_GT(res.weights[0], 0.999);
  // And the estimate equals 2.5 * good's target distribution.
  Vector expected = input.references[0].disaggregation.ColSums();
  linalg::Scale(expected, 2.5);
  EXPECT_TRUE(linalg::AllClose(res.target_estimates, expected, 1e-6));
}

TEST(GeoAlign, ZeroRowsReportedAndZeroed) {
  CrosswalkInput input;
  input.objective_source = {10.0, 20.0};
  // Reference has no mass in source unit 1.
  input.references.push_back(MakeRef("r", {{3.0, 1.0}, {0.0, 0.0}}));
  GeoAlign geoalign;
  auto res = std::move(geoalign.Crosswalk(input)).ValueOrDie();
  ASSERT_EQ(res.zero_rows.size(), 1u);
  EXPECT_EQ(res.zero_rows[0], 1u);
  // Unit 1's mass is dropped (paper's Eq. 14 "otherwise 0").
  EXPECT_NEAR(linalg::Sum(res.target_estimates), 10.0, 1e-9);
}

TEST(GeoAlign, FallbackDmCarriesUnsupportedRows) {
  CrosswalkInput input;
  input.objective_source = {10.0, 20.0};
  input.references.push_back(MakeRef("r", {{3.0, 1.0}, {0.0, 0.0}}));
  // Area fallback: unit 1 splits 50/50.
  CooBuilder area(2, 2);
  area.Add(0, 0, 1.0);
  area.Add(1, 0, 2.0);
  area.Add(1, 1, 2.0);
  CsrMatrix area_dm = area.Build();
  GeoAlignOptions opts;
  opts.zero_row_fallback = ZeroRowFallback::kFallbackDm;
  opts.fallback_dm = &area_dm;
  GeoAlign geoalign(opts);
  auto res = std::move(geoalign.Crosswalk(input)).ValueOrDie();
  EXPECT_NEAR(linalg::Sum(res.target_estimates), 30.0, 1e-9);
  // Row 0: 10 * (3/4, 1/4); row 1 falls back to the 50/50 area split
  // of its 20 units of mass.
  EXPECT_NEAR(res.target_estimates[0], 7.5 + 10.0, 1e-9);
  EXPECT_NEAR(res.target_estimates[1], 2.5 + 10.0, 1e-9);
  // Volume preserving everywhere thanks to the fallback.
  EXPECT_LT(res.VolumePreservationError(input.objective_source), 1e-9);
}

TEST(GeoAlign, FallbackRequiresDm) {
  GeoAlignOptions opts;
  opts.zero_row_fallback = ZeroRowFallback::kFallbackDm;
  GeoAlign geoalign(opts);
  CrosswalkInput input;
  input.objective_source = {1.0};
  input.references.push_back(MakeRef("r", {{1.0}}));
  EXPECT_FALSE(geoalign.Crosswalk(input).ok());
}

TEST(GeoAlign, AllSolverVariantsProduceValidWeights) {
  Rng rng(107);
  SyntheticCase c = RandomRecoverableCase(rng, 25, 6, 4);
  for (WeightSolver solver :
       {WeightSolver::kSimplex, WeightSolver::kNnlsNormalized,
        WeightSolver::kClampedLs, WeightSolver::kUniform}) {
    GeoAlignOptions opts;
    opts.solver = solver;
    GeoAlign geoalign(opts);
    auto res = std::move(geoalign.Crosswalk(c.input)).ValueOrDie();
    EXPECT_NEAR(linalg::Sum(res.weights), 1.0, 1e-8);
    for (double b : res.weights) EXPECT_GE(b, -1e-10);
    EXPECT_LT(res.VolumePreservationError(c.input.objective_source), 1e-7);
  }
}

TEST(GeoAlign, RawScaleModeStillVolumePreserving) {
  Rng rng(109);
  SyntheticCase c = RandomRecoverableCase(rng, 20, 5, 3);
  GeoAlignOptions opts;
  opts.scale_mode = ScaleMode::kRaw;
  GeoAlign geoalign(opts);
  auto res = std::move(geoalign.Crosswalk(c.input)).ValueOrDie();
  // Raw mode mixes scales but row sums still telescope to a^s_o.
  EXPECT_LT(res.VolumePreservationError(c.input.objective_source), 1e-7);
}

TEST(GeoAlign, DenominatorModeControlsNoiseBehaviour) {
  // With inconsistent (noisy) reference aggregates, the default
  // DM-row-sum denominator keeps volume preservation exact, while the
  // literal Eq. 14 denominator scales each row by the aggregate error.
  Rng rng(211);
  SyntheticCase c = RandomRecoverableCase(rng, 30, 8, 3);
  // Corrupt one reference's aggregates by +50% (DM left unchanged).
  CrosswalkInput noisy = c.input;
  linalg::Scale(noisy.references[0].source_aggregates, 1.5);

  GeoAlignOptions robust;
  robust.denominator = DenominatorMode::kFromDmRowSums;
  auto res_robust = std::move(GeoAlign(robust).Crosswalk(noisy)).ValueOrDie();
  EXPECT_LT(res_robust.VolumePreservationError(noisy.objective_source), 1e-8);

  GeoAlignOptions literal;
  literal.denominator = DenominatorMode::kFromAggregates;
  auto res_lit = std::move(GeoAlign(literal).Crosswalk(noisy)).ValueOrDie();
  // Any row where reference 0 carries weight is off by up to 1/1.5.
  EXPECT_GT(res_lit.VolumePreservationError(noisy.objective_source), 1e-3);
}

TEST(GeoAlign, LearnWeightsMatchesCrosswalkWeights) {
  Rng rng(113);
  SyntheticCase c = RandomRecoverableCase(rng, 30, 8, 3);
  GeoAlign geoalign;
  auto beta = std::move(geoalign.LearnWeights(c.input)).ValueOrDie();
  auto res = std::move(geoalign.Crosswalk(c.input)).ValueOrDie();
  EXPECT_TRUE(linalg::AllClose(beta, res.weights, 1e-12));
}

TEST(GeoAlign, RejectsEmptyReferences) {
  GeoAlign geoalign;
  CrosswalkInput input;
  input.objective_source = {1.0};
  EXPECT_FALSE(geoalign.Crosswalk(input).ok());
}

// NaN and ±Inf in the objective or a reference aggregate are refused
// by every C++ entry: the one-shot call, a compiled plan (at compile
// for references, at execute for the objective) and the legacy path.
TEST(GeoAlign, RejectsNonFiniteAggregates) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    CrosswalkInput good;
    good.objective_source = {100.0, 50.0};
    good.references.push_back(
        MakeRef("population", {{10000.0, 15000.0}, {0.0, 500.0}}));
    GeoAlign geoalign;
    auto plan = std::move(geoalign.Compile(good)).ValueOrDie();

    CrosswalkInput bad_objective = good;
    bad_objective.objective_source[1] = bad;
    EXPECT_FALSE(geoalign.Crosswalk(bad_objective).ok()) << bad;
    EXPECT_FALSE(plan.Execute(bad_objective.objective_source).ok()) << bad;
    EXPECT_FALSE(
        plan.Execute(bad_objective.objective_source,
                     ExecuteOutput::kAggregatesOnly)
            .ok())
        << bad;
    EXPECT_FALSE(CrosswalkUncompiled(bad_objective, geoalign.options()).ok())
        << bad;

    CrosswalkInput bad_reference = good;
    bad_reference.references[0].source_aggregates[0] = bad;
    EXPECT_FALSE(geoalign.Compile(bad_reference).ok()) << bad;
    EXPECT_FALSE(geoalign.Crosswalk(bad_reference).ok()) << bad;
    EXPECT_FALSE(CrosswalkUncompiled(bad_reference, geoalign.options()).ok())
        << bad;
  }
}

TEST(Dasymetric, SplitsProportionally) {
  CrosswalkInput input;
  input.objective_source = {100.0, 60.0};
  input.references.push_back(
      MakeRef("population", {{10000.0, 15000.0}, {0.0, 5000.0}}));
  Dasymetric dasy(size_t{0});
  auto res = std::move(dasy.Crosswalk(input)).ValueOrDie();
  EXPECT_NEAR(res.target_estimates[0], 40.0, 1e-9);
  EXPECT_NEAR(res.target_estimates[1], 60.0 + 60.0, 1e-9);
  EXPECT_LT(res.VolumePreservationError(input.objective_source), 1e-9);
}

TEST(Dasymetric, ByNameResolvesPerCall) {
  CrosswalkInput input;
  input.objective_source = {10.0};
  input.references.push_back(MakeRef("a", {{1.0, 1.0}}));
  input.references.push_back(MakeRef("b", {{3.0, 1.0}}));
  Dasymetric dasy("b");
  EXPECT_EQ(dasy.name(), "dasymetric(b)");
  auto res = std::move(dasy.Crosswalk(input)).ValueOrDie();
  EXPECT_NEAR(res.target_estimates[0], 7.5, 1e-9);
  Dasymetric missing("zzz");
  EXPECT_FALSE(missing.Crosswalk(input).ok());
}

TEST(Dasymetric, IndexOutOfRange) {
  CrosswalkInput input;
  input.objective_source = {1.0};
  input.references.push_back(MakeRef("a", {{1.0}}));
  Dasymetric dasy(size_t{3});
  EXPECT_FALSE(dasy.Crosswalk(input).ok());
}

TEST(Dasymetric, ZeroReferenceRowsDropMass) {
  CrosswalkInput input;
  input.objective_source = {10.0, 20.0};
  input.references.push_back(MakeRef("r", {{1.0, 1.0}, {0.0, 0.0}}));
  Dasymetric dasy(size_t{0});
  auto res = std::move(dasy.Crosswalk(input)).ValueOrDie();
  EXPECT_EQ(res.zero_rows.size(), 1u);
  EXPECT_NEAR(linalg::Sum(res.target_estimates), 10.0, 1e-9);
}

TEST(ArealWeighting, HomogeneousSplitByArea) {
  CooBuilder area(2, 2);
  area.Add(0, 0, 7.0);
  area.Add(0, 1, 3.0);
  area.Add(1, 1, 5.0);
  ArealWeighting areal(area.Build());
  CrosswalkInput input;
  input.objective_source = {100.0, 50.0};
  // References are irrelevant to areal weighting.
  auto res = std::move(areal.Crosswalk(input)).ValueOrDie();
  EXPECT_NEAR(res.target_estimates[0], 70.0, 1e-9);
  EXPECT_NEAR(res.target_estimates[1], 30.0 + 50.0, 1e-9);
  EXPECT_LT(res.VolumePreservationError(input.objective_source), 1e-9);
}

TEST(ArealWeighting, ShapeMismatchRejected) {
  ArealWeighting areal(CsrMatrix(3, 2));
  CrosswalkInput input;
  input.objective_source = {1.0, 2.0};
  EXPECT_FALSE(areal.Crosswalk(input).ok());
}

TEST(Pipeline, EndToEndJoin) {
  std::vector<std::string> zips = {"10001", "10002"};
  std::vector<std::string> counties = {"New York", "Kings"};
  std::vector<ReferenceAttribute> refs = {
      MakeRef("population", {{100.0, 300.0}, {50.0, 50.0}})};
  auto pipeline = std::move(CrosswalkPipeline::Create(zips, counties, refs)).ValueOrDie();
  auto rows = std::move(pipeline.Join({{"10001", 40.0}, {"10002", 10.0}},
                                      {{"Kings", 7.0}, {"New York", 3.0}})).ValueOrDie();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].target_unit, "New York");
  EXPECT_NEAR(rows[0].objective_estimate, 10.0 + 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(rows[0].target_value, 3.0);
  EXPECT_NEAR(rows[1].objective_estimate, 30.0 + 5.0, 1e-9);
}

TEST(Pipeline, UnknownUnitRejected) {
  std::vector<ReferenceAttribute> refs = {MakeRef("r", {{1.0, 1.0}})};
  auto pipeline = std::move(CrosswalkPipeline::Create({"z1"}, {"c1", "c2"},
                                                      refs)).ValueOrDie();
  EXPECT_FALSE(pipeline.Realign({{"nope", 1.0}}).ok());
}

TEST(Pipeline, MissingUnitsDefaultToZero) {
  std::vector<ReferenceAttribute> refs = {
      MakeRef("r", {{1.0, 0.0}, {0.0, 1.0}})};
  auto pipeline = std::move(CrosswalkPipeline::Create({"z1", "z2"},
                                                      {"c1", "c2"}, refs)).ValueOrDie();
  auto res = std::move(pipeline.Realign({{"z2", 5.0}})).ValueOrDie();
  EXPECT_NEAR(res.target_estimates[0], 0.0, 1e-12);
  EXPECT_NEAR(res.target_estimates[1], 5.0, 1e-12);
}

TEST(Pipeline, CreateValidatesShapes) {
  std::vector<ReferenceAttribute> refs = {MakeRef("r", {{1.0, 1.0}})};
  EXPECT_FALSE(CrosswalkPipeline::Create({}, {"c"}, refs).ok());
  EXPECT_FALSE(CrosswalkPipeline::Create({"z"}, {"c"},
                                         std::vector<ReferenceAttribute>{})
                   .ok());
  // Reference DM is 1x2 but target list has 1 unit.
  EXPECT_FALSE(CrosswalkPipeline::Create({"z"}, {"c"}, refs).ok());
}

TEST(Pipeline, CustomMethod) {
  std::vector<ReferenceAttribute> refs = {
      MakeRef("pop", {{1.0, 3.0}, {2.0, 2.0}})};
  auto dasy = std::make_shared<Dasymetric>(size_t{0});
  auto pipeline = std::move(CrosswalkPipeline::Create(
      {"z1", "z2"}, {"c1", "c2"}, refs, dasy)).ValueOrDie();
  EXPECT_EQ(pipeline.method().name(), "dasymetric");
  auto res = std::move(pipeline.Realign({{"z1", 8.0}, {"z2", 4.0}})).ValueOrDie();
  EXPECT_NEAR(res.target_estimates[0], 2.0 + 2.0, 1e-9);
  EXPECT_NEAR(res.target_estimates[1], 6.0 + 2.0, 1e-9);

  // RealignMany runs the per-call method for every column at any
  // thread count, and honours kAggregatesOnly by dropping the DM.
  std::vector<CrosswalkPipeline::Column> columns = {
      {{"z1", 8.0}, {"z2", 4.0}}, {{"z2", 1.0}}, {{"z1", 3.0}}};
  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto many = std::move(pipeline.RealignMany(columns, threads,
                                               ExecuteOutput::kAggregatesOnly))
                    .ValueOrDie();
    ASSERT_EQ(many.size(), columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      auto single = std::move(pipeline.Realign(columns[i])).ValueOrDie();
      EXPECT_EQ(many[i].target_estimates, single.target_estimates);
      EXPECT_EQ(many[i].estimated_dm.rows(), 0u);
    }
    auto unknown = pipeline.RealignMany({columns[0], {{"nope", 1.0}}}, threads);
    ASSERT_FALSE(unknown.ok());
    EXPECT_NE(unknown.status().message().find("unknown unit 'nope'"),
              std::string::npos);
  }
}

// Dimension independence (paper §3.4): realigning a 1-D histogram via
// interval overlays uses the exact same core code path.
TEST(GeoAlign, OneDimensionalHistogramRealignment) {
  auto narrow = std::move(partition::IntervalPartition::Create(
      {0, 10, 20, 30, 40, 60})).ValueOrDie();
  auto wide = std::move(partition::IntervalPartition::Create({0, 25, 60})).ValueOrDie();
  auto ov = std::move(partition::OverlayIntervals(narrow, wide)).ValueOrDie();

  // Reference: a known fine-grained population histogram (uniform
  // density inside each narrow bin).
  CrosswalkInput input;
  ReferenceAttribute density;
  density.name = "uniform_density";
  density.disaggregation = ov.MeasureDm();
  density.source_aggregates = density.disaggregation.RowSums();
  input.references.push_back(density);
  input.objective_source = {100.0, 200.0, 100.0, 50.0, 50.0};
  GeoAlign geoalign;
  auto res = std::move(geoalign.Crosswalk(input)).ValueOrDie();
  // With a uniform within-bin density, bin [20,30) splits 50/50.
  EXPECT_NEAR(res.target_estimates[0], 100.0 + 200.0 + 50.0, 1e-9);
  EXPECT_NEAR(res.target_estimates[1], 50.0 + 50.0 + 50.0, 1e-9);
}

}  // namespace
}  // namespace geoalign::core
