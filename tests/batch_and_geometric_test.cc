// Tests for the batch crosswalk API, including the batch-vs-individual
// equivalence guarantee.

#include <gtest/gtest.h>

#include "core/batch.h"
#include "core/geoalign.h"
#include "linalg/simplex_ls.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

const synth::Universe& SmallUniverse() {
  static synth::Universe* uni = [] {
    synth::UniverseOptions opts;
    opts.scale = 0.08;
    opts.seed = 555;
    opts.suite = synth::SuiteKind::kUnitedStates;
    return new synth::Universe(std::move(
        synth::BuildUniverse(synth::UniverseId::kNewYork, opts)).ValueOrDie());
  }();
  return *uni;
}

TEST(SimplexLsNormalEquations, MatchesDirectForm) {
  Rng rng(77);
  linalg::Matrix a(40, 5);
  for (size_t i = 0; i < 40; ++i) {
    for (size_t j = 0; j < 5; ++j) a(i, j) = rng.Uniform(0.0, 1.0);
  }
  linalg::Vector b(40);
  for (double& v : b) v = rng.Uniform(0.0, 1.0);
  auto direct = std::move(linalg::SolveSimplexLeastSquares(a, b)).ValueOrDie();
  auto normal = std::move(linalg::SolveSimplexLsFromNormalEquations(
      a.Gram(), a.MatTVec(b), linalg::Dot(b, b))).ValueOrDie();
  EXPECT_TRUE(linalg::AllClose(direct.beta, normal.beta, 1e-10));
  EXPECT_NEAR(direct.residual_norm, normal.residual_norm, 1e-8);
}

TEST(SimplexLsNormalEquations, ValidatesShapes) {
  linalg::Matrix gram(2, 3);
  EXPECT_FALSE(
      linalg::SolveSimplexLsFromNormalEquations(gram, {1.0, 2.0}, 1.0).ok());
  linalg::Matrix ok_gram = linalg::Matrix::Identity(2);
  EXPECT_FALSE(
      linalg::SolveSimplexLsFromNormalEquations(ok_gram, {1.0}, 1.0).ok());
}

TEST(BatchCrosswalk, MatchesIndividualGeoAlign) {
  const synth::Universe& uni = SmallUniverse();
  // References: all datasets except the first two; objectives: those
  // two, crosswalked both individually and as a batch.
  std::vector<core::ReferenceAttribute> refs;
  for (size_t k = 2; k < uni.datasets.size(); ++k) {
    core::ReferenceAttribute ref;
    ref.name = uni.datasets[k].name;
    ref.source_aggregates = uni.datasets[k].source;
    ref.disaggregation = uni.datasets[k].dm;
    refs.push_back(std::move(ref));
  }
  auto batch = std::move(core::BatchCrosswalk::Create(refs)).ValueOrDie();
  EXPECT_EQ(batch.NumSourceUnits(), uni.NumZips());
  EXPECT_EQ(batch.NumTargetUnits(), uni.NumCounties());

  std::vector<core::BatchCrosswalk::Objective> objectives;
  for (size_t t = 0; t < 2; ++t) {
    objectives.push_back({uni.datasets[t].name, uni.datasets[t].source});
  }
  auto results = std::move(batch.Run(objectives)).ValueOrDie();
  ASSERT_EQ(results.size(), 2u);

  core::GeoAlign geoalign;
  for (size_t t = 0; t < 2; ++t) {
    core::CrosswalkInput input;
    input.objective_source = uni.datasets[t].source;
    input.references = refs;
    auto individual = std::move(geoalign.Crosswalk(input)).ValueOrDie();
    EXPECT_EQ(results[t].name, uni.datasets[t].name);
    EXPECT_TRUE(linalg::AllClose(results[t].target_estimates,
                                 individual.target_estimates, 1e-9))
        << uni.datasets[t].name;
    EXPECT_TRUE(
        linalg::AllClose(results[t].weights, individual.weights, 1e-9));
    EXPECT_EQ(results[t].zero_rows, individual.zero_rows);
  }
}

TEST(BatchCrosswalk, ValidatesInput) {
  EXPECT_FALSE(
      core::BatchCrosswalk::Create(std::vector<core::ReferenceAttribute>{})
          .ok());
  const synth::Universe& uni = SmallUniverse();
  std::vector<core::ReferenceAttribute> refs;
  core::ReferenceAttribute ref;
  ref.name = uni.datasets[2].name;
  ref.source_aggregates = uni.datasets[2].source;
  ref.disaggregation = uni.datasets[2].dm;
  refs.push_back(std::move(ref));
  auto batch = std::move(core::BatchCrosswalk::Create(refs)).ValueOrDie();
  // Wrong objective length.
  auto bad = batch.Run({{"x", linalg::Vector{1.0, 2.0}}});
  EXPECT_FALSE(bad.ok());
  // Non-simplex solvers are supported since the compiled-plan rewrite
  // (the plan simply skips the Gram hoist); results must match the
  // individual path.
  core::GeoAlignOptions opts;
  opts.solver = core::WeightSolver::kUniform;
  core::ReferenceAttribute ref2;
  ref2.name = uni.datasets[2].name;
  ref2.source_aggregates = uni.datasets[2].source;
  ref2.disaggregation = uni.datasets[2].dm;
  auto uniform_batch =
      std::move(core::BatchCrosswalk::Create({ref2}, opts)).ValueOrDie();
  auto uniform_results = std::move(
      uniform_batch.Run({{uni.datasets[3].name, uni.datasets[3].source}}))
      .ValueOrDie();
  ASSERT_EQ(uniform_results.size(), 1u);
  core::CrosswalkInput uniform_input;
  uniform_input.objective_source = uni.datasets[3].source;
  uniform_input.references = {ref2};
  auto uniform_individual =
      std::move(core::GeoAlign(opts).Crosswalk(uniform_input)).ValueOrDie();
  EXPECT_EQ(uniform_results[0].target_estimates,
            uniform_individual.target_estimates);
  EXPECT_EQ(uniform_results[0].weights, uniform_individual.weights);
}

}  // namespace
}  // namespace geoalign
