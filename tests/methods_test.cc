// Tests for the extended method set (three-class dasymetric).

#include <gtest/gtest.h>

#include "core/areal_weighting.h"
#include "core/geoalign.h"
#include "core/three_class_dasymetric.h"
#include "eval/metrics.h"
#include "sparse/coo_builder.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

using sparse::CooBuilder;
using sparse::CsrMatrix;

// A two-density world: two source units, each straddling two target
// units; "urban" cells have 10x the density of "rural" cells.
struct TwoClassWorld {
  CsrMatrix measure_dm;
  core::CrosswalkInput input;
  linalg::Vector truth;
};

TwoClassWorld MakeTwoClassWorld() {
  TwoClassWorld w;
  // Areas: unit 0 = [4 urban | 6 rural], unit 1 = [2 urban | 8 rural],
  // split across targets so the urban part is always in target 0.
  CooBuilder areas(2, 2);
  areas.Add(0, 0, 4.0);
  areas.Add(0, 1, 6.0);
  areas.Add(1, 0, 2.0);
  areas.Add(1, 1, 8.0);
  w.measure_dm = areas.Build();
  // Reference density: 10 per urban area unit, 1 per rural.
  CooBuilder ref(2, 2);
  ref.Add(0, 0, 40.0);
  ref.Add(0, 1, 6.0);
  ref.Add(1, 0, 20.0);
  ref.Add(1, 1, 8.0);
  core::ReferenceAttribute population;
  population.name = "population";
  population.disaggregation = ref.Build();
  population.source_aggregates = population.disaggregation.RowSums();
  w.input.references.push_back(std::move(population));
  // Objective with the SAME two-class structure but different
  // densities: 5 per urban, 0.5 per rural.
  w.input.objective_source = {5.0 * 4 + 0.5 * 6, 5.0 * 2 + 0.5 * 8};
  w.truth = {5.0 * 4 + 5.0 * 2, 0.5 * 6 + 0.5 * 8};
  return w;
}

TEST(ThreeClassDasymetric, RecoversTwoClassDensities) {
  TwoClassWorld w = MakeTwoClassWorld();
  core::ThreeClassDasymetric method(w.measure_dm, {.num_classes = 2});
  auto res = std::move(method.Crosswalk(w.input)).ValueOrDie();
  // The NNLS fit recovers the per-class densities (0.5 rural, 5 urban).
  ASSERT_EQ(res.weights.size(), 2u);
  EXPECT_NEAR(res.weights[0], 0.5, 1e-8);
  EXPECT_NEAR(res.weights[1], 5.0, 1e-8);
  // And the target estimates are exact.
  EXPECT_TRUE(linalg::AllClose(res.target_estimates, w.truth, 1e-8));
  EXPECT_LT(res.VolumePreservationError(w.input.objective_source), 1e-9);
}

TEST(ThreeClassDasymetric, BeatsArealWeightingOnClassedData) {
  TwoClassWorld w = MakeTwoClassWorld();
  core::ThreeClassDasymetric three(w.measure_dm, {.num_classes = 2});
  core::ArealWeighting areal(w.measure_dm);
  auto t = std::move(three.Crosswalk(w.input)).ValueOrDie();
  auto a = std::move(areal.Crosswalk(w.input)).ValueOrDie();
  EXPECT_LT(eval::Rmse(t.target_estimates, w.truth),
            eval::Rmse(a.target_estimates, w.truth));
}

TEST(ThreeClassDasymetric, ValidatesInput) {
  TwoClassWorld w = MakeTwoClassWorld();
  core::ThreeClassDasymetric bad_ref(w.measure_dm, {.reference_index = 5});
  EXPECT_FALSE(bad_ref.Crosswalk(w.input).ok());
  core::ThreeClassDasymetric zero_classes(w.measure_dm, {.num_classes = 0});
  EXPECT_FALSE(zero_classes.Crosswalk(w.input).ok());
  core::ThreeClassDasymetric wrong_shape(CsrMatrix(3, 2), {});
  EXPECT_FALSE(wrong_shape.Crosswalk(w.input).ok());
}

TEST(ThreeClassDasymetric, OnSyntheticUniverse) {
  synth::UniverseOptions opts;
  opts.scale = 0.08;
  opts.seed = 808;
  opts.suite = synth::SuiteKind::kUnitedStates;
  auto uni = std::move(synth::BuildUniverse(synth::UniverseId::kNewYork,
                                            opts)).ValueOrDie();
  size_t starbucks = std::move(uni.FindDataset("Starbucks")).ValueOrDie();
  auto input = std::move(uni.MakeLeaveOneOutInput(starbucks)).ValueOrDie();
  size_t pop_ref = std::move(input.FindReference("Population")).ValueOrDie();
  core::ThreeClassDasymetric three(uni.measure_dm,
                                   {.num_classes = 3,
                                    .reference_index = pop_ref});
  core::ArealWeighting areal(uni.measure_dm);
  auto t = std::move(three.Crosswalk(input)).ValueOrDie();
  auto a = std::move(areal.Crosswalk(input)).ValueOrDie();
  double t_err = eval::Nrmse(t.target_estimates,
                             uni.datasets[starbucks].target);
  double a_err = eval::Nrmse(a.target_estimates,
                             uni.datasets[starbucks].target);
  // Density classing must improve on homogeneity for an urban-
  // concentrated attribute.
  EXPECT_LT(t_err, a_err);
  EXPECT_LT(t.VolumePreservationError(input.objective_source),
            1e-6 * linalg::Max(input.objective_source));
}

}  // namespace
}  // namespace geoalign
