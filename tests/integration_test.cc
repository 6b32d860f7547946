// Integration tests exercising the whole stack end to end: synthetic
// universes -> overlays -> interpolators -> metrics, plus the
// paper-level qualitative claims at reduced scale.

#include <gtest/gtest.h>

#include <cmath>

#include "eval/cross_validation.h"
#include "eval/metrics.h"
#include "eval/noise.h"
#include "eval/reference_selection.h"
#include "geom/voronoi.h"
#include "linalg/stats.h"
#include "partition/disaggregation.h"
#include "partition/overlay.h"
#include "synth/point_process.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

const synth::Universe& SmallUs() {
  static synth::Universe* uni = [] {
    synth::UniverseOptions opts;
    opts.scale = 0.05;
    opts.seed = 2024;
    opts.suite = synth::SuiteKind::kUnitedStates;
    return new synth::Universe(std::move(
        synth::BuildUniverse(synth::UniverseId::kNortheast, opts)).ValueOrDie());
  }();
  return *uni;
}

TEST(Integration, GeoAlignBeatsArealWeightingOverall) {
  auto report = std::move(eval::RunCrossValidation(SmallUs())).ValueOrDie();
  double ga = report.MeanNrmse("GeoAlign");
  double aw = report.MeanNrmse("areal_weighting");
  EXPECT_LT(ga, aw) << "GeoAlign " << ga << " vs areal weighting " << aw;
}

TEST(Integration, GeoAlignNeverFarBehindBestDasymetric) {
  // Paper Fig. 5: no single dasymetric reference wins everywhere, but
  // GeoAlign tracks the best one on every dataset.
  auto report = std::move(eval::RunCrossValidation(SmallUs())).ValueOrDie();
  for (const auto& d : SmallUs().datasets) {
    double ga = report.Lookup(d.name, "GeoAlign");
    double best = 1e300;
    for (const char* m :
         {"dasymetric(Population)", "dasymetric(USPS Residential Address)",
          "dasymetric(USPS Business Address)"}) {
      double v = report.Lookup(d.name, m);
      if (!std::isnan(v)) best = std::min(best, v);
    }
    EXPECT_LT(ga, best * 1.5 + 0.02) << d.name;
  }
}

TEST(Integration, NoiseRobustnessRatiosNearOne) {
  // Paper §4.4.1 at reduced scale: 20% noise should not blow up the
  // error (mean prediction deviation stays near 1).
  const synth::Universe& uni = SmallUs();
  core::GeoAlign geoalign;
  Rng rng(31337);
  double worst_ratio = 0.0;
  double ratio_sum = 0.0;
  int ratio_count = 0;
  for (size_t t = 0; t < uni.datasets.size(); ++t) {
    auto input = std::move(uni.MakeLeaveOneOutInput(t)).ValueOrDie();
    auto clean = std::move(geoalign.Crosswalk(input)).ValueOrDie();
    double clean_rmse =
        eval::Rmse(clean.target_estimates, uni.datasets[t].target);
    // Ratios are only meaningful when the clean error is not at the
    // exactness floor (a dataset with no straddling mass is estimated
    // perfectly, making any perturbation an infinite "ratio").
    if (eval::Nrmse(clean.target_estimates, uni.datasets[t].target) < 0.01) {
      continue;
    }
    double acc = 0.0;
    const int reps = 5;
    for (int r = 0; r < reps; ++r) {
      core::CrosswalkInput noisy = eval::PerturbReferences(input, 20.0, rng);
      auto res = std::move(geoalign.Crosswalk(noisy)).ValueOrDie();
      acc += eval::Rmse(res.target_estimates, uni.datasets[t].target);
    }
    double ratio = (acc / reps) / std::max(clean_rmse, 1e-12);
    worst_ratio = std::max(worst_ratio, ratio);
    ratio_sum += ratio;
    ++ratio_count;
  }
  ASSERT_GT(ratio_count, 0);
  // With the volume-preserving denominator (DM row sums), aggregate
  // noise only moves the learned weights, so deviations stay near 1
  // (paper Fig. 7).
  EXPECT_LT(ratio_sum / ratio_count, 1.5);
  EXPECT_LT(worst_ratio, 3.0);
}

TEST(Integration, LeavingLeastRelatedReferencesOutIsHarmless) {
  auto cells = std::move(eval::RunReferenceSelection(SmallUs())).ValueOrDie();
  // Compare leave-least-out vs all, averaged over datasets (paper
  // §4.4.2: "almost identical").
  double all = 0.0;
  double least1 = 0.0;
  int n = 0;
  for (const auto& c : cells) {
    if (c.policy == eval::SubsetPolicy::kAll) {
      all += c.nrmse;
      ++n;
    }
    if (c.policy == eval::SubsetPolicy::kLeastRelatedOut && c.n_out == 1) {
      least1 += c.nrmse;
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_NEAR(least1 / n, all / n, 0.05 + 0.5 * all / n);
}

TEST(Integration, PolygonOverlayPathAgreesWithCellPath) {
  // Build a little world twice: once as polygons (Voronoi zips vs a
  // grid of counties) and once as the equivalent point data, and check
  // that the two DM construction paths agree.
  Rng rng(99);
  geom::BBox box(0, 0, 12, 12);
  std::vector<geom::Point> sites;
  for (int i = 0; i < 40; ++i) {
    sites.push_back({rng.Uniform(0.2, 11.8), rng.Uniform(0.2, 11.8)});
  }
  auto rings = std::move(geom::VoronoiCells(sites, box)).ValueOrDie();
  std::vector<geom::Polygon> zips;
  for (auto& r : rings) zips.emplace_back(std::move(r));
  auto zip_layer = std::move(partition::PolygonPartition::Create(zips)).ValueOrDie();
  std::vector<geom::Polygon> counties;
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 3; ++i) {
      counties.push_back(geom::Polygon::FromBBox(
          geom::BBox(i * 4.0, j * 4.0, (i + 1) * 4.0, (j + 1) * 4.0)));
    }
  }
  auto county_layer = std::move(partition::PolygonPartition::Create(counties)).ValueOrDie();

  // Point dataset.
  auto pts = synth::SampleThomasProcess(box, 15, 40.0, 0.8, rng);
  linalg::Vector weights(pts.size(), 1.0);
  auto dm = std::move(partition::DmFromPoints(zip_layer, county_layer, pts,
                                              weights)).ValueOrDie();
  // DM marginals agree with direct aggregation.
  linalg::Vector by_zip =
      partition::AggregatePoints(zip_layer, pts, weights);
  linalg::Vector by_county =
      partition::AggregatePoints(county_layer, pts, weights);
  EXPECT_TRUE(linalg::AllClose(dm.RowSums(), by_zip, 1e-9));
  EXPECT_TRUE(linalg::AllClose(dm.ColSums(), by_county, 1e-9));

  // Dasymetric realignment through the geometric path reproduces the
  // county truth when the objective IS the reference's point set.
  core::CrosswalkInput input;
  input.objective_source = by_zip;
  core::ReferenceAttribute ref;
  ref.name = "points";
  ref.source_aggregates = by_zip;
  ref.disaggregation = dm;
  input.references.push_back(std::move(ref));
  core::GeoAlign geoalign;
  auto res = std::move(geoalign.Crosswalk(input)).ValueOrDie();
  EXPECT_TRUE(linalg::AllClose(res.target_estimates, by_county, 1e-6));

  // Areal weighting via the geometric overlay is sane: conserves mass.
  auto ov = std::move(partition::OverlayPolygons(zip_layer, county_layer,
                                                 1e-9)).ValueOrDie();
  core::ArealWeighting areal(ov.MeasureDm());
  auto aw = std::move(areal.Crosswalk(input)).ValueOrDie();
  EXPECT_NEAR(linalg::Sum(aw.target_estimates), linalg::Sum(by_zip),
              linalg::Sum(by_zip) * 1e-6);
}

}  // namespace
}  // namespace geoalign
