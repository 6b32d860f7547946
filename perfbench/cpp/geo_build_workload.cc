// geo_build: a crosswalk built from geometry. A fixed source layer of
// ~30k perturbed-grid polygons against one of four ~3k-cell Voronoi
// target layers: polygon overlay, point-reference DMs and aggregates,
// the area reference, then compile and an aggregates-only execute.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "geom/voronoi.h"
#include "harness.h"
#include "partition/disaggregation.h"
#include "partition/overlay.h"
#include "partition/polygon_partition.h"
#include "synth/point_process.h"

namespace perfbench {
namespace {

using geoalign::Rng;
using geoalign::core::CrosswalkInput;
using geoalign::core::CrosswalkPlan;
using geoalign::core::ExecuteOutput;
using geoalign::core::ReferenceAttribute;
using geoalign::geom::BBox;
using geoalign::geom::Point;
using geoalign::geom::Polygon;
using geoalign::linalg::Vector;
using geoalign::partition::OverlayResult;
using geoalign::partition::PolygonPartition;
using geoalign::sparse::CsrMatrix;

constexpr double kWorld = 100.0;

/// A grid of quads whose shared corners are jittered by up to a quarter
/// cell, so the layer still tiles the world exactly.
std::vector<Polygon> JitteredGrid(size_t units, uint64_t seed) {
  const size_t nx = std::max<size_t>(
      2, static_cast<size_t>(std::lround(std::sqrt(static_cast<double>(units)))));
  const double d = kWorld / static_cast<double>(nx);
  Rng rng(seed);
  std::vector<Point> corners((nx + 1) * (nx + 1));
  for (size_t gy = 0; gy <= nx; ++gy) {
    for (size_t gx = 0; gx <= nx; ++gx) {
      double x = static_cast<double>(gx) * d;
      double y = static_cast<double>(gy) * d;
      if (gx != 0 && gx != nx) x += rng.Uniform(-0.25 * d, 0.25 * d);
      if (gy != 0 && gy != nx) y += rng.Uniform(-0.25 * d, 0.25 * d);
      corners[gy * (nx + 1) + gx] = {x, y};
    }
  }
  std::vector<Polygon> polys;
  polys.reserve(nx * nx);
  for (size_t gy = 0; gy < nx; ++gy) {
    for (size_t gx = 0; gx < nx; ++gx) {
      const size_t c = gy * (nx + 1) + gx;
      polys.emplace_back(geoalign::geom::Ring{
          corners[c], corners[c + 1], corners[c + nx + 2], corners[c + nx + 1]});
    }
  }
  return polys;
}

std::vector<Polygon> VoronoiLayer(size_t units, Rng& rng) {
  std::vector<Point> sites;
  for (size_t i = 0; i < units; ++i) {
    sites.push_back({rng.Uniform(0.01 * kWorld, 0.99 * kWorld),
                     rng.Uniform(0.01 * kWorld, 0.99 * kWorld)});
  }
  auto rings = geoalign::geom::VoronoiCells(sites, BBox(0, 0, kWorld, kWorld));
  rings.status().CheckOK();
  std::vector<Polygon> polys;
  for (auto& ring : *rings) {
    if (ring.size() >= 3) polys.emplace_back(std::move(ring));
  }
  return polys;
}

struct PointSet {
  std::string name;
  std::vector<Point> points;
  Vector weights;
};

bool SameCells(const OverlayResult& a, const OverlayResult& b) {
  if (a.num_source != b.num_source || a.num_target != b.num_target ||
      a.cells.size() != b.cells.size()) {
    return false;
  }
  for (size_t k = 0; k < a.cells.size(); ++k) {
    if (a.cells[k].source != b.cells[k].source ||
        a.cells[k].target != b.cells[k].target ||
        !SameBits(geoalign::common::ConstSpan<double>(&a.cells[k].measure, 1),
                  geoalign::common::ConstSpan<double>(&b.cells[k].measure, 1))) {
      return false;
    }
  }
  return true;
}

class GeoBuild : public Workload {
 public:
  void Generate(const Options& options, Checker&) override {
    seed_ = options.seed;
    source_polys_ = JitteredGrid(
        static_cast<size_t>(std::lround(kSourceUnits * options.scale)), 20180610);
    Rng rng(options.seed, 53);
    const size_t target_units = std::max<size_t>(
        8, static_cast<size_t>(std::lround(kTargetUnits * options.scale)));
    for (size_t k = 0; k < kTargetLayers; ++k) {
      target_polys_.push_back(VoronoiLayer(target_units, rng));
    }

    const size_t n = std::max<size_t>(
        100, static_cast<size_t>(std::lround(kPoints * options.scale)));
    const BBox bounds(0.001 * kWorld, 0.001 * kWorld, 0.999 * kWorld,
                      0.999 * kWorld);
    // The settlement pattern (cluster centers, spreads, roads) is fixed
    // like the source layer, so every seed asks for the same amount of
    // point location work; the seed draws the points themselves.
    std::vector<geoalign::synth::GaussianCluster> mixture;
    std::vector<std::pair<Point, Point>> roads;
    Rng shape_rng(20180611);
    for (size_t c = 0; c < 6; ++c) {
      mixture.push_back({{shape_rng.Uniform(10, 90), shape_rng.Uniform(10, 90)},
                         shape_rng.Uniform(3, 12), shape_rng.Uniform(0.5, 2)});
      if (c > 0) roads.emplace_back(mixture[c - 1].center, mixture[c].center);
    }
    auto weights = [&](size_t count, double lo, double hi) {
      Vector w(count);
      for (double& v : w) v = rng.Uniform(lo, hi);
      return w;
    };
    PointSet population{"Population",
                        geoalign::synth::SampleGaussianMixture(bounds, mixture, n, rng),
                        {}};
    PointSet business{"Businesses",
                      geoalign::synth::SampleThomasProcess(
                          bounds, n / 50, 50.0, 1.5, rng),
                      {}};
    PointSet roads_set{"Road incidents",
                       geoalign::synth::SampleCorridors(bounds, roads, 0.8, n, rng),
                       {}};
    objective_ = {"Objective",
                  geoalign::synth::SampleGaussianMixture(bounds, mixture, n, rng),
                  {}};
    for (PointSet* set : {&population, &business, &roads_set, &objective_}) {
      set->weights = weights(set->points.size(), 0.5, 3.0);
      points_per_request_ += 2.0 * static_cast<double>(set->points.size());
    }
    // The objective is only aggregated, not turned into a DM.
    points_per_request_ -= static_cast<double>(objective_.points.size());
    point_refs_ = {std::move(population), std::move(business), std::move(roads_set)};

    // Oracles per target layer: the reference overlay, the point DMs and
    // aggregates, and the legacy crosswalk on the resulting input.
    auto source = PolygonPartition::Create(source_polys_);
    source.status().CheckOK();
    for (size_t k = 0; k < kTargetLayers; ++k) {
      auto target = PolygonPartition::Create(target_polys_[k]);
      target.status().CheckOK();
      auto cells = geoalign::partition::OverlayPolygonsReference(*source, *target,
                                                                 0.0, kThreads);
      cells.status().CheckOK();
      Oracle oracle;
      oracle.cells = std::move(cells).value();
      CrosswalkInput input;
      CsrMatrix area = oracle.cells.MeasureDm();
      input.references.push_back({"Area", area.RowSums(), std::move(area)});
      for (const PointSet& set : point_refs_) {
        auto dm = geoalign::partition::DmFromPoints(*source, *target, set.points,
                                                     set.weights);
        dm.status().CheckOK();
        input.references.push_back(
            {set.name,
             geoalign::partition::AggregatePoints(*source, set.points, set.weights),
             std::move(dm).value()});
      }
      input.objective_source = geoalign::partition::AggregatePoints(
          *source, objective_.points, objective_.weights);
      auto result = geoalign::core::CrosswalkUncompiled(input, PinnedOptions());
      result.status().CheckOK();
      oracle.result = ExpectedFrom(*result);
      oracle.input = std::move(input);
      cells_total_ += static_cast<double>(oracle.cells.cells.size());
      target_units_total_ += static_cast<double>(target->NumUnits());
      oracles_.push_back(std::move(oracle));
    }
    source_units_ = source->NumUnits();
  }

  double SetUp(Checker& check) override {
    std::vector<Polygon> source_copy = source_polys_;
    std::vector<std::vector<Polygon>> target_copies = target_polys_;
    const int64_t start = NowNs();
    auto source = PolygonPartition::Create(std::move(source_copy));
    std::vector<PolygonPartition> targets;
    for (std::vector<Polygon>& polys : target_copies) {
      auto target = PolygonPartition::Create(std::move(polys));
      if (!check.ExpectOk(target.status(), "PolygonPartition::Create")) break;
      targets.push_back(std::move(target).value());
    }
    const double create_s = static_cast<double>(NowNs() - start) / 1e9;
    partition_create_ms_.push_back(create_s * 1e3);
    if (!check.ExpectOk(source.status(), "PolygonPartition::Create")) {
      return create_s;
    }
    source_ = std::make_unique<PolygonPartition>(std::move(source).value());
    targets_ = std::move(targets);
    double seconds = create_s;
    for (size_t k = 0; k < targets_.size(); ++k) {
      seconds += Serve(k, 0, nullptr, check) / 1e3;
    }
    return seconds;
  }

  double Request(size_t index, Tracer* tracer, Checker& check) override {
    // Balanced schedule: every block of four requests visits each target
    // layer once, in a seeded order.
    std::vector<size_t> order(targets_.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed_, index / order.size() + 61);
    rng.Shuffle(order);
    return Serve(order[index % order.size()], index, tracer, check);
  }

  void LayerFigures(const SpanStats& stats, std::vector<Figure>* tracked,
                    std::vector<Figure>* detail) const override {
    const double overlay_s = stats.TotalSelfMs("partition.overlay") / 1e3;
    const double measure_s = stats.TotalSelfMs("partition.measure_dm") / 1e3;
    const double points_s = (stats.TotalSelfMs("partition.dm_from_points") +
                             stats.TotalSelfMs("partition.aggregate_points")) /
                            1e3;
    const double requests =
        static_cast<double>(stats.Count("partition.overlay"));
    const double cells =
        std::accumulate(traced_cells_.begin(), traced_cells_.end(), 0.0);
    tracked->push_back({"partition.overlay_cells", Median(traced_cells_), "count"});
    tracked->push_back({"partition.overlay_cells_per_s",
                        overlay_s > 0 ? cells / overlay_s : 0.0, "1/s"});
    tracked->push_back({"partition.measure_dm_cells_per_s",
                        measure_s > 0 ? cells / measure_s : 0.0, "1/s"});
    tracked->push_back(
        {"partition.points_per_s",
         points_s > 0 ? requests * points_per_request_ / points_s : 0.0, "1/s"});
    detail->push_back({"partition.overlay_ms",
                       stats.MedianPerCallMs("partition.overlay"), "ms"});
    detail->push_back({"partition.measure_dm_ms",
                       stats.MedianPerCallMs("partition.measure_dm"), "ms"});
    detail->push_back({"partition.dm_from_points_ms",
                       stats.MedianPerRequestMs("partition.dm_from_points"), "ms"});
    detail->push_back({"partition.aggregate_points_ms",
                       stats.MedianPerRequestMs("partition.aggregate_points"), "ms"});
    detail->push_back({"partition.create_ms", Median(partition_create_ms_), "ms"});
  }

  std::vector<Figure> Properties() const override {
    const double layers = static_cast<double>(oracles_.size());
    return {
        {"source_units", static_cast<double>(source_units_), "count", true},
        {"target_units_mean", target_units_total_ / layers, "count", true},
        {"target_layers", layers, "count", true},
        {"references", static_cast<double>(point_refs_.size() + 1), "count", true},
        {"points_per_reference",
         static_cast<double>(point_refs_[0].points.size()), "count", true},
        {"objective_points", static_cast<double>(objective_.points.size()),
         "count", true},
        {"points_per_request", points_per_request_, "count", true},
        {"overlay_cells_mean", cells_total_ / layers, "count", true},
        {"hashed_bytes_per_compile", hashed_bytes_, "bytes", true},
        {"world_area", kWorld * kWorld, "area", true}};
  }

  bool Aligned() const override { return aligned_; }
  double HashedBytesPerRequest() const override { return hashed_bytes_; }

 private:
  static constexpr double kSourceUnits = 30000;
  static constexpr double kTargetUnits = 3000;
  static constexpr double kPoints = 10000;
  static constexpr size_t kTargetLayers = 4;

  struct Oracle {
    OverlayResult cells;
    CrosswalkInput input;  ///< area reference first, then the point references
    Expected result;
  };

  double Serve(size_t k, size_t index, Tracer* tracer, Checker& check) {
    const PolygonPartition& source = *source_;
    const PolygonPartition& target = targets_[k];
    geoalign::partition::OverlayOptions overlay_options;
    overlay_options.threads = kThreads;
    std::vector<size_t> dropped(2 * point_refs_.size() + 1, 0);

    check.BeginRequest();
    if (tracer != nullptr) tracer->BeginRequest(index);
    const int64_t start = NowNs();
    ScopedSpan root(tracer, "request");
    ScopedSpan overlay_span(tracer, "partition.overlay");
    auto cells = geoalign::partition::OverlayPolygons(source, target, overlay_options);
    overlay_span.End();
    if (!check.ExpectOk(cells.status(), "OverlayPolygons")) {
      check.EndRequest();
      return static_cast<double>(NowNs() - start) / 1e6;
    }
    std::vector<ReferenceAttribute> refs;
    {
      ScopedSpan span(tracer, "partition.measure_dm");
      CsrMatrix area = cells->MeasureDm();
      Vector area_sums = area.RowSums();
      span.End();
      refs.push_back({"Area", std::move(area_sums), std::move(area)});
    }
    std::vector<geoalign::Status> dm_status;
    for (size_t r = 0; r < point_refs_.size(); ++r) {
      const PointSet& set = point_refs_[r];
      ScopedSpan dm_span(tracer, "partition.dm_from_points");
      auto dm = geoalign::partition::DmFromPoints(source, target, set.points,
                                                   set.weights, &dropped[2 * r]);
      dm_span.End();
      ScopedSpan agg_span(tracer, "partition.aggregate_points");
      Vector sums = geoalign::partition::AggregatePoints(source, set.points,
                                                         set.weights,
                                                         &dropped[2 * r + 1]);
      agg_span.End();
      dm_status.push_back(dm.status());
      refs.push_back({set.name, std::move(sums),
                      dm.ok() ? std::move(dm).value() : CsrMatrix()});
    }
    ScopedSpan objective_span(tracer, "partition.aggregate_points");
    Vector objective = geoalign::partition::AggregatePoints(
        source, objective_.points, objective_.weights, &dropped.back());
    objective_span.End();
    ScopedSpan compile_span(tracer, "core.compile");
    auto plan = CrosswalkPlan::Compile(refs, PinnedOptions());
    compile_span.End();
    std::optional<geoalign::Result<geoalign::core::CrosswalkResult>> result;
    if (plan.ok()) {
      ScopedSpan execute_span(tracer, "core.execute_agg");
      result.emplace(plan->Execute(objective, ExecuteOutput::kAggregatesOnly));
    }
    root.End();
    const double ms = static_cast<double>(NowNs() - start) / 1e6;

    const Oracle& oracle = oracles_[k];
    check.Expect(SameCells(*cells, oracle.cells),
                 "geo_build: overlay cells differ from OverlayPolygonsReference");
    const double total = cells->TotalMeasure();
    check.Expect(std::fabs(total - kWorld * kWorld) <= 1e-9 * kWorld * kWorld,
                 "geo_build: overlay TotalMeasure() is not the world area");
    for (size_t d : dropped) check.Expect(d == 0, "geo_build: points dropped");
    for (size_t r = 0; r < refs.size(); ++r) {
      if (r > 0) check.ExpectOk(dm_status[r - 1], "DmFromPoints");
      check.Expect(SameCsr(refs[r].disaggregation,
                           oracle.input.references[r].disaggregation) &&
                       SameBits(refs[r].source_aggregates,
                                oracle.input.references[r].source_aggregates),
                   "geo_build: DM or aggregates differ for " + refs[r].name);
      check.ExpectOk(geoalign::partition::CheckDmConsistency(
                         refs[r].disaggregation, refs[r].source_aggregates),
                     "CheckDmConsistency(" + refs[r].name + ")");
    }
    check.Expect(SameBits(objective, oracle.input.objective_source),
                 "geo_build: objective aggregates differ");
    if (check.ExpectOk(plan.status(), "Compile")) {
      aligned_ = aligned_ || plan->references().aligned();
      check.Expect(!plan->references().aligned(),
                   "geo_build: plan reports aligned() == true");
      if (check.ExpectOk(result->status(), "Execute")) {
        CheckResult(result->value(), oracle.result, objective, "geo_build", check);
      }
      hashed_bytes_ = FingerprintBytes(refs);
      if (tracer != nullptr) {
        traced_cells_.push_back(static_cast<double>(cells->cells.size()));
        TimeAlongside(refs, *plan, objective, oracle.result,
                      {.execute_dm = true}, tracer, check);
      }
    }
    check.EndRequest();
    return ms;
  }

  uint64_t seed_ = 0;
  std::vector<Polygon> source_polys_;
  std::vector<std::vector<Polygon>> target_polys_;
  std::vector<PointSet> point_refs_;
  PointSet objective_;
  std::vector<Oracle> oracles_;
  std::unique_ptr<PolygonPartition> source_;
  std::vector<PolygonPartition> targets_;
  std::vector<double> partition_create_ms_;
  std::vector<double> traced_cells_;
  double points_per_request_ = 0.0;
  double cells_total_ = 0.0;
  double target_units_total_ = 0.0;
  double hashed_bytes_ = 0.0;
  size_t source_units_ = 0;
  bool aligned_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeGeoBuild() { return std::make_unique<GeoBuild>(); }

}  // namespace perfbench
