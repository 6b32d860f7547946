// portal_us: CrosswalkPipeline::RealignMany over 64 named columns on one
// pipeline built from the five aligned dense US layers, the HUD-USPS
// crosswalk shape (several ratios on the same zip-county rows).

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/batch.h"
#include "core/execute_workspace.h"
#include "core/pipeline.h"
#include "harness.h"
#include "sparse/simd/isa.h"
#include "sparse/simd/panel_kernels.h"
#include "us_suite.h"

namespace perfbench {
namespace {

using geoalign::Rng;
using geoalign::core::BatchCrosswalk;
using geoalign::core::CrosswalkPipeline;
using geoalign::core::CrosswalkPlan;
using geoalign::core::CrosswalkResult;
using geoalign::core::ExecuteOutput;
using geoalign::core::ReferenceAttribute;
using geoalign::linalg::Vector;

std::vector<std::string> UnitNames(char prefix, size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  char buf[24];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "%c%05zu", prefix, i);
    names.emplace_back(buf);
  }
  return names;
}

class Portal : public Workload {
 public:
  void Generate(const Options& options, Checker&) override {
    seed_ = options.seed;
    geoalign::synth::Universe universe = BuildUsUniverse(options.scale);
    references_ = References(universe, DenseLayerIndices(universe));
    source_names_ = UnitNames('z', universe.NumZips());
    target_names_ = UnitNames('c', universe.NumCounties());
    nnz_ = ReferenceNnz(references_);

    // A pool of perturbed suite columns, each holding every (unit, value)
    // pair in its own shuffled order; oracles on the resolved vectors.
    Rng rng(options.seed, 41);
    const size_t n = source_names_.size();
    for (size_t p = 0; p < kPool; ++p) {
      const Vector& base = universe.datasets[p % universe.datasets.size()].source;
      Vector values(n);
      for (size_t i = 0; i < n; ++i) values[i] = base[i] * rng.Uniform(0.8, 1.2);
      std::vector<size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      rng.Shuffle(order);
      CrosswalkPipeline::Column column;
      column.reserve(n);
      for (size_t i : order) column.emplace_back(source_names_[i], values[i]);
      auto oracle = geoalign::core::CrosswalkUncompiled({values, references_},
                                                        PinnedOptions());
      oracle.status().CheckOK();
      oracles_.push_back(ExpectedFrom(*oracle));
      pool_.push_back(std::move(column));
      resolved_.push_back(std::move(values));
    }
  }

  double SetUp(Checker& check) override {
    std::vector<std::string> sources = source_names_;
    std::vector<std::string> targets = target_names_;
    std::vector<ReferenceAttribute> refs = references_;
    const int64_t start = NowNs();
    auto pipeline = CrosswalkPipeline::Create(
        std::move(sources), std::move(targets), std::move(refs),
        std::make_shared<geoalign::core::GeoAlign>(PinnedOptions()));
    const double create_s = static_cast<double>(NowNs() - start) / 1e9;
    pipeline_create_ms_.push_back(create_s * 1e3);
    if (!check.ExpectOk(pipeline.status(), "CrosswalkPipeline::Create") ||
        !check.Expect(pipeline->plan() != nullptr, "pipeline has no plan")) {
      return create_s;
    }
    pipeline_ = std::make_unique<CrosswalkPipeline>(std::move(pipeline).value());
    aligned_ = pipeline_->plan()->references().aligned();
    // Lane guard: the portal must keep exercising the panel lane.
    check.Expect(aligned_, "portal_us: plan reports aligned() == false");
    double seconds = create_s;
    for (size_t k = 0; k < kWarmup; ++k) {
      seconds += Request(kWarmupBase + k, nullptr, check) / 1e3;
    }
    return seconds;
  }

  double Request(size_t index, Tracer* tracer, Checker& check) override {
    // 64 distinct pool columns, moved into the request and back.
    std::vector<size_t> picks(pool_.size());
    std::iota(picks.begin(), picks.end(), 0);
    Rng rng(seed_, index + 7);
    rng.Shuffle(picks);
    picks.resize(std::min(kColumns, picks.size()));
    std::vector<CrosswalkPipeline::Column> batch;
    batch.reserve(picks.size());
    for (size_t p : picks) batch.push_back(std::move(pool_[p]));

    check.BeginRequest();
    if (tracer != nullptr) tracer->BeginRequest(index);
    const int64_t start = NowNs();
    ScopedSpan root(tracer, "request");
    ScopedSpan realign_span(tracer, "core.realign_many");
    auto results =
        pipeline_->RealignMany(batch, kThreads, ExecuteOutput::kAggregatesOnly);
    realign_span.End();
    root.End();
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    if (check.ExpectOk(results.status(), "RealignMany") &&
        check.Expect(results->size() == picks.size(), "RealignMany size")) {
      for (size_t k = 0; k < picks.size(); ++k) {
        CheckResult((*results)[k], oracles_[picks[k]], resolved_[picks[k]],
                    "portal_us", check);
      }
    }
    if (tracer != nullptr) TimeLayers(batch, picks, tracer, check);
    check.EndRequest();
    for (size_t k = 0; k < picks.size(); ++k) pool_[picks[k]] = std::move(batch[k]);
    return ms;
  }

  double ItemsPerRequest() const override {
    return static_cast<double>(std::min(kColumns, pool_.size()));
  }

  void BeginTracedPhase() override {
    auto batch = BatchCrosswalk::Create(references_, PinnedOptions());
    batch.status().CheckOK();
    batch_ = std::make_unique<BatchCrosswalk>(std::move(batch).value());
    const CrosswalkPlan& plan = *pipeline_->plan();
    workspace_.Prepare(plan.workspace_spec(), 1);
    workspace_.PreparePanel(plan.workspace_spec(), plan.panel_width());
  }

  void LayerFigures(const SpanStats& stats, std::vector<Figure>* tracked,
                    std::vector<Figure>* detail) const override {
    const double realign_ms = stats.MedianPerCallMs("core.realign_many");
    const double realign_1t_ms = stats.MedianPerCallMs("core.realign_many_1t");
    const double batch_ms = stats.MedianPerCallMs("core.batch_run");
    const double panel_total_s = stats.TotalSelfMs("core.execute_panel") / 1e3;
    const double columns = ItemsPerRequest();
    tracked->push_back({"core.name_resolution_share",
                        realign_ms > 0 ? 1.0 - batch_ms / realign_ms : 0.0,
                        "ratio"});
    tracked->push_back(
        {"common.pool_efficiency",
         realign_ms > 0 ? realign_1t_ms / (kThreads * realign_ms) : 0.0,
         "ratio"});
    tracked->push_back(
        {"sparse.panel_nnz_per_s",
         panel_total_s > 0 ? nnz_ * static_cast<double>(references_.size()) *
                                 panel_columns_ / panel_total_s
                           : 0.0,
         "1/s"});
    tracked->push_back({"core.batch_columns_per_s",
                        batch_ms > 0 ? columns / (batch_ms / 1e3) : 0.0, "1/s"});
    detail->push_back({"core.realign_many_ms", realign_ms, "ms"});
    detail->push_back({"core.realign_many_1t_ms", realign_1t_ms, "ms"});
    detail->push_back({"core.batch_run_ms", batch_ms, "ms"});
    detail->push_back({"core.execute_panel_ms",
                       stats.MedianPerCallMs("core.execute_panel"), "ms"});
    detail->push_back({"core.pipeline_create_ms", Median(pipeline_create_ms_), "ms"});
  }

  std::vector<Figure> Properties() const override {
    const CrosswalkPlan* plan = pipeline_ ? pipeline_->plan() : nullptr;
    std::vector<Figure> props = {
        {"source_units", static_cast<double>(source_names_.size()), "count", true},
        {"target_units", static_cast<double>(target_names_.size()), "count", true},
        {"references", static_cast<double>(references_.size()), "count", true},
        {"shared_nnz", nnz_, "count", true},
        {"columns_per_request", ItemsPerRequest(), "count", true},
        {"column_pool", static_cast<double>(pool_.size()), "count", true},
        {"hashed_bytes_per_compile", FingerprintBytes(references_), "bytes",
         true}};
    if (plan != nullptr) {
      props.push_back(
          {"panel_width", static_cast<double>(plan->panel_width()), "count", true});
    }
    props.push_back({"active_isa", 0.0, "", false,
                     geoalign::sparse::simd::IsaName(
                         geoalign::sparse::simd::ActiveIsa())});
    return props;
  }

  bool Aligned() const override { return aligned_; }
  /// Compile (and with it every fingerprint) is paid once, in set-up.
  double HashedBytesPerRequest() const override { return 0.0; }

 private:
  static constexpr size_t kPool = 128;
  static constexpr size_t kColumns = 64;
  static constexpr size_t kWarmup = 2;
  static constexpr size_t kWarmupBase = size_t{1} << 40;

  /// The per-layer calls behind one traced request, on its columns.
  void TimeLayers(const std::vector<CrosswalkPipeline::Column>& batch,
                  const std::vector<size_t>& picks, Tracer* tracer,
                  Checker& check) {
    const CrosswalkPlan& plan = *pipeline_->plan();
    {
      ScopedSpan span(tracer, "core.realign_many_1t");
      auto results = pipeline_->RealignMany(batch, 1, ExecuteOutput::kAggregatesOnly);
      span.End();
      if (check.ExpectOk(results.status(), "RealignMany(1 thread)")) {
        for (size_t k = 0; k < picks.size(); ++k) {
          CheckResult((*results)[k], oracles_[picks[k]], resolved_[picks[k]],
                      "RealignMany(1 thread)", check);
        }
      }
    }
    {
      std::vector<BatchCrosswalk::Objective> objectives;
      for (size_t p : picks) objectives.push_back({"column", resolved_[p]});
      ScopedSpan span(tracer, "core.batch_run");
      auto results = batch_->Run(objectives);
      span.End();
      if (check.ExpectOk(results.status(), "BatchCrosswalk::Run")) {
        for (size_t k = 0; k < picks.size(); ++k) {
          const Expected& want = oracles_[picks[k]];
          const BatchCrosswalk::BatchResult& got = (*results)[k];
          check.Expect(SameBits(got.target_estimates, want.target_estimates) &&
                           SameBits(got.weights, want.weights) &&
                           got.zero_rows == want.zero_rows,
                       "BatchCrosswalk::Run differs from the oracle");
        }
      }
    }
    // The panel lane inline, one ExecutePanelWith call per panel_width().
    const size_t width = plan.panel_width();
    std::array<geoalign::common::ColumnView, geoalign::sparse::simd::kMaxPanelWidth>
        views;
    std::array<std::optional<geoalign::Result<CrosswalkResult>>*,
               geoalign::sparse::simd::kMaxPanelWidth>
        outs;
    std::vector<std::optional<geoalign::Result<CrosswalkResult>>> slots(
        picks.size());
    for (size_t base = 0; base < picks.size(); base += width) {
      const size_t count = std::min(width, picks.size() - base);
      for (size_t k = 0; k < count; ++k) {
        views[k] = resolved_[picks[base + k]];
        outs[k] = &slots[base + k];
      }
      ScopedSpan span(tracer, "core.execute_panel");
      plan.ExecutePanelWith(views.data(), outs.data(), count, &workspace_);
    }
    panel_columns_ += static_cast<double>(picks.size());
    for (size_t k = 0; k < picks.size(); ++k) {
      if (check.Expect(slots[k].has_value(), "panel slot empty") &&
          check.ExpectOk(slots[k]->status(), "ExecutePanelWith")) {
        CheckResult(slots[k]->value(), oracles_[picks[k]], resolved_[picks[k]],
                    "ExecutePanelWith", check);
      }
    }
    // Compile, prepare, weight learning and both single-column execute
    // lanes, on the pipeline's own references and the first column.
    TimeAlongside(references_, plan, resolved_[picks.front()],
                  oracles_[picks.front()],
                  {.compile = true, .execute_dm = true, .execute_agg = true},
                  tracer, check);
  }

  uint64_t seed_ = 0;
  std::vector<ReferenceAttribute> references_;
  std::vector<std::string> source_names_;
  std::vector<std::string> target_names_;
  std::vector<CrosswalkPipeline::Column> pool_;
  std::vector<Vector> resolved_;
  std::vector<Expected> oracles_;
  std::unique_ptr<CrosswalkPipeline> pipeline_;
  std::unique_ptr<BatchCrosswalk> batch_;
  geoalign::core::ExecuteWorkspace workspace_;
  std::vector<double> pipeline_create_ms_;
  double panel_columns_ = 0.0;
  double nnz_ = 0.0;
  bool aligned_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakePortal() { return std::make_unique<Portal>(); }

}  // namespace perfbench
