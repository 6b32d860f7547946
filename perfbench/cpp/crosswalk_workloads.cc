// crosswalk_oneshot and crosswalk_cached: the paper's US suite (10
// datasets, so 9 or 8 references per request, not aligned), called the
// two ways a caller realigns one column.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/plan_cache.h"
#include "harness.h"
#include "us_suite.h"

namespace perfbench {
namespace {

using geoalign::Rng;
using geoalign::core::CrosswalkInput;
using geoalign::core::CrosswalkPlan;
using geoalign::core::CrosswalkResult;
using geoalign::core::ExecuteOutput;
using geoalign::core::ReferenceAttribute;

// ---------------------------------------------------------------------------
// crosswalk_oneshot: GeoAlign::Crosswalk on leave-one-out inputs. Every
// request scales each reference (aggregates and DM alike) by its own
// power of two, drawn so no two requests carry the same reference
// bytes; the scaling leaves every output bit unchanged, so one oracle
// result per leave-one-out input checks them all.

class CrosswalkOneshot : public Workload {
 public:
  void Generate(const Options& options, Checker& check) override {
    seed_ = options.seed;
    exponent_rng_.Reseed(options.seed, 17);
    geoalign::synth::Universe universe = BuildUsUniverse(options.scale);
    num_source_ = universe.NumZips();
    num_target_ = universe.NumCounties();
    for (size_t t = 0; t < universe.datasets.size(); ++t) {
      Input in;
      auto loo = universe.MakeLeaveOneOutInput(t);
      loo.status().CheckOK();
      in.input = std::move(loo).value();
      in.exponents.assign(in.input.references.size(), 0);
      auto oracle = geoalign::core::CrosswalkUncompiled(in.input, PinnedOptions());
      oracle.status().CheckOK();
      in.oracle = ExpectedFrom(*oracle);
      in.oracle_dm = std::move(oracle->estimated_dm);
      // Lane guard: the suite must keep taking the general lane.
      auto plan = CrosswalkPlan::Compile(in.input, PinnedOptions());
      if (check.ExpectOk(plan.status(), "Compile")) {
        aligned_ = aligned_ || plan->references().aligned();
        check.Expect(!plan->references().aligned(),
                     "crosswalk_oneshot: plan reports aligned() == true");
      }
      hashed_bytes_ += FingerprintBytes(in.input.references);
      nnz_ += ReferenceNnz(in.input.references);
      inputs_.push_back(std::move(in));
    }
    hashed_bytes_ /= static_cast<double>(inputs_.size());
    nnz_ /= static_cast<double>(inputs_.size());
  }

  double SetUp(Checker& check) override {
    const int64_t start = NowNs();
    geoalign_ = std::make_unique<geoalign::core::GeoAlign>(PinnedOptions());
    double seconds = static_cast<double>(NowNs() - start) / 1e9;
    for (size_t k = 0; k < kWarmup; ++k) {
      seconds += Request(kWarmupBase + warmups_++, nullptr, check) / 1e3;
    }
    return seconds;
  }

  double Request(size_t index, Tracer* tracer, Checker& check) override {
    Input& in = inputs_[InputAt(index)];
    RescaleUnique(in);
    const CrosswalkInput& input = in.input;
    check.BeginRequest();
    double ms = 0.0;
    if (tracer == nullptr) {
      const int64_t start = NowNs();
      auto result = geoalign_->Crosswalk(input);
      ms = static_cast<double>(NowNs() - start) / 1e6;
      if (check.ExpectOk(result.status(), "Crosswalk")) CheckFull(*result, in, check);
    } else {
      tracer->BeginRequest(index);
      const int64_t start = NowNs();
      ScopedSpan root(tracer, "request");
      ScopedSpan compile_span(tracer, "core.compile");
      auto plan = CrosswalkPlan::Compile(input, PinnedOptions());
      compile_span.End();
      if (check.ExpectOk(plan.status(), "Compile")) {
        ScopedSpan execute_span(tracer, "core.execute_dm");
        auto result = plan->Execute(input.objective_source);
        execute_span.End();
        root.End();
        ms = static_cast<double>(NowNs() - start) / 1e6;
        if (check.ExpectOk(result.status(), "Execute")) {
          CheckFull(*result, in, check);
        }
        TimeAlongside(input.references, *plan, input.objective_source,
                      in.oracle, {.execute_agg = true}, tracer, check);
      }
    }
    check.EndRequest();
    return ms;
  }

  void LayerFigures(const SpanStats&, std::vector<Figure>*,
                    std::vector<Figure>*) const override {}

  std::vector<Figure> Properties() const override {
    return {{"source_units", static_cast<double>(num_source_), "count", true},
            {"target_units", static_cast<double>(num_target_), "count", true},
            {"references", static_cast<double>(inputs_[0].input.references.size()),
             "count", true},
            {"leave_one_out_inputs", static_cast<double>(inputs_.size()), "count",
             true},
            {"reference_nnz", nnz_, "count", true},
            {"hashed_bytes_per_compile", hashed_bytes_, "bytes", true}};
  }

  bool Aligned() const override { return aligned_; }
  double HashedBytesPerRequest() const override { return hashed_bytes_; }

 private:
  static constexpr size_t kWarmup = 5;
  static constexpr size_t kWarmupBase = size_t{1} << 40;

  struct Input {
    CrosswalkInput input;
    std::vector<int64_t> exponents;  ///< current power-of-two scale per reference
    Expected oracle;
    geoalign::sparse::CsrMatrix oracle_dm;
  };

  /// Balanced schedule: each block of |inputs| requests visits every
  /// leave-one-out input once, in a seeded order.
  size_t InputAt(size_t index) const {
    const size_t n = inputs_.size();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed_, index / n + 1);
    rng.Shuffle(order);
    return order[index % n];
  }

  /// Moves every reference of `in` to fresh power-of-two scales no
  /// earlier request of this input used. Exact: no value over- or
  /// underflows at |exponent| <= 8.
  void RescaleUnique(Input& in) {
    std::vector<int64_t> next(in.exponents.size());
    do {
      for (int64_t& e : next) e = exponent_rng_.UniformInt(int64_t{-8}, int64_t{8});
    } while (!seen_.insert({&in - inputs_.data(), next}).second);
    for (size_t k = 0; k < next.size(); ++k) {
      const int64_t shift = next[k] - in.exponents[k];
      if (shift == 0) continue;
      const double factor = std::ldexp(1.0, static_cast<int>(shift));
      ReferenceAttribute& ref = in.input.references[k];
      for (double& v : ref.source_aggregates) v *= factor;
      for (double& v : ref.disaggregation.mutable_values()) v *= factor;
      in.exponents[k] = next[k];
    }
  }

  void CheckFull(const CrosswalkResult& result, const Input& in,
                 Checker& check) const {
    CheckResult(result, in.oracle, in.input.objective_source,
                "crosswalk_oneshot", check);
    check.Expect(SameCsr(result.estimated_dm, in.oracle_dm),
                 "crosswalk_oneshot: estimated DM differs from the oracle");
  }

  uint64_t seed_ = 0;
  Rng exponent_rng_{0};
  std::set<std::pair<std::ptrdiff_t, std::vector<int64_t>>> seen_;
  std::vector<Input> inputs_;
  std::unique_ptr<geoalign::core::GeoAlign> geoalign_;
  size_t warmups_ = 0;
  size_t num_source_ = 0;
  size_t num_target_ = 0;
  double hashed_bytes_ = 0.0;
  double nnz_ = 0.0;
  bool aligned_ = false;
};

// ---------------------------------------------------------------------------
// crosswalk_cached: PlanCache::GetOrCompile (capacity 16) over K = 24
// seeded leave-two-out reference subsets, then Execute(kAggregatesOnly).
// K > capacity keeps a steady mix of hits and misses with evictions.

class CrosswalkCached : public Workload {
 public:
  void Generate(const Options& options, Checker&) override {
    seed_ = options.seed;
    geoalign::synth::Universe universe = BuildUsUniverse(options.scale);
    num_source_ = universe.NumZips();
    num_target_ = universe.NumCounties();
    const size_t n = universe.datasets.size();
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) pairs.emplace_back(a, b);
    }
    Rng rng(options.seed, 29);
    rng.Shuffle(pairs);
    for (size_t s = 0; s < kSubsets; ++s) {
      auto [a, b] = pairs[s];
      if (rng.Bernoulli(0.5)) std::swap(a, b);  // a = the objective
      std::vector<size_t> keep;
      for (size_t k = 0; k < n; ++k) {
        if (k != a && k != b) keep.push_back(k);
      }
      Subset subset;
      subset.references = References(universe, keep);
      subset.objective = universe.datasets[a].source;
      CrosswalkInput input{subset.objective, subset.references};
      auto oracle = geoalign::core::CrosswalkUncompiled(input, PinnedOptions());
      oracle.status().CheckOK();
      subset.oracle = ExpectedFrom(*oracle);
      subset.fingerprint_bytes = FingerprintBytes(subset.references);
      nnz_ += ReferenceNnz(subset.references) / static_cast<double>(kSubsets);
      subsets_.push_back(std::move(subset));
    }
  }

  double SetUp(Checker& check) override {
    const int64_t start = NowNs();
    cache_ = std::make_unique<geoalign::core::PlanCache>(kCapacity);
    double seconds = static_cast<double>(NowNs() - start) / 1e9;
    // Warm-up: one pass over every subset in a seeded order leaves the
    // cache full and in its steady state.
    std::vector<size_t> order(kSubsets);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed_, 31);
    rng.Shuffle(order);
    for (size_t s : order) seconds += Serve(s, 0, nullptr, check) / 1e3;
    hashed_total_ = 0.0;
    served_ = 0;
    return seconds;
  }

  double Request(size_t index, Tracer* tracer, Checker& check) override {
    Rng rng(seed_, index + 101);
    return Serve(static_cast<size_t>(rng.UniformInt(uint64_t{kSubsets})), index,
                 tracer, check);
  }

  void BeginTracedPhase() override { before_ = cache_->stats(); }
  void EndTracedPhase() override { after_ = cache_->stats(); }

  void LayerFigures(const SpanStats& stats, std::vector<Figure>* tracked,
                    std::vector<Figure>* detail) const override {
    const double hits = static_cast<double>(after_.hits - before_.hits);
    const double misses = static_cast<double>(after_.misses - before_.misses);
    const double lookups = hits + misses;
    const double hit_ms = stats.MedianPerCallMs("core.cache_hit");
    const double miss_ms = stats.MedianPerCallMs("core.cache_miss");
    const double execute_ms = stats.MedianPerCallMs("core.execute_agg");
    const double compile_ms = stats.MedianPerCallMs("core.compile");
    tracked->push_back({"core.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                        "ratio"});
    tracked->push_back(
        {"core.cache_evictions",
         static_cast<double>(after_.evictions - before_.evictions), "count"});
    tracked->push_back(
        {"core.cache_insert_races",
         static_cast<double>(after_.insert_races - before_.insert_races),
         "count"});
    tracked->push_back({"core.cache_hit_cost_ratio",
                        execute_ms > 0 ? hit_ms / execute_ms : 0.0, "ratio"});
    tracked->push_back({"core.cache_miss_cost_ratio",
                        compile_ms > 0 ? miss_ms / compile_ms : 0.0, "ratio"});
    detail->push_back({"core.cache_hit_ms", hit_ms, "ms"});
    detail->push_back({"core.cache_miss_ms", miss_ms, "ms"});
    detail->push_back({"core.cache_lookups", lookups, "count"});
  }

  std::vector<Figure> Properties() const override {
    return {{"source_units", static_cast<double>(num_source_), "count", true},
            {"target_units", static_cast<double>(num_target_), "count", true},
            {"references", static_cast<double>(subsets_[0].references.size()),
             "count", true},
            {"reference_subsets_k", static_cast<double>(kSubsets), "count", true},
            {"cache_capacity", static_cast<double>(kCapacity), "count", true},
            {"reference_nnz", nnz_, "count", true},
            {"hashed_bytes_per_compile", subsets_[0].fingerprint_bytes, "bytes",
             true}};
  }

  bool Aligned() const override { return aligned_; }

  /// Two fingerprint lanes per cache key, plus one compile per miss.
  double HashedBytesPerRequest() const override {
    return served_ > 0 ? hashed_total_ / static_cast<double>(served_) : 0.0;
  }

 private:
  static constexpr size_t kSubsets = 24;
  static constexpr size_t kCapacity = 16;

  struct Subset {
    std::vector<ReferenceAttribute> references;
    geoalign::linalg::Vector objective;
    Expected oracle;
    double fingerprint_bytes = 0.0;
  };

  double Serve(size_t s, size_t index, Tracer* tracer, Checker& check) {
    const Subset& subset = subsets_[s];
    const size_t misses_before = cache_->stats().misses;
    check.BeginRequest();
    if (tracer != nullptr) tracer->BeginRequest(index);
    const int64_t start = NowNs();
    ScopedSpan root(tracer, "request");
    ScopedSpan lookup(tracer, "core.cache_lookup");
    auto plan = cache_->GetOrCompile(subset.references, PinnedOptions());
    lookup.End();
    double ms = 0.0;
    if (check.ExpectOk(plan.status(), "GetOrCompile")) {
      const CrosswalkPlan& compiled = **plan;
      ScopedSpan execute_span(tracer, "core.execute_agg");
      auto result = compiled.Execute(subset.objective,
                                     ExecuteOutput::kAggregatesOnly);
      execute_span.End();
      root.End();
      ms = static_cast<double>(NowNs() - start) / 1e6;
      const bool miss = cache_->stats().misses != misses_before;
      lookup.Rename(miss ? "core.cache_miss" : "core.cache_hit");
      hashed_total_ += (miss ? 3.0 : 2.0) * subset.fingerprint_bytes;
      ++served_;
      aligned_ = aligned_ || compiled.references().aligned();
      check.Expect(!compiled.references().aligned(),
                   "crosswalk_cached: plan reports aligned() == true");
      if (check.ExpectOk(result.status(), "Execute")) {
        CheckResult(*result, subset.oracle, subset.objective,
                    "crosswalk_cached", check);
      }
      if (tracer != nullptr) {
        TimeAlongside(subset.references, compiled, subset.objective,
                      subset.oracle, {.compile = true, .execute_dm = true},
                      tracer, check);
      }
    }
    check.EndRequest();
    return ms;
  }

  uint64_t seed_ = 0;
  std::vector<Subset> subsets_;
  std::unique_ptr<geoalign::core::PlanCache> cache_;
  geoalign::core::PlanCacheStats before_;
  geoalign::core::PlanCacheStats after_;
  double hashed_total_ = 0.0;
  size_t served_ = 0;
  size_t num_source_ = 0;
  size_t num_target_ = 0;
  double nnz_ = 0.0;
  bool aligned_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeCrosswalkOneshot() {
  return std::make_unique<CrosswalkOneshot>();
}

std::unique_ptr<Workload> MakeCrosswalkCached() {
  return std::make_unique<CrosswalkCached>();
}

}  // namespace perfbench
