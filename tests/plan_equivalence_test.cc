// Bit-identity contract of the compile/execute split: for every
// {ScaleMode, WeightSolver, DenominatorMode, ZeroRowFallback} × threads
// combination, `CrosswalkPlan::Compile → Execute` and the thin
// `GeoAlign::Crosswalk` wrapper must produce exactly the bits of the
// preserved legacy oracle `CrosswalkUncompiled` — no tolerances — and
// Eq. 17's target estimates must be exactly the row-order column sums
// of the returned DM̂_o. The sweep is a four-way oracle: the
// aggregates-only output (ExecuteOutput::kAggregatesOnly through a reused
// ExecuteWorkspace) and the SIMD column-panel lane (ExecutePanelWith,
// every lane of a replicated panel) must carry the same bits while
// never materializing DM̂_o. Also covers plan reuse/immutability, the PlanCache (including
// forced-ISA independence of cached plans), the pipeline serving path,
// and the batch façade.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "compile_entry_points.h"
#include "core/batch.h"
#include "core/geoalign.h"
#include "core/pipeline.h"
#include "core/plan_cache.h"
#include "eval/cross_validation.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sparse/coo_builder.h"
#include "sparse/simd/panel_kernels.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

synth::Universe MakeWorldUniverse(double scale = 0.08) {
  synth::UniverseOptions opts;
  opts.seed = 555;
  opts.scale = scale;
  opts.suite = synth::SuiteKind::kUnitedStates;
  return std::move(synth::BuildUniverse(synth::UniverseId::kNewYork, opts))
      .ValueOrDie();
}

core::CrosswalkInput MakeWorldInput(double scale = 0.08) {
  synth::Universe universe = MakeWorldUniverse(scale);
  return std::move(universe.MakeLeaveOneOutInput(0)).ValueOrDie();
}

// The world input restricted to its dense layers. Poisson layers drop
// zero cells, so their DMs have private structures; the dense layers
// cover every overlay cell and therefore share one CSR structure —
// the aligned regime where the panel lane engages
// (FusedLaneRunsOnAlignedWorld asserts the plan sees it as aligned).
core::CrosswalkInput MakeAlignedDenseInput(double scale = 0.08) {
  core::CrosswalkInput input = MakeWorldInput(scale);
  std::vector<core::ReferenceAttribute> dense;
  for (core::ReferenceAttribute& ref : input.references) {
    if (ref.name == "Area (Sq. Miles)" || ref.name == "Population" ||
        ref.name == "USPS Business Address" ||
        ref.name == "USPS Residential Address") {
      dense.push_back(std::move(ref));
    }
  }
  input.references = std::move(dense);
  return input;
}

// A consistent fallback DM for the world input (uniform support on
// every target, rows summing to the objective so Validate-style
// consistency is irrelevant — only support matters).
sparse::CsrMatrix MakeDenseFallback(size_t rows, size_t cols) {
  sparse::CooBuilder builder(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      builder.Add(r, c, 1.0 + static_cast<double>((r * 7 + c * 3) % 5));
    }
  }
  return builder.Build();
}

void ExpectBitIdentical(const core::CrosswalkResult& got,
                        const core::CrosswalkResult& want) {
  ASSERT_EQ(got.target_estimates, want.target_estimates);
  ASSERT_EQ(got.weights, want.weights);
  ASSERT_EQ(got.zero_rows, want.zero_rows);
  ASSERT_EQ(got.estimated_dm.row_ptr(), want.estimated_dm.row_ptr());
  ASSERT_EQ(got.estimated_dm.col_idx(), want.estimated_dm.col_idx());
  ASSERT_EQ(got.estimated_dm.values(), want.estimated_dm.values());
}

// Aggregates-only executes must carry exactly the oracle's bits for
// everything they produce — and no DM̂_o at all.
void ExpectAggregatesOnly(const core::CrosswalkResult& got,
                          const core::CrosswalkResult& want) {
  ASSERT_EQ(got.target_estimates, want.target_estimates);
  ASSERT_EQ(got.weights, want.weights);
  ASSERT_EQ(got.zero_rows, want.zero_rows);
  ASSERT_EQ(got.estimated_dm.rows(), 0u);
  ASSERT_EQ(got.estimated_dm.values().size(), 0u);
}

// Runs the full option sweep on `input`, comparing the legacy oracle,
// the Crosswalk wrapper, and an explicitly compiled plan bit-for-bit.
void SweepAllOptions(const core::CrosswalkInput& input,
                     const sparse::CsrMatrix& fallback) {
  for (core::ScaleMode scale :
       {core::ScaleMode::kNormalized, core::ScaleMode::kRaw}) {
    for (core::WeightSolver solver :
         {core::WeightSolver::kSimplex, core::WeightSolver::kNnlsNormalized,
          core::WeightSolver::kClampedLs, core::WeightSolver::kUniform}) {
      for (core::DenominatorMode den :
           {core::DenominatorMode::kFromDmRowSums,
            core::DenominatorMode::kFromAggregates}) {
        for (core::ZeroRowFallback fb :
             {core::ZeroRowFallback::kZero,
              core::ZeroRowFallback::kFallbackDm}) {
          for (size_t threads : {size_t{1}, size_t{4}}) {
            SCOPED_TRACE(StrFormat("scale=%d solver=%d den=%d fb=%d thr=%zu",
                                   static_cast<int>(scale),
                                   static_cast<int>(solver),
                                   static_cast<int>(den),
                                   static_cast<int>(fb), threads));
            core::GeoAlignOptions opts;
            opts.scale_mode = scale;
            opts.solver = solver;
            opts.denominator = den;
            opts.zero_row_fallback = fb;
            if (fb == core::ZeroRowFallback::kFallbackDm) {
              opts.fallback_dm = &fallback;
            }
            opts.threads = threads;

            auto legacy =
                std::move(core::CrosswalkUncompiled(input, opts)).ValueOrDie();
            // Eq. 17 is the plain column sum of DM̂_o, in row order.
            ASSERT_EQ(legacy.target_estimates, legacy.estimated_dm.ColSums());
            core::GeoAlign geoalign(opts);
            auto wrapped = std::move(geoalign.Crosswalk(input)).ValueOrDie();
            ExpectBitIdentical(wrapped, legacy);

            auto plan = std::move(geoalign.Compile(input)).ValueOrDie();
            auto executed =
                std::move(plan.Execute(input.objective_source)).ValueOrDie();
            ExpectBitIdentical(executed, legacy);
            ASSERT_EQ(executed.target_estimates,
                      executed.estimated_dm.ColSums());

            // Third oracle leg: the aggregates-only output, twice
            // through one reused workspace so the steady-state
            // (zero-growth) path is on the hook too.
            core::ExecuteWorkspace workspace;
            workspace.Prepare(plan.workspace_spec());
            for (int rep = 0; rep < 2; ++rep) {
              auto fused = std::move(plan.Execute(
                               input.objective_source,
                               core::ExecuteOutput::kAggregatesOnly,
                               &workspace))
                               .ValueOrDie();
              ExpectAggregatesOnly(fused, legacy);
            }

            // Fourth oracle leg: the SIMD column-panel lane. The
            // objective replicated across 3 lanes must hand every lane
            // exactly the single-column bits — panel blocking and lane
            // ganging are throughput choices, never numeric ones. (On
            // non-aligned reference sets ExecutePanelWith degrades to
            // the per-column lane; the contract is the same.)
            {
              const common::ColumnView objs[3] = {input.objective_source,
                                                  input.objective_source,
                                                  input.objective_source};
              std::optional<Result<core::CrosswalkResult>> slots[3];
              std::optional<Result<core::CrosswalkResult>>* slot_ptrs[3] = {
                  &slots[0], &slots[1], &slots[2]};
              plan.ExecutePanelWith(objs, slot_ptrs, 3, &workspace);
              for (auto& slot : slots) {
                ASSERT_TRUE(slot.has_value());
                auto paneled = std::move(*slot).ValueOrDie();
                ExpectAggregatesOnly(paneled, legacy);
              }
            }
          }
        }
      }
    }
  }
}

TEST(PlanEquivalenceTest, AllOptionCombosBitIdentical) {
  core::CrosswalkInput input = MakeWorldInput();
  sparse::CsrMatrix fallback = MakeDenseFallback(
      input.NumSourceUnits(), input.NumTargetUnits());
  SweepAllOptions(input, fallback);
}

// The general (non-aligned) lane on the suite crosswalk_oneshot
// serves: the US universe at scale 0.1, each of its 10 leave-one-out
// inputs (9 references, each DM with its own structure), through
// Execute(kFullDm) and Execute(kAggregatesOnly) against the oracle.
TEST(PlanEquivalenceTest, UsLeaveOneOutGeneralLaneBitIdentical) {
  synth::UniverseOptions opts;
  opts.seed = 2018;
  opts.scale = 0.1;
  opts.suite = synth::SuiteKind::kUnitedStates;
  const synth::Universe universe =
      std::move(synth::BuildUniverse(synth::UniverseId::kUnitedStates, opts))
          .ValueOrDie();
  ASSERT_EQ(universe.datasets.size(), 10u);
  for (size_t t = 0; t < universe.datasets.size(); ++t) {
    SCOPED_TRACE(universe.datasets[t].name);
    const core::CrosswalkInput input =
        std::move(universe.MakeLeaveOneOutInput(t)).ValueOrDie();
    const core::CrosswalkResult oracle =
        std::move(core::CrosswalkUncompiled(input, {})).ValueOrDie();
    const core::CrosswalkPlan plan =
        std::move(core::CrosswalkPlan::Compile(input, {})).ValueOrDie();
    ASSERT_FALSE(plan.references().aligned());

    const core::CrosswalkResult full =
        std::move(plan.Execute(input.objective_source)).ValueOrDie();
    ExpectBitIdentical(full, oracle);
    const common::ConstSpan<double> got = full.estimated_dm.values();
    const common::ConstSpan<double> want = oracle.estimated_dm.values();
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0);
    ExpectAggregatesOnly(
        std::move(plan.Execute(input.objective_source,
                               core::ExecuteOutput::kAggregatesOnly))
            .ValueOrDie(),
        oracle);
  }
}

TEST(PlanEquivalenceTest, NoisyAggregatesBitIdentical) {
  // Inconsistent inputs (reported aggregates ≠ DM row sums) are the
  // §4.4.1 robustness regime; kFromAggregates vs kFromDmRowSums only
  // diverge here, so the sweep must stay bit-identical on such inputs
  // too.
  core::CrosswalkInput input = MakeWorldInput();
  for (size_t k = 0; k < input.references.size(); ++k) {
    linalg::Vector& agg = input.references[k].source_aggregates;
    for (size_t i = 0; i < agg.size(); ++i) {
      agg[i] *= 1.0 + 0.25 * std::sin(static_cast<double>(i * 13 + k * 7));
    }
  }
  sparse::CsrMatrix fallback = MakeDenseFallback(
      input.NumSourceUnits(), input.NumTargetUnits());
  SweepAllOptions(input, fallback);
}

// Hand-built 3-source × 4-target world where source row 1 has no
// reference support but carries objective mass.
struct ZeroRowWorld {
  core::CrosswalkInput input;
  sparse::CsrMatrix fallback;
};

ZeroRowWorld MakeZeroRowWorld() {
  ZeroRowWorld w;
  w.input.objective_source = {5.0, 7.0, 9.0};

  core::ReferenceAttribute a;
  a.name = "A";
  a.source_aggregates = {2.0, 0.0, 4.0};
  sparse::CooBuilder ba(3, 4);
  ba.Add(0, 0, 1.0);
  ba.Add(0, 1, 1.0);
  ba.Add(2, 0, 2.0);
  ba.Add(2, 2, 2.0);
  a.disaggregation = ba.Build();

  core::ReferenceAttribute b;
  b.name = "B";
  b.source_aggregates = {1.0, 0.0, 3.0};
  sparse::CooBuilder bb(3, 4);
  bb.Add(0, 1, 1.0);
  bb.Add(2, 2, 1.0);
  bb.Add(2, 3, 2.0);
  b.disaggregation = bb.Build();

  w.input.references = {std::move(a), std::move(b)};

  sparse::CooBuilder bf(3, 4);
  bf.Add(0, 0, 5.0);
  bf.Add(1, 1, 3.0);
  bf.Add(1, 3, 4.0);
  bf.Add(2, 2, 9.0);
  w.fallback = bf.Build();
  return w;
}

TEST(PlanEquivalenceTest, ZeroRowWorldBitIdentical) {
  ZeroRowWorld w = MakeZeroRowWorld();
  SweepAllOptions(w.input, w.fallback);

  // Semantics spot-checks on top of bit-identity: kZero loses row 1's
  // mass, kFallbackDm distributes it by the fallback row.
  core::GeoAlignOptions opts;
  auto zero = std::move(core::GeoAlign(opts).Crosswalk(w.input)).ValueOrDie();
  ASSERT_EQ(zero.zero_rows, (std::vector<size_t>{1}));
  EXPECT_DOUBLE_EQ(linalg::Sum(zero.target_estimates), 5.0 + 9.0);

  opts.zero_row_fallback = core::ZeroRowFallback::kFallbackDm;
  opts.fallback_dm = &w.fallback;
  auto fb = std::move(core::GeoAlign(opts).Crosswalk(w.input)).ValueOrDie();
  ASSERT_EQ(fb.zero_rows, (std::vector<size_t>{1}));
  EXPECT_DOUBLE_EQ(linalg::Sum(fb.target_estimates), 5.0 + 7.0 + 9.0);
  EXPECT_DOUBLE_EQ(fb.estimated_dm.At(1, 1), 7.0 * 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(fb.estimated_dm.At(1, 3), 7.0 * 4.0 / 7.0);

  // Objective 0 on row 0, which has reference support: Eq. 14 gives it
  // +0.0 entries, which the four steps keep. Under kFallbackDm row 1's
  // zero row makes the oracle rebuild DM̂_o through CooBuilder, which
  // drops them, and the kFullDm output must drop exactly those.
  w.input.objective_source = {0.0, 7.0, 9.0};
  SweepAllOptions(w.input, w.fallback);
  opts.zero_row_fallback = core::ZeroRowFallback::kZero;
  zero = std::move(core::GeoAlign(opts).Crosswalk(w.input)).ValueOrDie();
  const sparse::CsrMatrix::RowView kept = zero.estimated_dm.Row(0);
  ASSERT_GT(kept.size, 0u);
  for (size_t k = 0; k < kept.size; ++k) {
    EXPECT_EQ(std::signbit(kept.values[k]), false);
    EXPECT_EQ(kept.values[k], 0.0);
  }
  opts.zero_row_fallback = core::ZeroRowFallback::kFallbackDm;
  fb = std::move(core::GeoAlign(opts).Crosswalk(w.input)).ValueOrDie();
  EXPECT_EQ(fb.estimated_dm.Row(0).size, 0u);
  EXPECT_EQ(fb.estimated_dm.Row(1).size, 2u);
  EXPECT_EQ(fb.estimated_dm.nnz(), zero.estimated_dm.nnz() - kept.size + 2);
}

// Like MakeZeroRowWorld, but both references share one CSR structure
// (identical coordinates, different values) so the compiled plan is
// aligned and ExecutePanelWith runs the panel kernel — with
// source row 1 empty in both references (a zero-denominator row under
// both DenominatorModes: no DM support and zero aggregates).
ZeroRowWorld MakeAlignedZeroRowWorld() {
  ZeroRowWorld w;
  w.input.objective_source = {5.0, 7.0, 9.0};

  core::ReferenceAttribute a;
  a.name = "A";
  a.source_aggregates = {2.0, 0.0, 4.0};
  sparse::CooBuilder ba(3, 4);
  ba.Add(0, 0, 1.0);
  ba.Add(0, 1, 1.0);
  ba.Add(2, 0, 2.0);
  ba.Add(2, 2, 2.0);
  a.disaggregation = ba.Build();

  core::ReferenceAttribute b;
  b.name = "B";
  b.source_aggregates = {1.0, 0.0, 3.0};
  sparse::CooBuilder bb(3, 4);
  bb.Add(0, 0, 0.25);
  bb.Add(0, 1, 0.75);
  bb.Add(2, 0, 1.0);
  bb.Add(2, 2, 2.0);
  b.disaggregation = bb.Build();

  w.input.references = {std::move(a), std::move(b)};

  sparse::CooBuilder bf(3, 4);
  bf.Add(0, 0, 5.0);
  bf.Add(1, 1, 3.0);
  bf.Add(1, 3, 4.0);
  bf.Add(2, 2, 9.0);
  w.fallback = bf.Build();
  return w;
}

TEST(PlanEquivalenceTest, FusedLaneRunsOnAlignedWorld) {
  // Guards the test premises: the dense world and the hand-built
  // zero-row world must compile as aligned (the panel lane engages),
  // the full world must not.
  core::CrosswalkInput dense = MakeAlignedDenseInput();
  ASSERT_EQ(dense.references.size(), 4u);
  auto dense_plan =
      std::move(core::CrosswalkPlan::Compile(dense, core::GeoAlignOptions{}))
          .ValueOrDie();
  EXPECT_TRUE(dense_plan.references().aligned());

  ZeroRowWorld w = MakeAlignedZeroRowWorld();
  auto zero_plan = std::move(core::CrosswalkPlan::Compile(
                                 w.input, core::GeoAlignOptions{}))
                       .ValueOrDie();
  EXPECT_TRUE(zero_plan.references().aligned());

  core::CrosswalkInput world = MakeWorldInput();
  auto world_plan =
      std::move(core::CrosswalkPlan::Compile(world, core::GeoAlignOptions{}))
          .ValueOrDie();
  EXPECT_FALSE(world_plan.references().aligned())
      << "the Poisson layers should have private DM structures";
}

TEST(PlanEquivalenceTest, AlignedDenseWorldBitIdentical) {
  core::CrosswalkInput input = MakeAlignedDenseInput();
  sparse::CsrMatrix fallback = MakeDenseFallback(
      input.NumSourceUnits(), input.NumTargetUnits());
  SweepAllOptions(input, fallback);
}

TEST(PlanEquivalenceTest, LargeAlignedWorldBitIdentical) {
  // 440 source units: each target sums terms from hundreds of rows, so
  // any lane that added Eq. 17's terms in another order than ascending
  // rows would differ from ColSums in the last bits.
  core::CrosswalkInput input = MakeAlignedDenseInput(0.25);
  ASSERT_GT(input.NumSourceUnits(), 256u);
  auto plan =
      std::move(core::CrosswalkPlan::Compile(input, core::GeoAlignOptions{}))
          .ValueOrDie();
  ASSERT_TRUE(plan.references().aligned());
  sparse::CsrMatrix fallback = MakeDenseFallback(
      input.NumSourceUnits(), input.NumTargetUnits());
  SweepAllOptions(input, fallback);
}

TEST(PlanEquivalenceTest, AlignedZeroRowWorldBitIdentical) {
  // The zero-row and fallback-scatter paths of the aggregates-only and
  // panel outputs, against the same legacy oracle (kFallbackDm
  // iterations of the sweep scatter fallback rows inside the pass).
  ZeroRowWorld w = MakeAlignedZeroRowWorld();
  SweepAllOptions(w.input, w.fallback);

  // Semantics spot-check through the aggregates-only output itself.
  core::GeoAlignOptions opts;
  opts.zero_row_fallback = core::ZeroRowFallback::kFallbackDm;
  opts.fallback_dm = &w.fallback;
  auto plan = std::move(core::CrosswalkPlan::Compile(w.input, opts))
                  .ValueOrDie();
  auto fused = std::move(plan.Execute(w.input.objective_source,
                                      core::ExecuteOutput::kAggregatesOnly))
                   .ValueOrDie();
  ASSERT_EQ(fused.zero_rows, (std::vector<size_t>{1}));
  EXPECT_DOUBLE_EQ(linalg::Sum(fused.target_estimates), 5.0 + 7.0 + 9.0);
  EXPECT_EQ(fused.estimated_dm.rows(), 0u);
}

TEST(PlanEquivalenceTest, PreparedWorkspaceServesWithZeroHotPathAllocs) {
  // The steady-state serving promise: once a workspace is Prepared
  // from the plan-compiled spec, repeat executes grow nothing
  // (execute.hot_path_allocs stays flat) and each one counts as a
  // workspace reuse — on one shared structure (the dense layers) and
  // on private ones (a US-shaped leave-one-out input).
  bool saved_enabled = obs::Enabled();
  obs::SetEnabled(true);
  synth::UniverseOptions us_opts;
  us_opts.seed = 2018;
  us_opts.scale = 0.1;
  us_opts.suite = synth::SuiteKind::kUnitedStates;
  const synth::Universe us =
      std::move(synth::BuildUniverse(synth::UniverseId::kUnitedStates,
                                     us_opts))
          .ValueOrDie();
  const std::pair<core::CrosswalkInput, bool> worlds[] = {
      {MakeAlignedDenseInput(), true},
      {std::move(us.MakeLeaveOneOutInput(0)).ValueOrDie(), false},
  };
  for (const auto& [input, aligned] : worlds) {
    SCOPED_TRACE(aligned ? "aligned dense layers" : "US leave-one-out");
    core::GeoAlignOptions opts;
    opts.threads = 1;
    auto plan = std::move(core::CrosswalkPlan::Compile(input, opts))
                    .ValueOrDie();
    ASSERT_EQ(plan.references().aligned(), aligned);
    core::ExecuteWorkspace workspace;
    workspace.Prepare(plan.workspace_spec());

    obs::Counter& allocs = obs::MetricsRegistry::Global().GetCounter(
        "execute.hot_path_allocs");
    obs::Counter& reuse = obs::MetricsRegistry::Global().GetCounter(
        "execute.workspace_reuse");
    uint64_t allocs_before = allocs.Value();
    uint64_t reuse_before = reuse.Value();
    for (int rep = 0; rep < 3; ++rep) {
      auto result = std::move(plan.Execute(
                        input.objective_source,
                        core::ExecuteOutput::kAggregatesOnly, &workspace))
                        .ValueOrDie();
      ASSERT_FALSE(result.target_estimates.empty());
    }
    EXPECT_EQ(allocs.Value(), allocs_before)
        << "a Prepared workspace must serve executes without buffer growth";
    EXPECT_EQ(reuse.Value(), reuse_before + 3);
  }
  obs::SetEnabled(saved_enabled);
}

TEST(PlanEquivalenceTest, FallbackErrorParity) {
  ZeroRowWorld w = MakeZeroRowWorld();
  core::GeoAlignOptions opts;
  opts.zero_row_fallback = core::ZeroRowFallback::kFallbackDm;

  // Missing fallback DM: both paths reject identically (the plan at
  // Compile time, matching the legacy up-front check).
  {
    auto legacy = core::CrosswalkUncompiled(w.input, opts);
    ASSERT_FALSE(legacy.ok());
    auto plan = core::CrosswalkPlan::Compile(w.input, opts);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().message(), legacy.status().message());
    EXPECT_EQ(plan.status().code(), legacy.status().code());
  }

  // Shape-mismatched fallback DM: the legacy path only errors once a
  // zero row actually needs it, so the plan compiles fine and surfaces
  // the identical error at Execute time.
  sparse::CsrMatrix bad(2, 4);
  opts.fallback_dm = &bad;
  {
    auto legacy = core::CrosswalkUncompiled(w.input, opts);
    ASSERT_FALSE(legacy.ok());
    auto plan = std::move(core::CrosswalkPlan::Compile(w.input, opts))
                    .ValueOrDie();
    auto executed = plan.Execute(w.input.objective_source);
    ASSERT_FALSE(executed.ok());
    EXPECT_EQ(executed.status().message(), legacy.status().message());
    EXPECT_EQ(executed.status().code(), legacy.status().code());
  }

  // A NaN, +Inf or negative entry in the zero row's fallback row: the
  // plan's compile and the oracle run the reference DMs' entry check
  // on the fallback DM, so every entry point, the oracle included,
  // rejects it up front with one code and one message.
  for (double poison : {std::nan(""), HUGE_VAL, -1.0}) {
    SCOPED_TRACE(poison);
    sparse::CooBuilder builder(3, 4);
    builder.Add(0, 0, 5.0);
    builder.Add(1, 1, poison);
    builder.Add(1, 3, 4.0);
    builder.Add(2, 2, 9.0);
    const sparse::CsrMatrix poisoned = builder.Build();
    core::GeoAlignOptions poisoned_opts = opts;
    poisoned_opts.fallback_dm = &poisoned;
    const char* kMessage =
        "GeoAlign: fallback DM has a negative or non-finite entry";
    for (const auto& [entry, status] :
         CompileEntryPoints(w.input, poisoned_opts)) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << entry;
      EXPECT_EQ(status.message(), kMessage) << entry;
    }
  }

  // The aggregates-only output, which withholds the mismatched
  // fallback from the row kernel, surfaces the identical error when a
  // zero row actually needs it (on the aligned world too).
  {
    ZeroRowWorld aligned = MakeAlignedZeroRowWorld();
    auto legacy = core::CrosswalkUncompiled(aligned.input, opts);
    ASSERT_FALSE(legacy.ok());
    auto plan = std::move(core::CrosswalkPlan::Compile(aligned.input, opts))
                    .ValueOrDie();
    ASSERT_TRUE(plan.references().aligned());
    auto fused = plan.Execute(aligned.input.objective_source,
                              core::ExecuteOutput::kAggregatesOnly);
    ASSERT_FALSE(fused.ok());
    EXPECT_EQ(fused.status().message(), legacy.status().message());
    EXPECT_EQ(fused.status().code(), legacy.status().code());
  }
}

TEST(PlanEquivalenceTest, PlanIsReusableAndOutlivesInput) {
  core::CrosswalkInput input = MakeWorldInput();
  core::GeoAlignOptions opts;
  opts.threads = 1;
  auto want = std::move(core::CrosswalkUncompiled(input, opts)).ValueOrDie();

  std::optional<core::CrosswalkPlan> plan;
  linalg::Vector objective = input.objective_source;
  {
    // The plan must not alias caller memory: destroy the input (and
    // the interpolator that compiled it) before executing.
    core::CrosswalkInput doomed = input;
    core::GeoAlign geoalign(opts);
    plan.emplace(std::move(geoalign.Compile(doomed)).ValueOrDie());
  }
  for (int rep = 0; rep < 3; ++rep) {
    auto got = std::move(plan->Execute(objective)).ValueOrDie();
    ExpectBitIdentical(got, want);
  }
  // Fanning columns out over threads is a pure scheduling choice on
  // the shared immutable plan.
  const std::vector<common::ColumnView> columns = {objective, objective};
  auto threaded = std::move(plan->ExecuteMany(columns, 4,
                                              core::ExecuteOutput::kFullDm))
                      .ValueOrDie();
  ASSERT_EQ(threaded.size(), 2u);
  for (const core::CrosswalkResult& result : threaded) {
    ExpectBitIdentical(result, want);
  }
}

TEST(PlanEquivalenceTest, PlanCacheHitsMissesEviction) {
  core::CrosswalkInput input = MakeWorldInput();
  core::GeoAlignOptions opts;
  opts.threads = 1;

  core::PlanCache cache(2);
  auto p1 = std::move(cache.GetOrCompile(input.references, opts)).ValueOrDie();
  auto p2 = std::move(cache.GetOrCompile(input.references, opts)).ValueOrDie();
  EXPECT_EQ(p1.get(), p2.get()) << "equal inputs must share one plan";
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // threads is excluded from the key: results are bit-identical across
  // thread counts, so the plan is shared.
  core::GeoAlignOptions threaded = opts;
  threaded.threads = 4;
  auto p3 =
      std::move(cache.GetOrCompile(input.references, threaded)).ValueOrDie();
  EXPECT_EQ(p1.get(), p3.get());
  EXPECT_EQ(cache.stats().hits, 2u);

  // A semantic option change is a different key.
  core::GeoAlignOptions uniform = opts;
  uniform.solver = core::WeightSolver::kUniform;
  auto p4 =
      std::move(cache.GetOrCompile(input.references, uniform)).ValueOrDie();
  EXPECT_NE(p1.get(), p4.get());
  EXPECT_EQ(cache.stats().misses, 2u);

  // Third distinct key in a capacity-2 cache evicts the LRU entry; the
  // caller-held shared_ptr stays valid.
  core::GeoAlignOptions raw = opts;
  raw.scale_mode = core::ScaleMode::kRaw;
  auto p5 = std::move(cache.GetOrCompile(input.references, raw)).ValueOrDie();
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  auto via_evicted =
      std::move(p1->Execute(input.objective_source)).ValueOrDie();
  auto want = std::move(core::CrosswalkUncompiled(input, opts)).ValueOrDie();
  ExpectBitIdentical(via_evicted, want);

  // Reference-content changes are part of the key.
  core::CrosswalkInput other = input;
  other.references[0].source_aggregates[0] *= 2.0;
  auto p6 = std::move(cache.GetOrCompile(other.references, opts)).ValueOrDie();
  EXPECT_NE(p5.get(), p6.get());

  // capacity == 0 disables caching entirely.
  core::PlanCache none(0);
  auto n1 = std::move(none.GetOrCompile(input.references, opts)).ValueOrDie();
  auto n2 = std::move(none.GetOrCompile(input.references, opts)).ValueOrDie();
  EXPECT_NE(n1.get(), n2.get());
  EXPECT_EQ(none.stats().hits, 0u);
  EXPECT_EQ(none.stats().misses, 2u);
  EXPECT_EQ(none.size(), 0u);
}

TEST(PlanEquivalenceTest, CrossValidationWithPlanCacheBitIdentical) {
  // The first PlanCache consumer: a cached cross-validation run must
  // reproduce the uncached report bit-for-bit, and a second run over
  // the same universe must hit every fold's plan.
  synth::Universe universe = MakeWorldUniverse();
  eval::CvOptions options;
  options.dasymetric_references.clear();
  options.run_areal_weighting = false;
  options.geoalign_options.threads = 1;
  auto base = std::move(eval::RunCrossValidation(universe, options))
                  .ValueOrDie();

  core::PlanCache cache(32);
  options.plan_cache = &cache;
  auto cached = std::move(eval::RunCrossValidation(universe, options))
                    .ValueOrDie();
  size_t first_run_misses = cache.stats().misses;
  EXPECT_EQ(first_run_misses, universe.datasets.size())
      << "each leave-one-out fold is a distinct reference subset";
  auto rerun = std::move(eval::RunCrossValidation(universe, options))
                   .ValueOrDie();
  EXPECT_EQ(cache.stats().misses, first_run_misses)
      << "the second run must be served entirely from the cache";
  EXPECT_EQ(cache.stats().hits, universe.datasets.size());

  for (const auto* report : {&cached, &rerun}) {
    ASSERT_EQ(report->cells.size(), base.cells.size());
    for (size_t i = 0; i < base.cells.size(); ++i) {
      EXPECT_EQ(report->cells[i].dataset, base.cells[i].dataset);
      EXPECT_EQ(report->cells[i].method, base.cells[i].method);
      EXPECT_EQ(report->cells[i].nrmse, base.cells[i].nrmse);
      EXPECT_EQ(report->cells[i].rmse, base.cells[i].rmse);
    }
  }
}

std::vector<std::string> MakeUnitNames(const char* prefix, size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(StrFormat("%s%06zu", prefix, i));
  }
  return names;
}

TEST(PlanEquivalenceTest, PipelineRejectsDuplicateUnitNames) {
  ZeroRowWorld w = MakeZeroRowWorld();
  std::vector<std::string> sources = {"s0", "s1", "s0"};
  std::vector<std::string> targets = MakeUnitNames("t", 4);
  auto dup_source = core::CrosswalkPipeline::Create(
      sources, targets, w.input.references);
  ASSERT_FALSE(dup_source.ok());
  EXPECT_EQ(dup_source.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup_source.status().message().find(
                "duplicate source unit name 's0'"),
            std::string::npos)
      << dup_source.status().message();

  auto dup_target = core::CrosswalkPipeline::Create(
      MakeUnitNames("s", 3), {"t0", "t1", "t2", "t1"}, w.input.references);
  ASSERT_FALSE(dup_target.ok());
  EXPECT_EQ(dup_target.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup_target.status().message().find(
                "duplicate target unit name 't1'"),
            std::string::npos)
      << dup_target.status().message();
}

TEST(PlanEquivalenceTest, PipelineServesSharedPlanBitIdentically) {
  core::CrosswalkInput input = MakeWorldInput();
  std::vector<std::string> sources =
      MakeUnitNames("s", input.NumSourceUnits());
  std::vector<std::string> targets =
      MakeUnitNames("t", input.NumTargetUnits());
  auto pipeline = std::move(core::CrosswalkPipeline::Create(
                                sources, targets, input.references))
                      .ValueOrDie();
  ASSERT_NE(pipeline.plan(), nullptr)
      << "a GeoAlign pipeline must compile its plan in Create";

  // A few named columns: full, sparse (missing units read as 0), and
  // one with a repeated unit (values add).
  std::vector<core::CrosswalkPipeline::Column> columns;
  core::CrosswalkPipeline::Column full;
  for (size_t i = 0; i < sources.size(); ++i) {
    full.emplace_back(sources[i], input.objective_source[i]);
  }
  columns.push_back(full);
  core::CrosswalkPipeline::Column sparse_col;
  for (size_t i = 0; i < sources.size(); i += 3) {
    sparse_col.emplace_back(sources[i], 1.0 + static_cast<double>(i));
  }
  columns.push_back(sparse_col);
  core::CrosswalkPipeline::Column repeated = sparse_col;
  repeated.emplace_back(sources[0], 2.5);
  columns.push_back(repeated);

  // RealignMany over the shared plan ≡ looping Realign, for any thread
  // count — and Realign itself ≡ the legacy oracle.
  auto many1 = std::move(pipeline.RealignMany(columns, 1)).ValueOrDie();
  auto many4 = std::move(pipeline.RealignMany(columns, 4)).ValueOrDie();
  ASSERT_EQ(many1.size(), columns.size());
  ASSERT_EQ(many4.size(), columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    SCOPED_TRACE(StrFormat("column %zu", i));
    auto single = std::move(pipeline.Realign(columns[i])).ValueOrDie();
    ExpectBitIdentical(many1[i], single);
    ExpectBitIdentical(many4[i], single);

    core::CrosswalkInput per_call = input;
    per_call.objective_source.assign(sources.size(), 0.0);
    for (const auto& [unit, value] : columns[i]) {
      size_t idx = static_cast<size_t>(
          std::stoul(unit.substr(1)));  // "s%06zu" → index
      per_call.objective_source[idx] += value;
    }
    auto legacy = std::move(core::CrosswalkUncompiled(
                                per_call, core::GeoAlignOptions{}))
                      .ValueOrDie();
    ExpectBitIdentical(single, legacy);
  }

  // A one-column RealignMany at 4 threads runs on the calling thread.
  auto one4 = std::move(pipeline.RealignMany({columns[0]}, 4)).ValueOrDie();
  ASSERT_EQ(one4.size(), 1u);
  ExpectBitIdentical(one4[0],
                     std::move(pipeline.Realign(columns[0])).ValueOrDie());

  // Unknown unit names still error through the hoisted index.
  auto unknown = pipeline.Realign({{"nope", 1.0}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown unit 'nope'"),
            std::string::npos);

  // Error precedence: column 1 fails execute (a NaN value) and column 3
  // fails name resolution; the lowest-index failure wins.
  std::vector<core::CrosswalkPipeline::Column> bad = {
      columns[0], columns[1], columns[2], {{"nope", 1.0}}};
  bad[1].emplace_back(sources[0], std::numeric_limits<double>::quiet_NaN());
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(StrFormat("threads=%zu", threads));
    auto failed = pipeline.RealignMany(bad, threads);
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().message().find("non-finite"), std::string::npos)
        << failed.status().message();
  }
}

TEST(PlanEquivalenceTest, PanelLaneServesWithZeroHotPathAllocs) {
  // The panel-lane steady-state promise: a workspace taken through
  // Prepare + PreparePanel serves whole panels without a single buffer
  // growth (execute.hot_path_allocs stays flat from panel 0).
  bool saved_enabled = obs::Enabled();
  obs::SetEnabled(true);
  {
    core::CrosswalkInput input = MakeAlignedDenseInput();
    core::GeoAlignOptions opts;
    opts.threads = 1;
    auto plan = std::move(core::CrosswalkPlan::Compile(input, opts))
                    .ValueOrDie();
    ASSERT_TRUE(plan.references().aligned());
    constexpr size_t kWidth = 8;
    core::ExecuteWorkspace workspace;
    workspace.Prepare(plan.workspace_spec());
    workspace.PreparePanel(plan.workspace_spec(), kWidth);

    obs::Counter& allocs = obs::MetricsRegistry::Global().GetCounter(
        "execute.hot_path_allocs");
    uint64_t allocs_before = allocs.Value();
    common::ColumnView objs[kWidth];
    std::optional<Result<core::CrosswalkResult>> slots[kWidth];
    std::optional<Result<core::CrosswalkResult>>* slot_ptrs[kWidth];
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t p = 0; p < kWidth; ++p) {
        objs[p] = input.objective_source;
        slots[p].reset();
        slot_ptrs[p] = &slots[p];
      }
      plan.ExecutePanelWith(objs, slot_ptrs, kWidth, &workspace);
      for (auto& slot : slots) {
        ASSERT_TRUE(slot.has_value());
        ASSERT_TRUE(slot->ok());
      }
    }
    EXPECT_EQ(allocs.Value(), allocs_before)
        << "a PreparePanel'd workspace must serve panels without growth";
  }
  obs::SetEnabled(saved_enabled);
}

TEST(PlanEquivalenceTest, CachedPlanExecutesIdenticallyAcrossForcedIsas) {
  // Satellite of the SIMD dispatch: the panel width is an execute-time
  // property derived from the active ISA, NEVER part of the plan or
  // its fingerprint — so one PlanCache entry must serve every ISA with
  // identical bits. ScopedForceIsa is the in-process form of
  // GEOALIGN_FORCE_ISA (tools/ci.sh runs the whole suite under the env
  // form too).
  core::CrosswalkInput input = MakeAlignedDenseInput();
  core::GeoAlignOptions opts;
  opts.threads = 1;
  core::PlanCache cache(4);
  auto plan = std::move(cache.GetOrCompile(input.references, opts))
                  .ValueOrDie();
  ASSERT_TRUE(plan->references().aligned());
  const uint64_t fingerprint = plan->fingerprint();

  // Three distinct objectives so the panel has real lane diversity.
  std::vector<linalg::Vector> objectives;
  objectives.push_back(input.objective_source);
  linalg::Vector scaled = input.objective_source;
  linalg::Scale(scaled, 2.5);
  objectives.push_back(std::move(scaled));
  linalg::Vector shifted = input.objective_source;
  for (size_t i = 0; i < shifted.size(); ++i) {
    shifted[i] += static_cast<double>(i % 7);
  }
  objectives.push_back(std::move(shifted));

  auto run_panel = [&](sparse::simd::Isa isa) {
    sparse::simd::ScopedForceIsa force(isa);
    // The cache key must not see the ISA: a lookup under any forced
    // ISA hits the same entry.
    auto again = std::move(cache.GetOrCompile(input.references, opts))
                     .ValueOrDie();
    EXPECT_EQ(again.get(), plan.get())
        << "forcing an ISA must not change the PlanCache key";
    EXPECT_EQ(plan->fingerprint(), fingerprint);
    EXPECT_GE(plan->panel_width(), 1u);
    EXPECT_LE(plan->panel_width(), sparse::simd::kMaxPanelWidth);

    common::ColumnView objs[3];
    std::optional<Result<core::CrosswalkResult>> slots[3];
    std::optional<Result<core::CrosswalkResult>>* slot_ptrs[3];
    for (size_t p = 0; p < 3; ++p) {
      objs[p] = objectives[p];
      slot_ptrs[p] = &slots[p];
    }
    plan->ExecutePanelWith(objs, slot_ptrs, 3, nullptr);
    std::vector<core::CrosswalkResult> out;
    for (auto& slot : slots) {
      out.push_back(std::move(*slot).ValueOrDie());
    }
    return out;
  };

  auto scalar_results = run_panel(sparse::simd::Isa::kScalar);
  auto native_results = run_panel(sparse::simd::BestSupportedIsa());
  ASSERT_EQ(scalar_results.size(), native_results.size());
  for (size_t p = 0; p < scalar_results.size(); ++p) {
    SCOPED_TRACE(StrFormat("objective %zu", p));
    ExpectAggregatesOnly(native_results[p], scalar_results[p]);
    // And both match the legacy oracle for that objective.
    core::CrosswalkInput per_call = input;
    per_call.objective_source = objectives[p];
    auto legacy = std::move(core::CrosswalkUncompiled(per_call, opts))
                      .ValueOrDie();
    ExpectAggregatesOnly(scalar_results[p], legacy);
  }
}

TEST(PlanEquivalenceTest, AlignedBatchRunServesPanelsBitIdentically) {
  // BatchCrosswalk::Run on an aligned plan takes the panel serving
  // path (RunPanels); every result must still carry exactly the
  // per-call Crosswalk bits, for serial and pooled runs alike — and a
  // wrong-length objective must keep its Batch-specific error.
  core::CrosswalkInput input = MakeAlignedDenseInput();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(StrFormat("threads=%zu", threads));
    core::GeoAlignOptions opts;
    opts.threads = threads;
    auto batch =
        std::move(core::BatchCrosswalk::Create(input.references, opts))
            .ValueOrDie();

    // More objectives than one panel width so the panel loop runs
    // several panels (including a ragged final one).
    std::vector<core::BatchCrosswalk::Objective> objectives;
    for (size_t i = 0; i < 19; ++i) {
      linalg::Vector col = input.objective_source;
      linalg::Scale(col, 1.0 + 0.25 * static_cast<double>(i));
      objectives.push_back({StrFormat("col%zu", i), std::move(col)});
    }
    auto results = std::move(batch.Run(objectives)).ValueOrDie();
    ASSERT_EQ(results.size(), objectives.size());
    core::GeoAlign geoalign(opts);
    for (size_t i = 0; i < objectives.size(); ++i) {
      SCOPED_TRACE(objectives[i].name);
      core::CrosswalkInput per_call = input;
      per_call.objective_source = objectives[i].source;
      auto want = std::move(geoalign.Crosswalk(per_call)).ValueOrDie();
      EXPECT_EQ(results[i].name, objectives[i].name);
      ASSERT_EQ(results[i].target_estimates, want.target_estimates);
      ASSERT_EQ(results[i].weights, want.weights);
      ASSERT_EQ(results[i].zero_rows, want.zero_rows);
    }

    // Error parity through the panel path: the lowest-index failing
    // objective's Batch-specific message is returned.
    std::vector<core::BatchCrosswalk::Objective> bad = objectives;
    bad[3].source = linalg::Vector{1.0, 2.0};
    auto failed = batch.Run(bad);
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().message().find("objective 'col3' wrong length"),
              std::string::npos)
        << failed.status().message();

    // Error precedence: objective 1 fails execute (a NaN value) before
    // objective 3 fails its length check; the lowest index wins.
    bad[1].source[0] = std::numeric_limits<double>::quiet_NaN();
    auto nan_first = batch.Run(bad);
    ASSERT_FALSE(nan_first.ok());
    EXPECT_NE(nan_first.status().message().find("non-finite"),
              std::string::npos)
        << nan_first.status().message();
  }
}

TEST(PlanEquivalenceTest, AlignedPipelineRealignManyServesPanelsBitIdentically) {
  // CrosswalkPipeline::RealignMany(kAggregatesOnly) on an aligned plan
  // takes the panel serving path; results must match the per-column
  // Realign bits at every thread count, with unknown-unit errors still
  // reported per failing column.
  core::CrosswalkInput input = MakeAlignedDenseInput();
  std::vector<std::string> sources =
      MakeUnitNames("s", input.NumSourceUnits());
  std::vector<std::string> targets =
      MakeUnitNames("t", input.NumTargetUnits());
  auto pipeline = std::move(core::CrosswalkPipeline::Create(
                                sources, targets, input.references))
                      .ValueOrDie();
  ASSERT_NE(pipeline.plan(), nullptr);
  ASSERT_TRUE(pipeline.plan()->references().aligned());

  std::vector<core::CrosswalkPipeline::Column> columns;
  for (size_t i = 0; i < 21; ++i) {
    core::CrosswalkPipeline::Column col;
    for (size_t s = 0; s < sources.size(); ++s) {
      col.emplace_back(sources[s], input.objective_source[s] *
                                       (1.0 + 0.125 * static_cast<double>(i)));
    }
    columns.push_back(std::move(col));
  }
  auto many1 =
      std::move(pipeline.RealignMany(columns, 1,
                                     core::ExecuteOutput::kAggregatesOnly))
          .ValueOrDie();
  auto many4 =
      std::move(pipeline.RealignMany(columns, 4,
                                     core::ExecuteOutput::kAggregatesOnly))
          .ValueOrDie();
  ASSERT_EQ(many1.size(), columns.size());
  ASSERT_EQ(many4.size(), columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    SCOPED_TRACE(StrFormat("column %zu", i));
    auto single = std::move(pipeline.Realign(columns[i])).ValueOrDie();
    ExpectAggregatesOnly(many1[i], single);
    ExpectAggregatesOnly(many4[i], single);
  }

  // A column naming an unknown unit fails with its own status while
  // the panel still serves the valid columns around it.
  std::vector<core::CrosswalkPipeline::Column> with_bad = columns;
  with_bad[2] = {{"nope", 1.0}};
  auto failed = pipeline.RealignMany(with_bad, 1,
                                     core::ExecuteOutput::kAggregatesOnly);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("unknown unit 'nope'"),
            std::string::npos)
      << failed.status().message();

  // A one-column RealignMany at 4 threads.
  auto one4 = std::move(pipeline.RealignMany(
                            {columns[0]}, 4,
                            core::ExecuteOutput::kAggregatesOnly))
                  .ValueOrDie();
  ASSERT_EQ(one4.size(), 1u);
  ExpectAggregatesOnly(one4[0],
                       std::move(pipeline.Realign(columns[0])).ValueOrDie());

  // Error precedence: column 1 fails execute (a NaN value) and column 3
  // fails name resolution; the lowest-index failure wins.
  std::vector<core::CrosswalkPipeline::Column> nan_first = columns;
  nan_first[1].emplace_back(sources[0],
                            std::numeric_limits<double>::quiet_NaN());
  nan_first[3] = {{"nope", 1.0}};
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(StrFormat("threads=%zu", threads));
    auto precedence = pipeline.RealignMany(
        nan_first, threads, core::ExecuteOutput::kAggregatesOnly);
    ASSERT_FALSE(precedence.ok());
    EXPECT_NE(precedence.status().message().find("non-finite"),
              std::string::npos)
        << precedence.status().message();
  }

  // Telemetry: a 64-column call at 4 threads closes one execute.panel
  // span per panel and one execute.weight_solve span per column, each
  // a sample of its latency histogram.
  const bool saved_enabled = obs::Enabled();
  obs::SetEnabled(true);
  std::vector<core::CrosswalkPipeline::Column> wide;
  for (size_t i = 0; i < 64; ++i) wide.push_back(columns[i % columns.size()]);
  obs::Histogram& panel_latency =
      obs::MetricsRegistry::Global().GetHistogram("execute.panel.latency_us");
  obs::Histogram& solve_latency = obs::MetricsRegistry::Global().GetHistogram(
      "execute.weight_solve.latency_us");
  const uint64_t panels_before = panel_latency.Count();
  const uint64_t solves_before = solve_latency.Count();
  ASSERT_TRUE(pipeline
                  .RealignMany(wide, 4, core::ExecuteOutput::kAggregatesOnly)
                  .ok());
  const size_t width = pipeline.plan()->panel_width();
  EXPECT_EQ(panel_latency.Count() - panels_before, (64 + width - 1) / width);
  EXPECT_EQ(solve_latency.Count() - solves_before, 64u);
  obs::SetEnabled(saved_enabled);
}

TEST(PlanEquivalenceTest, BatchMatchesCrosswalkBitIdentically) {
  core::CrosswalkInput input = MakeWorldInput();
  for (core::WeightSolver solver :
       {core::WeightSolver::kSimplex, core::WeightSolver::kNnlsNormalized,
        core::WeightSolver::kClampedLs, core::WeightSolver::kUniform}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(StrFormat("solver=%d threads=%zu", static_cast<int>(solver),
                             threads));
      core::GeoAlignOptions opts;
      opts.solver = solver;
      opts.threads = threads;
      auto batch =
          std::move(core::BatchCrosswalk::Create(input.references, opts))
              .ValueOrDie();

      std::vector<core::BatchCrosswalk::Objective> objectives;
      objectives.push_back({"base", input.objective_source});
      linalg::Vector scaled = input.objective_source;
      linalg::Scale(scaled, 3.25);
      objectives.push_back({"scaled", std::move(scaled)});

      auto results = std::move(batch.Run(objectives)).ValueOrDie();
      ASSERT_EQ(results.size(), objectives.size());
      core::GeoAlign geoalign(opts);
      for (size_t i = 0; i < objectives.size(); ++i) {
        SCOPED_TRACE(objectives[i].name);
        core::CrosswalkInput per_call = input;
        per_call.objective_source = objectives[i].source;
        auto want = std::move(geoalign.Crosswalk(per_call)).ValueOrDie();
        EXPECT_EQ(results[i].name, objectives[i].name);
        ASSERT_EQ(results[i].target_estimates, want.target_estimates);
        ASSERT_EQ(results[i].weights, want.weights);
        ASSERT_EQ(results[i].zero_rows, want.zero_rows);
      }

      // Error precedence: objective 1 fails execute (a NaN value) and
      // objective 3 its length check; the lowest index wins.
      std::vector<core::BatchCrosswalk::Objective> bad = {
          objectives[0], objectives[1], objectives[0], objectives[1]};
      bad[1].source[0] = std::numeric_limits<double>::quiet_NaN();
      bad[3].source = linalg::Vector{1.0, 2.0};
      auto failed = batch.Run(bad);
      ASSERT_FALSE(failed.ok());
      EXPECT_NE(failed.status().message().find("non-finite"), std::string::npos)
          << failed.status().message();
    }
  }
}

}  // namespace
}  // namespace geoalign
