// Differential harness for the C ABI (capi/geoalign_c.h): everything
// observable through libgeoalign_c — target estimates, weights, plan
// shape, fingerprints, error behavior — must be bit-identical to the
// C++ compile/execute path on the same bytes, whichever ingest flavor
// (borrowed CSR or copied COO) carried the matrices in.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "capi/geoalign_c.h"
#include "compile_entry_points.h"
#include "core/crosswalk_plan.h"
#include "core/geoalign.h"
#include "core/regression.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sparse/csr_matrix.h"
#include "test_temp_path.h"

namespace geoalign {
namespace {

// The same two-reference aligned world as view_layer_test.cc.
struct CWorld {
  std::vector<size_t> row_ptr = {0, 2, 4, 5};
  std::vector<size_t> col_idx = {0, 1, 0, 1, 1};
  std::vector<double> values_a = {1.0, 2.0, 3.0, 1.0, 4.0};
  std::vector<double> values_b = {2.0, 1.0, 1.0, 2.0, 3.0};
  std::vector<double> agg_a = {3.0, 4.0, 4.0};
  std::vector<double> agg_b = {3.0, 3.0, 3.0};
  std::vector<double> objective = {10.0, 20.0, 30.0};

  geoalign_csr CsrA() const {
    return {3, 2, row_ptr.data(), col_idx.data(), values_a.data()};
  }
  geoalign_csr CsrB() const {
    return {3, 2, row_ptr.data(), col_idx.data(), values_b.data()};
  }

  std::vector<geoalign_coo_entry> CooOf(const std::vector<double>& vals) const {
    std::vector<geoalign_coo_entry> out;
    for (size_t r = 0; r < 3; ++r) {
      for (size_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
        out.push_back({r, col_idx[i], vals[i]});
      }
    }
    return out;
  }

  core::CrosswalkInput Owning() const {
    core::CrosswalkInput input;
    input.objective_source = objective;
    core::ReferenceAttribute a;
    a.name = std::string("a");
    a.source_aggregates = agg_a;
    a.disaggregation =
        std::move(sparse::CsrMatrix::FromCsrArrays(3, 2, row_ptr, col_idx,
                                                   values_a))
            .ValueOrDie();
    input.references.push_back(std::move(a));
    core::ReferenceAttribute b;
    b.name = std::string("b");
    b.source_aggregates = agg_b;
    b.disaggregation =
        std::move(sparse::CsrMatrix::FromCsrArrays(3, 2, row_ptr, col_idx,
                                                   values_b))
            .ValueOrDie();
    input.references.push_back(std::move(b));
    return input;
  }
};

geoalign_reference CsrRef(const char* name, const std::vector<double>& agg,
                          const geoalign_csr* csr) {
  geoalign_reference ref = {};
  ref.name = name;
  ref.source_aggregates = agg.data();
  ref.csr = csr;
  return ref;
}

TEST(CapiTest, AbiVersionMatchesHeader) {
  EXPECT_EQ(geoalign_abi_version(), uint32_t{GEOALIGN_ABI_VERSION});
}

TEST(CapiTest, CsrIngestIsBitIdenticalToCppPath) {
  CWorld w;
  auto cpp_plan = std::move(core::CrosswalkPlan::Compile(
                                w.Owning(), core::GeoAlignOptions{}))
                      .ValueOrDie();
  auto cpp_result = std::move(cpp_plan.Execute(w.objective)).ValueOrDie();

  const geoalign_csr csr_a = w.CsrA();
  const geoalign_csr csr_b = w.CsrB();
  geoalign_reference refs[2] = {CsrRef("a", w.agg_a, &csr_a),
                                CsrRef("b", w.agg_b, &csr_b)};
  geoalign_plan* plan = nullptr;
  ASSERT_EQ(geoalign_plan_compile(refs, 2, &plan), GEOALIGN_OK)
      << geoalign_error_message();
  EXPECT_EQ(geoalign_plan_num_source_units(plan), 3u);
  EXPECT_EQ(geoalign_plan_num_target_units(plan), 2u);
  EXPECT_EQ(geoalign_plan_num_references(plan), 2u);
  // Same bytes -> same plan fingerprint, whatever the ingest path.
  EXPECT_EQ(geoalign_plan_fingerprint(plan), cpp_plan.fingerprint());

  double target[2] = {0.0, 0.0};
  double weights[2] = {0.0, 0.0};
  ASSERT_EQ(geoalign_plan_execute(plan, w.objective.data(), 3, target,
                                  weights),
            GEOALIGN_OK)
      << geoalign_error_message();
  EXPECT_EQ(0, std::memcmp(target, cpp_result.target_estimates.data(),
                           sizeof(target)));
  EXPECT_EQ(0,
            std::memcmp(weights, cpp_result.weights.data(), sizeof(weights)));
  geoalign_plan_destroy(plan);
}

TEST(CapiTest, CooIngestMatchesCsrIngestExactly) {
  CWorld w;
  const geoalign_csr csr_a = w.CsrA();
  const geoalign_csr csr_b = w.CsrB();
  geoalign_reference csr_refs[2] = {CsrRef("a", w.agg_a, &csr_a),
                                    CsrRef("b", w.agg_b, &csr_b)};
  geoalign_plan* csr_plan = nullptr;
  ASSERT_EQ(geoalign_plan_compile(csr_refs, 2, &csr_plan), GEOALIGN_OK);

  const std::vector<geoalign_coo_entry> coo_a = w.CooOf(w.values_a);
  const std::vector<geoalign_coo_entry> coo_b = w.CooOf(w.values_b);
  geoalign_reference coo_refs[2] = {};
  coo_refs[0].name = "a";
  coo_refs[0].source_aggregates = w.agg_a.data();
  coo_refs[0].coo = coo_a.data();
  coo_refs[0].coo_count = coo_a.size();
  coo_refs[0].coo_rows = 3;
  coo_refs[0].coo_cols = 2;
  coo_refs[1].name = "b";
  coo_refs[1].source_aggregates = w.agg_b.data();
  coo_refs[1].coo = coo_b.data();
  coo_refs[1].coo_count = coo_b.size();
  coo_refs[1].coo_rows = 3;
  coo_refs[1].coo_cols = 2;
  geoalign_plan* coo_plan = nullptr;
  ASSERT_EQ(geoalign_plan_compile(coo_refs, 2, &coo_plan), GEOALIGN_OK)
      << geoalign_error_message();

  EXPECT_EQ(geoalign_plan_fingerprint(coo_plan),
            geoalign_plan_fingerprint(csr_plan));

  double t_csr[2], t_coo[2];
  ASSERT_EQ(geoalign_plan_execute(csr_plan, w.objective.data(), 3, t_csr,
                                  nullptr),
            GEOALIGN_OK);
  ASSERT_EQ(geoalign_plan_execute(coo_plan, w.objective.data(), 3, t_coo,
                                  nullptr),
            GEOALIGN_OK);
  EXPECT_EQ(0, std::memcmp(t_csr, t_coo, sizeof(t_csr)));

  geoalign_plan_destroy(csr_plan);
  geoalign_plan_destroy(coo_plan);
}

TEST(CapiTest, CompileErrorsAreReported) {
  CWorld w;
  geoalign_plan* plan = nullptr;

  // NULL out_plan.
  const geoalign_csr csr_a = w.CsrA();
  geoalign_reference ref = CsrRef("a", w.agg_a, &csr_a);
  EXPECT_EQ(geoalign_plan_compile(&ref, 1, nullptr),
            GEOALIGN_ERR_INVALID_ARGUMENT);

  // Neither csr nor coo.
  geoalign_reference neither = {};
  neither.name = "a";
  neither.source_aggregates = w.agg_a.data();
  EXPECT_EQ(geoalign_plan_compile(&neither, 1, &plan),
            GEOALIGN_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(geoalign_error_message()).find("exactly one"),
            std::string::npos);

  // COO entry out of range.
  geoalign_coo_entry oob = {7, 0, 1.0};
  geoalign_reference coo_ref = {};
  coo_ref.name = "a";
  coo_ref.source_aggregates = w.agg_a.data();
  coo_ref.coo = &oob;
  coo_ref.coo_count = 1;
  coo_ref.coo_rows = 3;
  coo_ref.coo_cols = 2;
  EXPECT_EQ(geoalign_plan_compile(&coo_ref, 1, &plan),
            GEOALIGN_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(geoalign_error_message()).find("out of range"),
            std::string::npos);

  // Reference `a` of the two-reference world, mutated, through every
  // entry point: the status of each C++ path that compiles it, then
  // CrosswalkInput::Validate, then geoalign_plan_compile.
  const sparse::CsrMatrix dm_b =
      std::move(sparse::CsrMatrix::FromCsrArrays(3, 2, w.row_ptr, w.col_idx,
                                                 w.values_b))
          .ValueOrDie();
  auto input_of = [&](const std::vector<core::ReferenceAttribute>& refs) {
    core::CrosswalkInput input;
    input.objective_source = w.objective;
    input.references = refs;
    return input;
  };
  auto compile_paths = [&](const std::vector<core::ReferenceAttribute>& refs) {
    return CompileEntryPoints(input_of(refs));
  };

  // No references: one message on every entry point, the oracle too.
  for (const auto& [entry, status] : compile_paths({})) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << entry;
    EXPECT_EQ(status.message(), "no reference attributes") << entry;
  }
  EXPECT_EQ(input_of({}).Validate().message(), "no reference attributes");
  EXPECT_EQ(
      core::RegressionBaseline().Crosswalk(input_of({})).status().message(),
      "no reference attributes");
  EXPECT_EQ(geoalign_plan_compile(nullptr, 0, &plan),
            GEOALIGN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(plan, nullptr);
  EXPECT_EQ(std::string(geoalign_error_message()), "no reference attributes");

  // Rejected with one message on every entry point: CSR structure by
  // CsrMatrix::FromCsrArrays, shapes and values by
  // sparse::CheckReference.
  struct Mutation {
    std::vector<size_t> row_ptr;
    std::vector<size_t> col_idx;
    std::vector<double> values;
    std::vector<double> aggregates;
    const char* message;
  };
  const double nan = std::nan("");
  const Mutation mutations[] = {
      // Not {0, 3, 2, 5}: that trips the column-order check first.
      {{0, 2, 1, 5}, w.col_idx, w.values_a, w.agg_a,
       "CSR: row_ptr not monotone"},
      {w.row_ptr, {0, 1, 0, 7, 1}, w.values_a, w.agg_a,
       "CSR: column index out of range"},
      {w.row_ptr, w.col_idx, {1.0, 2.0, 3.0, nan, 4.0}, w.agg_a,
       "reference 'a': negative or non-finite DM entry"},
      {w.row_ptr, w.col_idx, {1.0, 2.0, 3.0, HUGE_VAL, 4.0}, w.agg_a,
       "reference 'a': negative or non-finite DM entry"},
      {w.row_ptr, w.col_idx, {1.0, 2.0, 3.0, -1.0, 4.0}, w.agg_a,
       "reference 'a': negative or non-finite DM entry"},
      {w.row_ptr, w.col_idx, w.values_a, {3.0, nan, 4.0},
       "reference 'a': NormalizeByMax: non-finite aggregate encountered"},
      {w.row_ptr, w.col_idx, w.values_a, {3.0, -1.0, 4.0},
       "reference 'a': NormalizeByMax: negative aggregate encountered"},
      // All zero, DM included, so the rows still sum to the aggregates.
      {w.row_ptr, w.col_idx, {0.0, 0.0, 0.0, 0.0, 0.0}, {0.0, 0.0, 0.0},
       "reference 'a': NormalizeByMax: all-zero vector"},
      {w.row_ptr, w.col_idx, w.values_a, {3.0, 4.0},
       "reference 'a': source vector has 2 entries, expected 3"},
  };
  for (const Mutation& m : mutations) {
    SCOPED_TRACE(m.message);
    Result<sparse::CsrMatrix> dm =
        sparse::CsrMatrix::FromCsrArrays(3, 2, m.row_ptr, m.col_idx, m.values);
    if (!dm.ok()) {
      EXPECT_EQ(dm.status().message(), m.message);
    } else {
      const std::vector<core::ReferenceAttribute> refs = {
          {"a", m.aggregates, std::move(dm).value()}, {"b", w.agg_b, dm_b}};
      for (const auto& [entry, status] : compile_paths(refs)) {
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << entry;
        EXPECT_EQ(status.message(), m.message) << entry;
      }
      const Status validated = input_of(refs).Validate();
      EXPECT_EQ(validated.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(validated.message(), m.message);
    }

    // The C struct carries no aggregate length: geoalign_plan_compile
    // reads one aggregate per DM row.
    if (m.aggregates.size() != 3) continue;
    const geoalign_csr csr = {3, 2, m.row_ptr.data(), m.col_idx.data(),
                              m.values.data()};
    const geoalign_csr csr_b = w.CsrB();
    geoalign_reference mutated[2] = {CsrRef("a", m.aggregates, &csr),
                                     CsrRef("b", w.agg_b, &csr_b)};
    EXPECT_EQ(geoalign_plan_compile(mutated, 2, &plan),
              GEOALIGN_ERR_INVALID_ARGUMENT);
    EXPECT_EQ(plan, nullptr);
    EXPECT_EQ(std::string(geoalign_error_message()), m.message);
  }

  // Zero target units (two 2 x 0 DMs): rejected by the shape check,
  // with one message on every entry point.
  {
    const char* kNoTargets = "reference 'a': DM has zero target units";
    const std::vector<size_t> no_entries = {0, 0, 0};
    const std::vector<double> ones = {1.0, 1.0};
    const sparse::CsrMatrix no_targets =
        std::move(sparse::CsrMatrix::FromCsrArrays(2, 0, no_entries, {}, {}))
            .ValueOrDie();
    core::CrosswalkInput input;
    input.objective_source = {10.0, 20.0};
    input.references = {{"a", ones, no_targets}, {"b", ones, no_targets}};
    for (const auto& [entry, status] : CompileEntryPoints(input)) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << entry;
      EXPECT_EQ(status.message(), kNoTargets) << entry;
    }
    const Status validated = input.Validate();
    EXPECT_EQ(validated.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(validated.message(), kNoTargets);
    const geoalign_csr csr = {2, 0, no_entries.data(), nullptr, nullptr};
    geoalign_reference refs[2] = {CsrRef("a", ones, &csr),
                                  CsrRef("b", ones, &csr)};
    EXPECT_EQ(geoalign_plan_compile(refs, 2, &plan),
              GEOALIGN_ERR_INVALID_ARGUMENT);
    EXPECT_EQ(plan, nullptr);
    EXPECT_EQ(std::string(geoalign_error_message()), kNoTargets);
  }

  // Aggregates that contradict the matrix row sums: every compile path
  // accepts them (Eq. 16 stays exact under kFromDmRowSums), while
  // Validate and the C ABI reject them with one message.
  std::vector<double> bad_agg = {100.0, 4.0, 4.0};
  const std::vector<core::ReferenceAttribute> gap_refs = {
      {"a", bad_agg,
       std::move(sparse::CsrMatrix::FromCsrArrays(3, 2, w.row_ptr, w.col_idx,
                                                  w.values_a))
           .ValueOrDie()},
      {"b", w.agg_b, dm_b}};
  for (const auto& [entry, status] : compile_paths(gap_refs)) {
    EXPECT_TRUE(status.ok()) << entry << ": " << status.message();
  }
  const Status gap = input_of(gap_refs).Validate();
  EXPECT_EQ(gap.code(), StatusCode::kFailedPrecondition);
  const geoalign_csr csr_b = w.CsrB();
  geoalign_reference bad[2] = {CsrRef("a", bad_agg, &csr_a),
                               CsrRef("b", w.agg_b, &csr_b)};
  EXPECT_EQ(geoalign_plan_compile(bad, 2, &plan), GEOALIGN_ERR_FAILED);
  EXPECT_EQ(plan, nullptr);
  EXPECT_EQ(std::string(geoalign_error_message()), gap.message());
  EXPECT_NE(std::string(geoalign_error_message()).find("row 0"),
            std::string::npos);
}

// A bad objective column fails with one message on every entry point
// that reads one: CrosswalkInput::Validate, the one-shot and
// weights-only C++ calls, both execute outputs, ExecuteMany, the
// oracle and geoalign_plan_execute.
TEST(CapiTest, ObjectiveErrorsAreReported) {
  CWorld w;
  const core::CrosswalkInput world = w.Owning();
  const core::CrosswalkPlan plan =
      std::move(core::CrosswalkPlan::Compile(world, {})).ValueOrDie();
  const geoalign_csr csr_a = w.CsrA();
  const geoalign_csr csr_b = w.CsrB();
  geoalign_reference refs[2] = {CsrRef("a", w.agg_a, &csr_a),
                                CsrRef("b", w.agg_b, &csr_b)};
  geoalign_plan* c_plan = nullptr;
  ASSERT_EQ(geoalign_plan_compile(refs, 2, &c_plan), GEOALIGN_OK);

  const struct {
    std::vector<double> objective;
    const char* message;
  } cases[] = {
      {{10.0, 20.0}, "objective: source vector has 2 entries, expected 3"},
      {{10.0, std::nan(""), 30.0},
       "objective: NormalizeByMax: non-finite aggregate encountered"},
      {{10.0, HUGE_VAL, 30.0},
       "objective: NormalizeByMax: non-finite aggregate encountered"},
      {{10.0, -1.0, 30.0},
       "objective: NormalizeByMax: negative aggregate encountered"},
      {{0.0, 0.0, 0.0}, "objective: NormalizeByMax: all-zero vector"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    core::CrosswalkInput input = world;
    input.objective_source = c.objective;
    const std::vector<common::ColumnView> column = {c.objective};
    const std::pair<std::string, Status> entries[] = {
        {"Validate", input.Validate()},
        {"Crosswalk", core::GeoAlign().Crosswalk(input).status()},
        {"LearnWeights", core::GeoAlign().LearnWeights(input).status()},
        {"Execute(kFullDm)", plan.Execute(c.objective).status()},
        {"Execute(kAggregatesOnly)",
         plan.Execute(c.objective, core::ExecuteOutput::kAggregatesOnly)
             .status()},
        {"ExecuteMany(kFullDm)",
         plan.ExecuteMany(column, 1, core::ExecuteOutput::kFullDm).status()},
        {"ExecuteMany(kAggregatesOnly)",
         plan.ExecuteMany(column, 1, core::ExecuteOutput::kAggregatesOnly)
             .status()},
        {"CrosswalkUncompiled",
         core::CrosswalkUncompiled(input, {}).status()},
    };
    for (const auto& [entry, status] : entries) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << entry;
      EXPECT_EQ(status.message(), c.message) << entry;
    }
    double target[2];
    EXPECT_EQ(geoalign_plan_execute(c_plan, c.objective.data(),
                                    c.objective.size(), target, nullptr),
              GEOALIGN_ERR_INVALID_ARGUMENT);
    EXPECT_EQ(std::string(geoalign_error_message()), c.message);
  }
  geoalign_plan_destroy(c_plan);
}

TEST(CapiTest, ExecuteErrorsAreReported) {
  CWorld w;
  const geoalign_csr csr_a = w.CsrA();
  geoalign_reference ref = CsrRef("a", w.agg_a, &csr_a);
  geoalign_plan* plan = nullptr;
  ASSERT_EQ(geoalign_plan_compile(&ref, 1, &plan), GEOALIGN_OK);

  double target[2];
  EXPECT_EQ(geoalign_plan_execute(nullptr, w.objective.data(), 3, target,
                                  nullptr),
            GEOALIGN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(geoalign_plan_execute(plan, w.objective.data(), 3, nullptr,
                                  nullptr),
            GEOALIGN_ERR_INVALID_ARGUMENT);
  // Wrong objective length surfaces the C++ validation failure, an
  // invalid argument.
  EXPECT_EQ(geoalign_plan_execute(plan, w.objective.data(), 2, target,
                                  nullptr),
            GEOALIGN_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(geoalign_error_message()).size(), 0u);
  geoalign_plan_destroy(plan);
}

// A NaN or ±Inf objective entry is refused with the C++ message, not
// turned into NaN or Inf estimates.
TEST(CapiTest, NonFiniteObjectiveIsRejected) {
  CWorld w;
  const geoalign_csr csr_a = w.CsrA();
  geoalign_reference ref = CsrRef("a", w.agg_a, &csr_a);
  geoalign_plan* plan = nullptr;
  ASSERT_EQ(geoalign_plan_compile(&ref, 1, &plan), GEOALIGN_OK);
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    std::vector<double> objective = w.objective;
    objective[1] = bad;
    double target[2];
    EXPECT_EQ(geoalign_plan_execute(plan, objective.data(), 3, target,
                                    nullptr),
              GEOALIGN_ERR_INVALID_ARGUMENT)
        << bad;
    EXPECT_NE(std::string(geoalign_error_message()).find("non-finite"),
              std::string::npos);
  }
  geoalign_plan_destroy(plan);
}

TEST(CapiTest, NullHandleAccessorsAreSafe) {
  EXPECT_EQ(geoalign_plan_num_source_units(nullptr), 0u);
  EXPECT_EQ(geoalign_plan_num_target_units(nullptr), 0u);
  EXPECT_EQ(geoalign_plan_num_references(nullptr), 0u);
  EXPECT_EQ(geoalign_plan_fingerprint(nullptr), 0u);
  geoalign_plan_destroy(nullptr);  // no-op
}

// The C metrics export is the SAME serializer the C++ side uses:
// byte-identical output for a quiescent registry, in every format.
TEST(CapiTest, MetricsExportMatchesCppSerializerByteForByte) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const std::pair<int, obs::MetricsFormat> formats[] = {
      {GEOALIGN_METRICS_FORMAT_PROMETHEUS, obs::MetricsFormat::kPrometheus},
      {GEOALIGN_METRICS_FORMAT_JSON, obs::MetricsFormat::kJson},
      {GEOALIGN_METRICS_FORMAT_TEXT, obs::MetricsFormat::kText},
  };
  for (const auto& [c_format, cpp_format] : formats) {
    char* data = nullptr;
    size_t len = 0;
    ASSERT_EQ(geoalign_metrics_export(c_format, &data, &len), GEOALIGN_OK);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(std::strlen(data), len);  // NUL-terminated, len excludes NUL
    const std::string want = obs::FormatMetricsSnapshot(snapshot, cpp_format);
    EXPECT_EQ(std::string(data, len), want) << "format " << c_format;
    geoalign_buffer_free(data);
  }
}

TEST(CapiTest, MetricsExportRejectsBadArguments) {
  char* data = nullptr;
  EXPECT_EQ(geoalign_metrics_export(42, &data, nullptr),
            GEOALIGN_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(geoalign_metrics_export(GEOALIGN_METRICS_FORMAT_JSON, nullptr,
                                    nullptr),
            GEOALIGN_ERR_INVALID_ARGUMENT);
  // out_len is optional.
  EXPECT_EQ(geoalign_metrics_export(GEOALIGN_METRICS_FORMAT_JSON, &data,
                                    nullptr),
            GEOALIGN_OK);
  ASSERT_NE(data, nullptr);
  geoalign_buffer_free(data);
  geoalign_buffer_free(nullptr);  // no-op
}

TEST(CapiTest, FlightRecorderDumpWritesParseableFile) {
  CWorld w;
  const geoalign_csr csr_a = w.CsrA();
  geoalign_reference ref = CsrRef("a", w.agg_a, &csr_a);
  geoalign_plan* plan = nullptr;
  ASSERT_EQ(geoalign_plan_compile(&ref, 1, &plan), GEOALIGN_OK);
  double target[2];
  ASSERT_EQ(geoalign_plan_execute(plan, w.objective.data(), 3, target,
                                  nullptr),
            GEOALIGN_OK);
  geoalign_plan_destroy(plan);

  const std::string path = TestTempPath(".jsonl");
  ASSERT_EQ(geoalign_flight_recorder_dump(path.c_str()), GEOALIGN_OK);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  EXPECT_NE(line.find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(line.find("\"reason\":\"demand\""), std::string::npos);
  ASSERT_TRUE(std::getline(in, line));  // the execute's audit record
  EXPECT_NE(line.find("\"type\":\"audit\""), std::string::npos);
  std::remove(path.c_str());

  EXPECT_EQ(geoalign_flight_recorder_dump(nullptr),
            GEOALIGN_ERR_INVALID_ARGUMENT);
}

}  // namespace
}  // namespace geoalign
