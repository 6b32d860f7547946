#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "sparse/prepared_reference.h"

namespace perfbench {

using geoalign::common::ConstSpan;
using geoalign::core::CrosswalkResult;

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double TailQuantile(size_t n) {
  if (n == 0) return 0.9;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::clamp(q, 0.5, 0.9);
}

void Checker::BeginRequest() {
  in_request_ = true;
  request_failed_ = false;
}

void Checker::EndRequest() {
  ++attempted_;
  if (request_failed_) ++failed_;
  in_request_ = false;
}

bool Checker::Expect(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return true;
  if (in_request_) {
    request_failed_ = true;
  } else {
    ++failed_outside_;
  }
  if (messages_++ < 10) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  return false;
}

Expected ExpectedFrom(const CrosswalkResult& result) {
  return Expected{result.target_estimates, result.weights, result.zero_rows};
}

bool SameBits(ConstSpan<double> a, ConstSpan<double> b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void CheckResult(const CrosswalkResult& got, const Expected& want,
                 ConstSpan<double> objective, const std::string& what,
                 Checker& check) {
  check.Expect(SameBits(got.target_estimates, want.target_estimates),
               what + ": target estimates differ from the oracle");
  check.Expect(SameBits(got.weights, want.weights),
               what + ": weights differ from the oracle");
  check.Expect(got.zero_rows == want.zero_rows,
               what + ": zero rows differ from the oracle");
  double total = 0.0;
  for (size_t i = 0; i < objective.size(); ++i) total += objective[i];
  double realigned = 0.0;
  for (double v : got.target_estimates) realigned += v;
  for (size_t row : got.zero_rows) {
    if (row < objective.size()) realigned += objective[row];
  }
  check.Expect(std::fabs(realigned - total) <= 1e-9 * std::fabs(total),
               what + ": Eq. 16 volume preservation violated");
}

bool SameCsr(const geoalign::sparse::CsrMatrix& a,
             const geoalign::sparse::CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.row_ptr().begin(), a.row_ptr().end(),
                    b.row_ptr().begin(), b.row_ptr().end()) &&
         std::equal(a.col_idx().begin(), a.col_idx().end(),
                    b.col_idx().begin(), b.col_idx().end()) &&
         SameBits(a.values(), b.values());
}

void TimeAlongside(const std::vector<geoalign::core::ReferenceAttribute>& refs,
                   const geoalign::core::CrosswalkPlan& plan,
                   const geoalign::linalg::Vector& objective,
                   const Expected& oracle, Alongside calls, Tracer* tracer,
                   Checker& check) {
  if (calls.compile) {
    ScopedSpan span(tracer, "core.compile");
    auto compiled = geoalign::core::CrosswalkPlan::Compile(refs, PinnedOptions());
    span.End();
    check.ExpectOk(compiled.status(), "Compile");
  }
  {
    // Owning copies, made outside the span.
    std::vector<geoalign::sparse::ReferenceData> data;
    for (const geoalign::core::ReferenceAttribute& ref : refs) {
      data.push_back({ref.name, ref.source_aggregates, ref.disaggregation});
    }
    ScopedSpan span(tracer, "sparse.prepare");
    auto prepared =
        geoalign::sparse::PreparedReferenceSet::Prepare(std::move(data));
    span.End();
    check.ExpectOk(prepared.status(), "Prepare");
  }
  {
    ScopedSpan span(tracer, "linalg.learn_weights");
    auto weights = plan.LearnWeights(objective);
    span.End();
    if (check.ExpectOk(weights.status(), "LearnWeights")) {
      check.Expect(SameBits(*weights, oracle.weights),
                   "LearnWeights differs from the oracle weights");
    }
  }
  for (bool materialize : {true, false}) {
    if (!(materialize ? calls.execute_dm : calls.execute_agg)) continue;
    const char* lane = materialize ? "core.execute_dm" : "core.execute_agg";
    ScopedSpan span(tracer, lane);
    auto result =
        materialize
            ? plan.Execute(objective)
            : plan.Execute(objective,
                           geoalign::core::ExecuteOutput::kAggregatesOnly);
    span.End();
    if (check.ExpectOk(result.status(), lane)) {
      CheckResult(*result, oracle, objective, lane, check);
    }
  }
}

double FingerprintBytes(
    const std::vector<geoalign::core::ReferenceAttribute>& references) {
  double bytes = 0.0;
  for (const geoalign::core::ReferenceAttribute& ref : references) {
    const geoalign::sparse::CsrMatrix& dm = ref.disaggregation;
    bytes += static_cast<double>(ref.name.size());
    bytes += static_cast<double>(ref.source_aggregates.size() * sizeof(double));
    bytes += static_cast<double>(dm.row_ptr().size() * sizeof(size_t));
    bytes += static_cast<double>(dm.col_idx().size() * sizeof(size_t));
    bytes += static_cast<double>(dm.values().size() * sizeof(double));
  }
  return bytes;
}

geoalign::core::GeoAlignOptions PinnedOptions() {
  geoalign::core::GeoAlignOptions options;
  options.threads = kThreads;
  return options;
}

}  // namespace perfbench
