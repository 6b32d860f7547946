#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "core/geoalign.h"
#include "tracer.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Input scale (1 = the full US universe); the self-test uses less.
  double scale = 1.0;
  /// Directory for the run report and the Chrome trace ("" = none).
  std::string out_dir;
};

/// Library thread pools are pinned to this many threads.
inline constexpr size_t kThreads = 4;

/// One reported figure. `computed` marks values derived from array
/// sizes rather than measured.
struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool computed = false;
  /// Non-numeric value (e.g. the active ISA); printed instead of value.
  std::string text;
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);
/// The tail percentile a run of n samples can report: 0.9 when at
/// least ten samples lie beyond it, else the highest that still has ten.
double TailQuantile(size_t n);

/// Counts requests and the checks made on their outputs. A request
/// fails when its call returns a non-OK status or any check on its
/// output fails; checks outside a request (generation, set-up, lane
/// guards) fail the run as a whole.
class Checker {
 public:
  void BeginRequest();
  void EndRequest();
  /// Records one check; returns `ok`.
  bool Expect(bool ok, const std::string& what);
  bool ExpectOk(const geoalign::Status& status, const std::string& what) {
    return Expect(status.ok(), what + ": " + status.ToString());
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  size_t checks() const { return checks_; }
  bool all_passed() const { return failed_ == 0 && failed_outside_ == 0; }

 private:
  bool in_request_ = false;
  bool request_failed_ = false;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t failed_outside_ = 0;
  size_t checks_ = 0;
  size_t messages_ = 0;
};

/// The aggregates-level outputs a check compares bit for bit.
struct Expected {
  geoalign::linalg::Vector target_estimates;
  geoalign::linalg::Vector weights;
  std::vector<size_t> zero_rows;
};

Expected ExpectedFrom(const geoalign::core::CrosswalkResult& result);

/// Exact bit equality of two double arrays (also distinguishes -0 and
/// NaN payloads).
bool SameBits(geoalign::common::ConstSpan<double> a,
              geoalign::common::ConstSpan<double> b);

/// Output checks shared by every workload: target estimates, weights
/// and zero rows bit-identical to the oracle, and Eq. 16 volume
/// preservation: sum_j est_j + sum over zero rows of a_i = sum_i a_i,
/// within 1e-9 relative.
void CheckResult(const geoalign::core::CrosswalkResult& got,
                 const Expected& want,
                 geoalign::common::ConstSpan<double> objective,
                 const std::string& what, Checker& check);

/// Exact equality of two CSR matrices: shape, structure and value bits.
bool SameCsr(const geoalign::sparse::CsrMatrix& a,
             const geoalign::sparse::CsrMatrix& b);

/// Per-layer calls a traced request times beside its on-path calls.
struct Alongside {
  bool compile = false;      ///< CrosswalkPlan::Compile
  bool execute_dm = false;   ///< Execute(obj), the materializing lane
  bool execute_agg = false;  ///< Execute(obj, kAggregatesOnly)
};

/// Times PreparedReferenceSet::Prepare, CrosswalkPlan::LearnWeights and
/// the calls `calls` selects, each in its own span, on a request's
/// references and objective; checks every output against `oracle`.
void TimeAlongside(const std::vector<geoalign::core::ReferenceAttribute>& refs,
                   const geoalign::core::CrosswalkPlan& plan,
                   const geoalign::linalg::Vector& objective,
                   const Expected& oracle, Alongside calls, Tracer* tracer,
                   Checker& check);

/// Byte size of the names, aggregates and CSR arrays of a reference
/// set: what one fingerprint pass over the set reads (computed).
double FingerprintBytes(
    const std::vector<geoalign::core::ReferenceAttribute>& references);

/// The options every workload compiles and executes with.
geoalign::core::GeoAlignOptions PinnedOptions();

/// One named workload. The harness drives it through a fixed protocol:
/// Generate (untimed) → SetUp (timed as setup_s, several times) →
/// closed-loop Request calls until the run's time is used.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input and oracle result from the seed. Untimed; only
  /// this step uses synth/.
  virtual void Generate(const Options& options, Checker& check) = 0;

  /// Program-side set-up: partitions, pipelines, warm-up requests.
  /// Returns its wall time in seconds, counting only calls into the
  /// program (copies of generated inputs stay outside).
  virtual double SetUp(Checker& check) = 0;

  /// Runs request `index` of the seeded stream and checks its output.
  /// Returns the wall time of the timed region in milliseconds; input
  /// preparation and checks stay outside it. With a tracer, the request
  /// is split into the public calls that make it up, each in a span,
  /// plus per-layer calls timed alongside.
  virtual double Request(size_t index, Tracer* tracer, Checker& check) = 0;

  /// Work items one request completes (columns for the portal).
  virtual double ItemsPerRequest() const { return 1.0; }

  /// Called around the traced phase, e.g. to snapshot cache counters.
  virtual void BeginTracedPhase() {}
  virtual void EndTracedPhase() {}

  /// Per-layer figures from the traced phase. Figures named in
  /// BENCHMARK.json go to `tracked`; any the workload does not exercise
  /// are filled with 0 by the harness. Workload-only detail (the
  /// per-call timings behind ratios and rates) goes to `detail`.
  virtual void LayerFigures(const SpanStats& stats,
                            std::vector<Figure>* tracked,
                            std::vector<Figure>* detail) const = 0;

  /// Workload properties recorded beside the metrics.
  virtual std::vector<Figure> Properties() const = 0;

  /// Whether the workload's plans take the aligned reference lane.
  virtual bool Aligned() const = 0;

  /// Bytes fingerprinted per request (computed from array sizes).
  virtual double HashedBytesPerRequest() const = 0;
};

std::unique_ptr<Workload> MakeCrosswalkOneshot();
std::unique_ptr<Workload> MakeCrosswalkCached();
std::unique_ptr<Workload> MakePortal();
std::unique_ptr<Workload> MakeGeoBuild();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
