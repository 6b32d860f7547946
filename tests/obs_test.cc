// Observability layer tests (src/obs/): exact counter totals under
// concurrent hammering (run under TSan in CI), histogram bucketing,
// span nesting/ordering, Chrome trace-event schema validation, and —
// the load-bearing one — bit-identical crosswalk results with
// telemetry enabled vs disabled (telemetry observes, never alters).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/geoalign.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sparse/coo_builder.h"

namespace geoalign {
namespace {

// Saves/restores the global telemetry switch so tests compose in any
// order, and leaves the registry/trace state clean behind itself.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_enabled_ = obs::Enabled();
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().ResetAll();
    obs::TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    obs::MetricsRegistry::Global().ResetAll();
    obs::TraceRecorder::Global().Clear();
    obs::SetEnabled(saved_enabled_);
  }

 private:
  bool saved_enabled_ = false;
};

TEST_F(ObsTest, CounterConcurrentHammeringIsExact) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add();
      counter.Add(42);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(counter.Value(), kThreads * (kPerThread + 42));
}

TEST_F(ObsTest, CounterIsNoOpWhileDisabled) {
  obs::Counter counter;
  counter.Add(7);
  obs::SetEnabled(false);
  counter.Add(1000);
  obs::SetEnabled(true);
  counter.Add(3);
  EXPECT_EQ(counter.Value(), 10u);
}

TEST_F(ObsTest, GaugeTracksAddSubSet) {
  obs::Gauge gauge;
  gauge.Add(5);
  gauge.Sub(2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Set(-7);
  EXPECT_EQ(gauge.Value(), -7);
  obs::SetEnabled(false);
  gauge.Set(100);
  obs::SetEnabled(true);
  EXPECT_EQ(gauge.Value(), -7);
}

TEST_F(ObsTest, HistogramBucketsByUpperBound) {
  obs::Histogram hist({1.0, 2.0, 5.0});
  hist.Record(0.5);   // bucket 0 (<= 1)
  hist.Record(1.0);   // bucket 0 (bound is inclusive)
  hist.Record(1.5);   // bucket 1
  hist.Record(5.0);   // bucket 2
  hist.Record(99.0);  // overflow bucket
  EXPECT_EQ(hist.Count(), 5u);
  EXPECT_EQ(hist.BucketCount(0), 2u);
  EXPECT_EQ(hist.BucketCount(1), 1u);
  EXPECT_EQ(hist.BucketCount(2), 1u);
  EXPECT_EQ(hist.BucketCount(3), 1u);
}

TEST_F(ObsTest, HistogramConcurrentCountsAreExact) {
  obs::Histogram hist(obs::Histogram::DefaultBounds());
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<double>((t * 37 + i) % 1000));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(hist.Count(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i <= obs::Histogram::DefaultBounds().size(); ++i) {
    bucket_total += hist.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST_F(ObsTest, RegistryReturnsStableReferencesAndSnapshotsParse) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& a = reg.GetCounter("obs_test.counter");
  obs::Counter& b = reg.GetCounter("obs_test.counter");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  reg.GetGauge("obs_test.gauge").Set(11);
  reg.GetHistogram("obs_test.hist").Record(123.0);

  obs::MetricsSnapshot snapshot = reg.Snapshot();
  std::string json = snapshot.ToJson();
  auto parsed = io::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  ASSERT_TRUE(parsed->Has("counters"));
  ASSERT_TRUE(parsed->Has("gauges"));
  ASSERT_TRUE(parsed->Has("histograms"));
  const io::JsonValue* counters = parsed->Get("counters").ValueOrDie();
  ASSERT_TRUE(counters->Has("obs_test.counter"));
  EXPECT_EQ(
      counters->Get("obs_test.counter").ValueOrDie()->AsNumber().ValueOrDie(),
      3.0);
  const io::JsonValue* hists = parsed->Get("histograms").ValueOrDie();
  ASSERT_TRUE(hists->Has("obs_test.hist"));
  const io::JsonValue* h = hists->Get("obs_test.hist").ValueOrDie();
  EXPECT_TRUE(h->Has("count"));
  EXPECT_TRUE(h->Has("bounds"));
  EXPECT_TRUE(h->Has("bucket_counts"));

  // The text rendering mentions every metric name.
  std::string text = snapshot.ToText();
  EXPECT_NE(text.find("obs_test.counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test.hist_p99"), std::string::npos);
}

TEST_F(ObsTest, SpansNestAndOrder) {
  {
    GEOALIGN_TRACE_SPAN("test.outer");
    {
      GEOALIGN_TRACE_SPAN("test.inner_a");
    }
    {
      GEOALIGN_TRACE_SPAN("test.inner_b");
    }
  }
  std::vector<obs::SpanEvent> spans = obs::TraceRecorder::Global().Collect();
  ASSERT_EQ(spans.size(), 3u);
  // Collect sorts by start tick: outer opened first.
  EXPECT_STREQ(spans[0].name, "test.outer");
  EXPECT_STREQ(spans[1].name, "test.inner_a");
  EXPECT_STREQ(spans[2].name, "test.inner_b");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 2u);
  EXPECT_EQ(spans[2].depth, 2u);
  // Containment: both inners start and end inside the outer interval,
  // and inner_a completes before inner_b starts.
  EXPECT_GE(spans[1].start_ticks, spans[0].start_ticks);
  EXPECT_LE(spans[2].end_ticks, spans[0].end_ticks);
  EXPECT_LE(spans[1].end_ticks, spans[2].start_ticks);
  // All on the one test thread.
  EXPECT_EQ(spans[1].thread_index, spans[0].thread_index);
  EXPECT_EQ(spans[2].thread_index, spans[0].thread_index);

  // A second call site with an existing name feeds the same histogram,
  // and each name's histogram holds one sample per recorded span.
  {
    GEOALIGN_TRACE_SPAN("test.inner_a");
  }
  std::map<std::string, uint64_t> events;
  for (const obs::SpanEvent& s : obs::TraceRecorder::Global().Collect()) {
    ++events[s.name];
  }
  EXPECT_EQ(events["test.inner_a"], 2u);
  for (const auto& [name, count] : events) {
    EXPECT_EQ(obs::MetricsRegistry::Global()
                  .GetHistogram(name + ".latency_us")
                  .Count(),
              count)
        << name;
  }
}

TEST_F(ObsTest, SpansAreInertWhileDisabled) {
  obs::SetEnabled(false);
  {
    GEOALIGN_TRACE_SPAN("test.should_not_record");
  }
  obs::SetEnabled(true);
  EXPECT_TRUE(obs::TraceRecorder::Global().Collect().empty());
  // Nor did it register its latency histogram.
  for (const obs::HistogramSnapshot& h :
       obs::MetricsRegistry::Global().Snapshot().histograms) {
    EXPECT_NE(h.name, "test.should_not_record.latency_us");
  }
}

TEST_F(ObsTest, ChromeTraceExportMatchesSchema) {
  {
    GEOALIGN_TRACE_SPAN("test.schema_outer");
    GEOALIGN_TRACE_SPAN("test.schema_inner");
  }
  std::string trace = obs::TraceRecorder::Global().ExportChromeTrace();
  auto parsed = io::ParseJson(trace);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << trace;
  const io::JsonValue* events = parsed->Get("traceEvents").ValueOrDie();
  ASSERT_EQ(events->size(), 2u);
  for (size_t i = 0; i < events->size(); ++i) {
    const io::JsonValue& e = (*events)[i];
    EXPECT_EQ((*e.Get("ph").ValueOrDie()).AsString().ValueOrDie(), "X");
    EXPECT_TRUE(e.Has("name"));
    EXPECT_TRUE(e.Has("ts"));
    EXPECT_TRUE(e.Has("dur"));
    EXPECT_TRUE(e.Has("pid"));
    EXPECT_TRUE(e.Has("tid"));
    EXPECT_GE((*e.Get("ts").ValueOrDie()).AsNumber().ValueOrDie(), 0.0);
    EXPECT_GE((*e.Get("dur").ValueOrDie()).AsNumber().ValueOrDie(), 0.0);
    const io::JsonValue* args = e.Get("args").ValueOrDie();
    EXPECT_GE((*args->Get("depth").ValueOrDie()).AsNumber().ValueOrDie(),
              1.0);
  }
  // Empty export is still valid JSON with an (empty) traceEvents array.
  obs::TraceRecorder::Global().Clear();
  auto empty = io::ParseJson(obs::TraceRecorder::Global().ExportChromeTrace());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->Get("traceEvents").ValueOrDie()->size(), 0u);
}

TEST_F(ObsTest, TraceRingDropsOldestBeyondCapacity) {
  for (size_t i = 0; i < obs::TraceBuffer::kCapacity + 10; ++i) {
    GEOALIGN_TRACE_SPAN("test.flood");
  }
  std::vector<obs::SpanEvent> spans = obs::TraceRecorder::Global().Collect();
  // This thread's buffer holds exactly kCapacity; other tests cleared
  // theirs in SetUp, so the flood dominates.
  EXPECT_GE(spans.size(), obs::TraceBuffer::kCapacity);
  EXPECT_GE(obs::TraceRecorder::Global().TotalDropped(), 10u);
}

// A small two-reference crosswalk input with a zero row (source s2 has
// no support in either reference), exercising Eq. 14/15/17 end to end.
core::CrosswalkInput MakeSmallInput() {
  core::CrosswalkInput input;
  input.objective_source = {30.0, 12.0, 0.0, 7.0};
  sparse::CooBuilder dm_a(4, 3);
  dm_a.Add(0, 0, 2.0);
  dm_a.Add(0, 1, 1.0);
  dm_a.Add(1, 1, 3.0);
  dm_a.Add(3, 2, 5.0);
  sparse::CooBuilder dm_b(4, 3);
  dm_b.Add(0, 0, 1.0);
  dm_b.Add(1, 2, 2.0);
  dm_b.Add(3, 0, 1.0);
  dm_b.Add(3, 1, 1.0);
  core::ReferenceAttribute ref_a;
  ref_a.name = "alpha";
  ref_a.source_aggregates = {3.0, 3.0, 0.0, 5.0};
  ref_a.disaggregation = dm_a.Build();
  core::ReferenceAttribute ref_b;
  ref_b.name = "beta";
  ref_b.source_aggregates = {1.0, 2.0, 0.0, 2.0};
  ref_b.disaggregation = dm_b.Build();
  input.references.push_back(std::move(ref_a));
  input.references.push_back(std::move(ref_b));
  return input;
}

TEST_F(ObsTest, CrosswalkBitsIdenticalWithTelemetryOnAndOff) {
  core::CrosswalkInput input = MakeSmallInput();
  for (core::WeightSolver solver :
       {core::WeightSolver::kSimplex, core::WeightSolver::kNnlsNormalized,
        core::WeightSolver::kClampedLs, core::WeightSolver::kUniform}) {
    SCOPED_TRACE(static_cast<int>(solver));
    core::GeoAlignOptions options;
    options.solver = solver;
    core::GeoAlign method(options);

    obs::SetEnabled(true);
    auto with = method.Crosswalk(input);
    ASSERT_TRUE(with.ok()) << with.status().ToString();

    obs::SetEnabled(false);
    auto without = method.Crosswalk(input);
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    obs::SetEnabled(true);

    ASSERT_EQ(with->target_estimates, without->target_estimates);
    ASSERT_EQ(with->weights, without->weights);
    ASSERT_EQ(with->zero_rows, without->zero_rows);
    ASSERT_EQ(with->estimated_dm.row_ptr(), without->estimated_dm.row_ptr());
    ASSERT_EQ(with->estimated_dm.col_idx(), without->estimated_dm.col_idx());
    ASSERT_EQ(with->estimated_dm.values(), without->estimated_dm.values());
  }
}

TEST_F(ObsTest, CrosswalkEmitsServingPathSpansAndCounters) {
  core::CrosswalkInput input = MakeSmallInput();
  core::GeoAlign method;
  auto result = method.Crosswalk(input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_GE(reg.GetCounter("compile.count").Value(), 1u);
  EXPECT_GE(reg.GetCounter("execute.count").Value(), 1u);
  EXPECT_GE(reg.GetCounter("weight_solve.simplex").Value(), 1u);
  EXPECT_GE(reg.GetHistogram("execute.latency_us").Count(), 1u);
  // Every span feeds its own latency histogram, one sample per close.
  for (const char* name :
       {"compile.latency_us", "execute.latency_us",
        "execute.weight_solve.latency_us",
        "execute.eq14_disaggregate.latency_us",
        "execute.eq17_reaggregate.latency_us"}) {
    EXPECT_EQ(reg.GetHistogram(name).Count(), 1u) << name;
  }

  std::vector<obs::SpanEvent> spans = obs::TraceRecorder::Global().Collect();
  auto has_span = [&spans](const char* name) {
    for (const obs::SpanEvent& s : spans) {
      if (std::string(s.name) == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span("compile"));
  EXPECT_TRUE(has_span("execute"));
  EXPECT_TRUE(has_span("execute.weight_solve"));
  EXPECT_TRUE(has_span("execute.eq14_disaggregate"));
  EXPECT_TRUE(has_span("execute.eq17_reaggregate"));
}

// Fan-out threads live for one call. Each returns its trace buffer on
// exit and the next call's threads take those buffers, so repeated
// fan-outs at 4 threads record under at most 4 buffer ids — the
// calling thread's and 3 reused ones.
TEST_F(ObsTest, FanOutsReuseTraceBuffers) {
  // Two references on one DM structure: the plan is aligned, so each
  // Run fans its column panels out.
  std::vector<core::ReferenceAttribute> references =
      MakeSmallInput().references;
  references[1].disaggregation = references[0].disaggregation;
  references[1].source_aggregates = references[0].source_aggregates;
  for (double& v : references[1].source_aggregates) v *= 2.0;
  core::GeoAlignOptions options;
  options.threads = 4;
  auto batch = core::BatchCrosswalk::Create(references, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch->plan().references().aligned());
  std::vector<core::BatchCrosswalk::Objective> objectives;
  for (int c = 0; c < 64; ++c) {
    objectives.push_back({"col" + std::to_string(c),
                          {30.0 + c, 12.0, 0.0, 7.0 + c}});
  }
  for (int call = 0; call < 200; ++call) {
    ASSERT_TRUE(batch->Run(objectives).ok());
  }
  std::set<uint32_t> ids;
  for (const obs::SpanEvent& s : obs::TraceRecorder::Global().Collect()) {
    ids.insert(s.thread_index);
  }
  EXPECT_LE(ids.size(), 4u);
}

TEST_F(ObsTest, SummaryTableMentionsRecordedMetrics) {
  obs::MetricsRegistry::Global().GetCounter("obs_test.summary").Add(5);
  std::string table = obs::SummaryTable();
  EXPECT_NE(table.find("obs_test.summary"), std::string::npos);
}

TEST_F(ObsTest, StopwatchFollowsSteadyClockPolicy) {
  obs::Stopwatch watch;
  int64_t t0 = obs::NowTicks();
  int64_t t1 = obs::NowTicks();
  EXPECT_GE(t1, t0);
  EXPECT_GE(watch.ElapsedMicros(), 0.0);
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  watch.Restart();
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace geoalign
