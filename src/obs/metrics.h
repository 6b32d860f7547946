#ifndef GEOALIGN_OBS_METRICS_H_
#define GEOALIGN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

// Header-only, standard-library-only shim: using it keeps obs link-
// free of geoalign_common, preserving the obs-below-common layering.
#include "common/thread_annotations.h"
#include "obs/telemetry.h"

namespace geoalign::obs {

/// Monotonic counter, sharded across cache-line-padded atomics so
/// concurrent increments from fan-out threads never contend on one line.
/// Totals are exact: every Add lands in exactly one shard and Value()
/// sums all shards (tests/obs_test.cc hammers this under TSan with
/// exact-total assertions). All operations are lock-free.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `n` (default 1). No-op while telemetry is disabled.
  void Add(uint64_t n = 1) {
    if (!Enabled()) return;
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Exact sum over all shards.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every shard (test/benchmark isolation, not thread-safe
  /// against concurrent Add with exactness guarantees).
  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Stable per-thread shard slot (assigned round-robin on first use).
  static size_t ShardIndex();

  Shard shards_[kShards];
};

/// Instantaneous signed value (e.g. `execute.isa`, the active ISA).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t n) {
    if (!Enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  // Gauge::Add is void; the name-level lint maps the bare call to the
  // fallible sparse::Add, hence the suppression.
  // NOLINTNEXTLINE(geoalign-discarded-status)
  void Sub(int64_t n) { Add(-n); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: cumulative-free per-bucket atomic counts
/// plus a (relaxed, unordered) double sum. Bucket upper bounds are
/// fixed at registration; values land in the first bucket whose bound
/// is >= value, or the implicit overflow bucket. Counts are exact
/// under concurrency; the sum is subject to floating-point
/// non-associativity across interleavings (report-only).
///
/// There is deliberately no separate total-count atomic: every Record
/// lands in exactly one bucket, so Count() is the sum of the bucket
/// counts. That makes the exporter invariant `_count == Σ _bucket`
/// hold by construction for any snapshot, including one taken while
/// writers are mid-Record (tests/obs_export_test.cc hammers this).
class Histogram {
 public:
  /// Default bounds: a 1-2-5 exponential ladder from 1 to 5e7,
  /// suitable both for latencies in microseconds (1 µs .. 50 s) and
  /// for small cardinalities (columns per batch).
  static const std::vector<double>& DefaultBounds();

  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one observation. No-op while telemetry is disabled.
  void Record(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Exact sum of the per-bucket counts (see class comment).
  uint64_t Count() const;
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  /// One count per bound, plus the trailing overflow bucket.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copies for export; `bucket_counts` has one entry per
/// bound plus the overflow bucket.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};
struct HistogramSnapshot {
  std::string name;
  /// Always equals the sum of `bucket_counts` (derived from the same
  /// bucket reads), so exporters can rely on `_count == Σ _bucket`.
  uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;

  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Bucket-upper-bound estimate of the q-quantile (q in [0, 1]).
  double Quantile(double q) const;
};

/// One coherent snapshot of the whole registry, name-sorted.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// `name value` per line, histograms as name_count/_sum/_mean/_p50/_p99.
  std::string ToText() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;
};

/// Process-wide metric registry. Metrics are created on first access
/// and live forever at a stable address, so hot call sites pay the
/// name lookup once:
///
///   static obs::Counter& hits =
///       obs::MetricsRegistry::Global().GetCounter("plan_cache.hits");
///   hits.Add();
///
/// Lookups take a mutex; increments on the returned objects are
/// lock-free (see Counter/Gauge/Histogram). The metric name catalog
/// lives in docs/observability.md — new metrics should be added there.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `bounds` applies on first registration only (empty = DefaultBounds).
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric, keeping registrations (and thus
  /// all cached references) valid. Test/benchmark isolation only.
  void ResetAll();

 private:
  /// Guards the three registration maps. Leaf lock: held only for the
  /// map probe/emplace and for snapshotting; increments on returned
  /// metrics are lock-free and never touch mu_. The unique_ptr
  /// indirection is what makes handing out unguarded references
  /// sound: a metric's address never moves after registration.
  mutable common::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GEOALIGN_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      GEOALIGN_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GEOALIGN_GUARDED_BY(mu_);
};

}  // namespace geoalign::obs

#endif  // GEOALIGN_OBS_METRICS_H_
