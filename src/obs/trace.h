#ifndef GEOALIGN_OBS_TRACE_H_
#define GEOALIGN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

// Header-only, standard-library-only shim: using it keeps obs link-
// free of geoalign_common, preserving the obs-below-common layering.
#include "common/thread_annotations.h"
#include "obs/request_context.h"
#include "obs/telemetry.h"
#include "obs/timer.h"

namespace geoalign::obs {

/// One completed span. `name` must point at a string with static
/// storage duration (the GEOALIGN_TRACE_SPAN macro passes literals).
struct SpanEvent {
  const char* name = nullptr;
  int64_t start_ticks = 0;
  int64_t end_ticks = 0;
  uint32_t thread_index = 0;  ///< recording buffer's id (see TraceRecorder)
  uint32_t depth = 0;         ///< nesting depth at record time (1 = top)
  uint64_t request_seq = 0;   ///< RequestToken::seq at span open (0 = none)
};

/// Bounded per-thread ring buffer of completed spans. Single writer
/// (the owning thread); concurrent readers (export) synchronize on the
/// per-buffer mutex, so recording never contends with other threads'
/// recording — only with an in-flight export.
class TraceBuffer {
 public:
  static constexpr size_t kCapacity = 8192;

  explicit TraceBuffer(uint32_t thread_index)
      : thread_index_(thread_index) {}

  void Record(const SpanEvent& event);

  /// Appends the buffered events (oldest first) to `out`.
  void CollectInto(std::vector<SpanEvent>& out) const;

  uint64_t dropped() const;
  uint32_t thread_index() const { return thread_index_; }
  void Clear();

 private:
  /// Guards the ring state. Leaf lock, per-buffer: recording on the
  /// owning thread only ever contends with an in-flight export, never
  /// with another thread's recording.
  mutable common::Mutex mu_;
  uint32_t thread_index_;  ///< immutable after construction
  std::vector<SpanEvent> ring_
      GEOALIGN_GUARDED_BY(mu_);  ///< grows to kCapacity, then wraps
  size_t next_ GEOALIGN_GUARDED_BY(mu_) = 0;  ///< write cursor once full
  uint64_t dropped_
      GEOALIGN_GUARDED_BY(mu_) = 0;  ///< events overwritten after wrap
};

/// Process-wide trace sink: owns the TraceBuffers that threads record
/// spans into, numbered in creation order (SpanEvent::thread_index).
/// A buffer outlives its thread, so a short-lived fan-out thread's
/// spans survive into the export. When a thread exits, its buffer goes
/// on a free list, and the next thread to record takes a free buffer
/// (keeping its spans and its index) before a new one is created. The
/// registry thus holds at most the peak number of live threads that
/// have recorded a span.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records into the calling thread's buffer (taken on first use).
  void Record(const SpanEvent& event);

  /// All buffered spans across all threads, sorted by start time.
  std::vector<SpanEvent> Collect() const;

  /// Chrome trace-event JSON ("X" complete events, µs timestamps
  /// rebased to the earliest span) — loadable in Perfetto and
  /// chrome://tracing. Always valid JSON, even with zero spans.
  std::string ExportChromeTrace() const;

  /// Total events overwritten by ring wrap-around across all threads.
  uint64_t TotalDropped() const;

  /// Drops all buffered spans (buffers stay registered).
  void Clear();

 private:
  TraceBuffer& LocalBuffer();

  /// Guards buffer registration only. Acquired before any per-buffer
  /// TraceBuffer::mu_ (Collect/Clear copy the registry under this
  /// lock, release it, then take each buffer's lock) — never the
  /// reverse, so the two levels cannot deadlock.
  mutable common::Mutex mu_;
  std::vector<std::shared_ptr<TraceBuffer>> buffers_
      GEOALIGN_GUARDED_BY(mu_);
  /// Indices into buffers_ of the buffers no live thread holds.
  std::vector<uint32_t> free_ GEOALIGN_GUARDED_BY(mu_);
};

namespace internal {
/// Per-thread span nesting depth for the RAII spans below.
uint32_t& ThreadSpanDepth();
}  // namespace internal

class Histogram;

/// One GEOALIGN_TRACE_SPAN call site: the span name and its
/// `<name>.latency_us` histogram, looked up in the global registry at
/// the site's first close and cached here. Constant-initialized
/// (`constinit`), so the function-local static costs no guard.
struct SpanSite {
  const char* const name;
  std::atomic<Histogram*> latency_us{nullptr};
};

/// RAII timed span; on destruction records into the global
/// TraceRecorder and its site's latency histogram (µs). Inert (two
/// relaxed loads, no clock read, no registry access) while telemetry
/// is disabled. Use via GEOALIGN_TRACE_SPAN.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite& site) {
    if (!Enabled()) return;
    site_ = &site;
    depth_ = ++internal::ThreadSpanDepth();
    request_seq_ = CurrentRequestSeq();
    start_ticks_ = NowTicks();
  }

  ~ScopedSpan() {
    if (site_ != nullptr) Close();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Close();

  SpanSite* site_ = nullptr;
  int64_t start_ticks_ = 0;
  uint32_t depth_ = 0;
  uint64_t request_seq_ = 0;
};

#define GEOALIGN_OBS_CONCAT_INNER(a, b) a##b
#define GEOALIGN_OBS_CONCAT(a, b) GEOALIGN_OBS_CONCAT_INNER(a, b)

/// GEOALIGN_TRACE_SPAN("execute.weight_solve"); — times the enclosing
/// scope as a nested per-thread span and a sample of the
/// `execute.weight_solve.latency_us` histogram. `name` must be a
/// string literal (`"" name` rejects anything else at compile time).
/// Span naming convention (docs/observability.md): lowercase dotted
/// paths, `<stage>.<step>`.
#define GEOALIGN_TRACE_SPAN(name) GEOALIGN_OBS_TRACE_SPAN_AT(name, __COUNTER__)
#define GEOALIGN_OBS_TRACE_SPAN_AT(name, n)                                  \
  static constinit ::geoalign::obs::SpanSite GEOALIGN_OBS_CONCAT(            \
      geoalign_trace_site_, n){"" name};                                     \
  ::geoalign::obs::ScopedSpan GEOALIGN_OBS_CONCAT(geoalign_trace_span_, n)(  \
      GEOALIGN_OBS_CONCAT(geoalign_trace_site_, n))

}  // namespace geoalign::obs

#endif  // GEOALIGN_OBS_TRACE_H_
