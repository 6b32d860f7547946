#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// Benchmark-side span recorder for the traced run. Spans live in memory
/// (name, start, end, parent, request id) and are written out as Chrome
/// trace JSON when the run ends. Single-threaded: the benchmark is one
/// closed-loop client, and every span wraps a call into the library
/// from the benchmark's own code.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 for a root span
    uint64_t request = 0;
  };

  /// Every span opened from now on carries `request` as its id.
  void BeginRequest(uint64_t request) { request_ = request; }

  /// Opens a span nested in the innermost open one; returns its index.
  int Open(const std::string& name);
  /// Closes span `index` (the innermost open one).
  void Close(int index);
  /// Renames a span, for calls whose layer is known only afterwards
  /// (a plan-cache lookup is a hit or a miss).
  void Rename(int index, const std::string& name) {
    spans_[static_cast<size_t>(index)].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the time its child spans cover, per span.
  std::vector<double> SelfMs() const;

  /// Chrome trace-event JSON ("X" events, microseconds), with parent,
  /// request id and self time in each event's args.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint64_t request_ = 0;
};

/// RAII span; inert when the tracer is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer ? tracer->Open(name) : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early (idempotent).
  void End() {
    if (tracer_ != nullptr && !closed_) tracer_->Close(index_);
    closed_ = true;
  }
  /// Renames the span, open or closed.
  void Rename(const std::string& name) {
    if (tracer_ != nullptr) tracer_->Rename(index_, name);
  }

 private:
  Tracer* tracer_;
  int index_;
  bool closed_ = false;
};

/// Self-time statistics of a finished trace, by span name.
class SpanStats {
 public:
  explicit SpanStats(const Tracer& tracer);

  /// Median self time of one span of this name (0 when none ran).
  double MedianPerCallMs(const std::string& name) const;
  /// Median over requests of the summed self time of this name's spans
  /// in the request (0 when none ran).
  double MedianPerRequestMs(const std::string& name) const;
  /// Median total duration (self plus children) of one span.
  double MedianDurationMs(const std::string& name) const;
  /// Total self time of every span of this name.
  double TotalSelfMs(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Span names in first-seen order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::vector<double>> self_ms_;
  std::map<std::string, std::vector<double>> duration_ms_;
  std::map<std::string, std::map<uint64_t, double>> per_request_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
