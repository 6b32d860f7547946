#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace geoalign::obs {

namespace {

/// Ring wrap-around losses, surfaced in metric snapshots so the 8192-
/// span per-thread cap never truncates silently. Lock order: taken
/// (via the registry mutex, first call only) under a TraceBuffer's
/// mu_; the registry mutex is a leaf, so no cycle.
Counter& DroppedSpansCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("trace.dropped_spans");
  return counter;
}

}  // namespace

void TraceBuffer::Record(const SpanEvent& event) {
  common::MutexLock lock(mu_);
  if (ring_.size() < kCapacity) {
    ring_.push_back(event);
    return;
  }
  // Full: overwrite the oldest event (next_ chases the logical head).
  ring_[next_] = event;
  next_ = (next_ + 1) % kCapacity;
  ++dropped_;
  DroppedSpansCounter().Add();
}

void TraceBuffer::CollectInto(std::vector<SpanEvent>& out) const {
  common::MutexLock lock(mu_);
  // Oldest-first: [next_, end) wrapped before [0, next_) once full.
  for (size_t i = next_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (size_t i = 0; i < next_; ++i) out.push_back(ring_[i]);
}

uint64_t TraceBuffer::dropped() const {
  common::MutexLock lock(mu_);
  return dropped_;
}

void TraceBuffer::Clear() {
  common::MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = [] {
    // Register the drop counter eagerly so snapshots show it at 0
    // before (and whether or not) any ring ever wraps.
    DroppedSpansCounter();
    return new TraceRecorder();
  }();
  return *recorder;
}

TraceBuffer& TraceRecorder::LocalBuffer() {
  // The calling thread's buffer; the registry keeps it alive. Thread
  // exit hands it back to the free list.
  struct Holder {
    TraceRecorder* owner = nullptr;
    TraceBuffer* buffer = nullptr;
    ~Holder() {
      if (owner == nullptr) return;
      common::MutexLock lock(owner->mu_);
      owner->free_.push_back(buffer->thread_index());
    }
  };
  thread_local Holder local;
  if (local.buffer == nullptr) {
    common::MutexLock lock(mu_);
    if (free_.empty()) {
      free_.push_back(static_cast<uint32_t>(buffers_.size()));
      buffers_.push_back(std::make_shared<TraceBuffer>(free_.back()));
      free_.reserve(buffers_.size());  // so ~Holder never allocates
    }
    local.buffer = buffers_[free_.back()].get();
    free_.pop_back();
    local.owner = this;
  }
  return *local.buffer;
}

void TraceRecorder::Record(const SpanEvent& event) {
  TraceBuffer& buffer = LocalBuffer();
  SpanEvent stamped = event;
  stamped.thread_index = buffer.thread_index();
  buffer.Record(stamped);
}

std::vector<SpanEvent> TraceRecorder::Collect() const {
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    common::MutexLock lock(mu_);
    buffers = buffers_;
  }
  std::vector<SpanEvent> events;
  for (const std::shared_ptr<TraceBuffer>& b : buffers) {
    b->CollectInto(events);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_ticks < b.start_ticks;
                   });
  return events;
}

uint64_t TraceRecorder::TotalDropped() const {
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    common::MutexLock lock(mu_);
    buffers = buffers_;
  }
  uint64_t total = 0;
  for (const std::shared_ptr<TraceBuffer>& b : buffers) total += b->dropped();
  return total;
}

void TraceRecorder::Clear() {
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    common::MutexLock lock(mu_);
    buffers = buffers_;
  }
  for (const std::shared_ptr<TraceBuffer>& b : buffers) b->Clear();
}

std::string TraceRecorder::ExportChromeTrace() const {
  std::vector<SpanEvent> events = Collect();
  int64_t base = events.empty() ? 0 : events.front().start_ticks;

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    double ts = TicksToMicros(e.start_ticks - base);
    double dur = TicksToMicros(e.end_ticks - e.start_ticks);
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"cat\": \"geoalign\", "
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"depth\": %u, \"req\": %llu}}",
                  i == 0 ? "" : ",", e.name, ts, dur, e.thread_index,
                  e.depth,
                  static_cast<unsigned long long>(e.request_seq));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

void ScopedSpan::Close() {
  const int64_t end_ticks = NowTicks();
  --internal::ThreadSpanDepth();
  SpanEvent event;
  event.name = site_->name;
  event.start_ticks = start_ticks_;
  event.end_ticks = end_ticks;
  event.depth = depth_;
  event.request_seq = request_seq_;
  TraceRecorder::Global().Record(event);

  Histogram* latency = site_->latency_us.load(std::memory_order_acquire);
  if (latency == nullptr) {
    // First close at this site. Racing first closes get the same
    // histogram back from the registry, so either store is right.
    latency = &MetricsRegistry::Global().GetHistogram(
        std::string(site_->name) + ".latency_us");
    site_->latency_us.store(latency, std::memory_order_release);
  }
  latency->Record(TicksToMicros(end_ticks - start_ticks_));
}

namespace internal {

uint32_t& ThreadSpanDepth() {
  thread_local uint32_t depth = 0;
  return depth;
}

}  // namespace internal

}  // namespace geoalign::obs
