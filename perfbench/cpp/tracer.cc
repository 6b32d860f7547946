#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "harness.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void Tracer::Close(int index) {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(index)].end_ns = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::SelfMs() const {
  // Child intervals of each span, merged so overlapping children are
  // not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const int64_t lo = std::max(begin, cursor);
      const int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::vector<double> self = SelfMs();
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu, "
                 "\"span\": %zu, \"parent\": %d, \"self_us\": %.3f}}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.request), i, s.parent,
                 self[i] * 1e3, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

SpanStats::SpanStats(const Tracer& tracer) {
  const std::vector<double> self = tracer.SelfMs();
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    if (self_ms_.find(s.name) == self_ms_.end()) names_.push_back(s.name);
    self_ms_[s.name].push_back(self[i]);
    duration_ms_[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                   1e6);
    per_request_ms_[s.name][s.request] += self[i];
  }
}

double SpanStats::MedianPerCallMs(const std::string& name) const {
  auto it = self_ms_.find(name);
  return it == self_ms_.end() ? 0.0 : Median(it->second);
}

double SpanStats::MedianPerRequestMs(const std::string& name) const {
  auto it = per_request_ms_.find(name);
  if (it == per_request_ms_.end()) return 0.0;
  std::vector<double> sums;
  for (const auto& [request, ms] : it->second) sums.push_back(ms);
  return Median(sums);
}

double SpanStats::MedianDurationMs(const std::string& name) const {
  auto it = duration_ms_.find(name);
  return it == duration_ms_.end() ? 0.0 : Median(it->second);
}

double SpanStats::TotalSelfMs(const std::string& name) const {
  auto it = self_ms_.find(name);
  if (it == self_ms_.end()) return 0.0;
  double total = 0.0;
  for (double v : it->second) total += v;
  return total;
}

size_t SpanStats::Count(const std::string& name) const {
  auto it = self_ms_.find(name);
  return it == self_ms_.end() ? 0 : it->second.size();
}

}  // namespace perfbench
