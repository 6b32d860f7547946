#include "obs/telemetry.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace geoalign::obs {

namespace internal {

namespace {
bool InitialEnabled() {
  const char* env = std::getenv("GEOALIGN_TELEMETRY");
  if (env == nullptr) return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0);
}
}  // namespace

std::atomic<bool> g_enabled{InitialEnabled()};

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

bool WriteStringToFile(const std::string& content, const std::string& path,
                       std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "': " + std::strerror(errno);
    }
    return false;
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  bool closed = std::fclose(f) == 0;
  if (written != content.size() || !closed) {
    if (error != nullptr) *error = "short write to '" + path + "'";
    return false;
  }
  return true;
}

}  // namespace

bool WriteTraceJsonFile(const std::string& path, std::string* error) {
  return WriteStringToFile(TraceRecorder::Global().ExportChromeTrace(), path,
                           error);
}

std::string SummaryTable() {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::string out = "=== telemetry summary ===\n";
  char buf[256];
  for (const CounterSnapshot& c : snap.counters) {
    std::snprintf(buf, sizeof(buf), "%-36s %12llu\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.value));
    out += buf;
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    std::snprintf(buf, sizeof(buf), "%-36s %12lld\n", g.name.c_str(),
                  static_cast<long long>(g.value));
    out += buf;
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%-36s count %-8llu mean %-10.3g p50 %-8.3g p99 %-8.3g\n",
                  h.name.c_str(), static_cast<unsigned long long>(h.count),
                  h.Mean(), h.Quantile(0.5), h.Quantile(0.99));
    out += buf;
  }
  // Ring truncation shows up as the regular trace.dropped_spans
  // counter (registered eagerly by the trace recorder), so there is no
  // special-cased row here anymore.
  return out;
}

}  // namespace geoalign::obs
