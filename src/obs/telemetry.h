#ifndef GEOALIGN_OBS_TELEMETRY_H_
#define GEOALIGN_OBS_TELEMETRY_H_

#include <atomic>
#include <string>

namespace geoalign::obs {

namespace internal {
/// Backing store for the global switch; use Enabled()/SetEnabled().
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// THE global telemetry switch. When false, every counter increment,
/// histogram record, and span capture in the tree short-circuits to a
/// single relaxed atomic load (overhead benchmarked by
/// bench/obs_overhead and documented in docs/observability.md).
/// Telemetry only ever OBSERVES: enabling or disabling it never
/// changes any reduction order or result bit (pinned by
/// tests/obs_test.cc's equivalence check).
///
/// The initial state comes from the GEOALIGN_TELEMETRY environment
/// variable: "0", "off" or "false" start disabled; anything else
/// (including unset) starts enabled.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the global switch at runtime. Events already recorded are
/// kept; new ones are dropped while disabled.
void SetEnabled(bool enabled);

/// Exports the global trace recorder as Chrome trace-event JSON
/// (loadable in Perfetto / chrome://tracing) and writes it to `path`.
/// On failure returns false and, when non-null, fills `error`.
/// Metrics files come from obs::WriteMetricsFile (obs/export.h).
bool WriteTraceJsonFile(const std::string& path, std::string* error);

/// Human-readable end-of-run summary of the global registry: counters,
/// gauges, and histogram count/mean/p50/p99, one metric per line.
std::string SummaryTable();

}  // namespace geoalign::obs

#endif  // GEOALIGN_OBS_TELEMETRY_H_
