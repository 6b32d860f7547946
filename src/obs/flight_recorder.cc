#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <utility>

#include "common/thread_annotations.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace geoalign::obs {

namespace {

/// Set once the fatal/crash dump has been written; the GEOALIGN_CHECK
/// path (NotifyFatal) aborts into SIGABRT, whose handler would
/// otherwise truncate the just-written dump.
std::atomic<bool> g_fatal_dumped{false};

/// Fixed-buffer dump path so the signal path never allocates.
char g_dump_path[512] = {0};

/// Thread-safe one-time env read via a function-local static.
void InitPathFromEnvOnce() {
  static const bool initialized = [] {
    const char* env = std::getenv("GEOALIGN_FLIGHT_RECORDER");
    if (env != nullptr) {
      std::strncpy(g_dump_path, env, sizeof(g_dump_path) - 1);
      g_dump_path[sizeof(g_dump_path) - 1] = '\0';
    }
    return true;
  }();
  (void)initialized;
}

/// The last metrics line rendered by DumpToFile, kept for the signal
/// path (which cannot snapshot the registry).
std::atomic<const char*> g_metrics_cache{nullptr};

/// Keeps `line` for the life of the process and returns its bytes. A
/// signal-time reader may still hold an older line, so no line is ever
/// freed; dumps are rare, and the list keeps every line reachable.
const char* KeepMetricsLine(std::string line) {
  static common::Mutex mu;
  static auto* lines = new std::deque<std::string>();  // never destroyed
  common::MutexLock lock(mu);
  lines->push_back(std::move(line));  // never moves older elements
  return lines->back().c_str();
}

/// Minimal async-signal-safe line writer: stack buffer + write(2).
/// Formatting is hand-rolled (snprintf is not on the signal-safe
/// list on every libc).
struct SigWriter {
  int fd;
  char buf[768];
  size_t len = 0;
  bool failed = false;  ///< a write(2) came up short

  explicit SigWriter(int fd_in) : fd(fd_in) {}

  void Flush() {
    size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) {
        failed = true;
        break;
      }
      off += static_cast<size_t>(n);
    }
    len = 0;
  }
  void Raw(const char* s, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (len == sizeof(buf)) Flush();
      buf[len++] = s[i];
    }
  }
  void Str(const char* s) { Raw(s, std::strlen(s)); }
  void U64(uint64_t v) {
    char tmp[24];
    size_t n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) Raw(&tmp[--n], 1);
  }
  void Hex(uint64_t v) {
    Str("0x");
    char tmp[20];
    size_t n = 0;
    do {
      const uint64_t d = v & 0xF;
      tmp[n++] = static_cast<char>(d < 10 ? '0' + d : 'a' + (d - 10));
      v >>= 4;
    } while (v != 0);
    while (n > 0) Raw(&tmp[--n], 1);
  }
  /// Quoted JSON string: `"`, `\` and newline escaped, other control
  /// characters dropped.
  void Quoted(const char* s) {
    Raw("\"", 1);
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\') {
        Raw("\\", 1);
      } else if (c == '\n') {
        Raw("\\n", 2);
        continue;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        continue;
      }
      Raw(&c, 1);
    }
    Raw("\"", 1);
  }
};

/// The dump's first line: header, `reason`, record count and the ids
/// of the requests in flight.
void WriteHeader(SigWriter& w, const char* reason, uint64_t total_recorded) {
  w.Str("{\"type\":\"header\",\"geoalign_flight_recorder\":1");
  w.Str(",\"reason\":");
  w.Quoted(reason);
  w.Str(",\"total_recorded\":");
  w.U64(total_recorded);
  w.Str(",\"in_flight\":[");
  char ids[16][RequestToken::kMaxIdLength + 1];
  const size_t n = internal::SnapshotInFlightRequests(ids, 16);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) w.Str(",");
    w.Quoted(ids[i]);
  }
  w.Str("]}\n");
}

void WriteAudit(SigWriter& w, const AuditRecord& r) {
  w.Str("{\"type\":\"audit\",\"seq\":");
  w.U64(r.seq);
  w.Str(",\"request_id\":");
  w.Quoted(r.request_id);
  w.Str(",\"request_seq\":");
  w.U64(r.request_seq);
  w.Str(",\"fingerprint\":\"");
  w.Hex(r.plan_fingerprint);
  w.Str("\",\"mode\":");
  w.Quoted(r.mode);
  w.Str(",\"panel_width\":");
  w.U64(r.panel_width);
  w.Str(",\"isa\":");
  w.U64(r.isa);
  w.Str(",\"rows\":");
  w.U64(r.rows);
  w.Str(",\"latency_us\":");
  w.U64(r.latency_us);
  w.Str(",\"zero_rows\":");
  w.U64(r.zero_rows);
  w.Str(",\"fallback\":");
  w.U64(r.fallback);
  w.Str(",\"ok\":");
  w.U64(r.ok);
  w.Str("}\n");
}

void CrashHandler(int sig) {
  if (!g_fatal_dumped.exchange(true)) {
    const char* path = g_dump_path;  // initialized before installation
    if (path[0] != '\0') {
      const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        FlightRecorder::Global().DumpToFdSignalSafe(fd);
        ::close(fd);
      }
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(AuditRecord record) {
  const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
  record.seq = i + 1;
  const RequestToken& req = CurrentRequest();
  record.request_seq = req.seq;
  std::memcpy(record.request_id, req.id, sizeof(record.request_id));
  uint64_t words[kRecordWords];
  std::memcpy(words, &record, sizeof(words));
  Slot& slot = slots_[i % kCapacity];
  // Per-slot seqlock: claim with the odd stamp, store the words, then
  // publish with the even one. When another writer is filling the slot
  // or it already holds a newer record, this record is dropped; either
  // needs the whole ring to lap while a write is in flight.
  uint64_t stamp = slot.stamp.load();
  do {
    if ((stamp & 1) != 0 || stamp > 2 * i) return;
  } while (!slot.stamp.compare_exchange_weak(stamp, 2 * i + 1));
  // Release: a reader that loads any new word also sees the odd stamp
  // (or a later one) on its second check.
  for (size_t w = 0; w < kRecordWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_release);
  }
  slot.stamp.store(2 * i + 2, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(size_t i, AuditRecord* out) const {
  const Slot& slot = slots_[i];
  const uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1) != 0) return false;
  uint64_t words[kRecordWords];
  for (size_t w = 0; w < kRecordWords; ++w) {
    words[w] = slot.words[w].load(std::memory_order_acquire);
  }
  if (slot.stamp.load(std::memory_order_acquire) != s1) return false;
  std::memcpy(out, words, sizeof(words));
  return true;
}

std::vector<AuditRecord> FlightRecorder::Collect() const {
  std::vector<AuditRecord> out;
  out.reserve(kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    AuditRecord r;
    if (ReadSlot(i, &r)) out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const AuditRecord& a, const AuditRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

uint64_t FlightRecorder::TotalRecorded() const {
  return next_.load(std::memory_order_relaxed);
}

bool FlightRecorder::DumpToFile(const std::string& path, const char* reason,
                                std::string* error) const {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  SigWriter w(fd);
  WriteHeader(w, reason, TotalRecorded());
  for (const AuditRecord& r : Collect()) WriteAudit(w, r);

  std::string metrics_line = "{\"type\":\"metrics\",\"snapshot\":";
  metrics_line += ToJsonLine(MetricsRegistry::Global().Snapshot());
  metrics_line += "}\n";
  w.Str(metrics_line.c_str());
  w.Flush();
  // Refresh the signal path's cached metrics line.
  g_metrics_cache.store(KeepMetricsLine(std::move(metrics_line)),
                        std::memory_order_release);

  const bool ok = ::close(fd) == 0 && !w.failed;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

void FlightRecorder::DumpToFdSignalSafe(int fd) const {
  SigWriter w(fd);
  WriteHeader(w, "signal", TotalRecorded());

  // One pass in seq order would need a sort; dump slots oldest-ish
  // first instead: slot (next % capacity) onward is the oldest when
  // the ring has wrapped.
  const uint64_t next = next_.load(std::memory_order_relaxed);
  for (size_t k = 0; k < kCapacity; ++k) {
    const size_t i = (next + k) % kCapacity;
    AuditRecord r;
    if (ReadSlot(i, &r)) WriteAudit(w, r);
  }

  const char* metrics = g_metrics_cache.load(std::memory_order_acquire);
  if (metrics != nullptr) w.Str(metrics);
  w.Flush();
}

void FlightRecorder::Clear() {
  for (Slot& s : slots_) s.stamp.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
}

void SetFlightRecorderDumpPath(std::string_view path) {
  InitPathFromEnvOnce();
  const size_t n =
      path.size() < sizeof(g_dump_path) - 1 ? path.size()
                                            : sizeof(g_dump_path) - 1;
  std::memcpy(g_dump_path, path.data(), n);
  g_dump_path[n] = '\0';
}

const char* FlightRecorderDumpPath() {
  InitPathFromEnvOnce();
  return g_dump_path;
}

void InstallCrashHandlers() {
  InitPathFromEnvOnce();
  static const bool installed = [] {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = CrashHandler;
    sigemptyset(&action.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
      sigaction(sig, &action, nullptr);
    }
    return true;
  }();
  (void)installed;
}

void NotifyFatal() {
  if (g_fatal_dumped.exchange(true)) return;
  const char* path = FlightRecorderDumpPath();
  if (path[0] == '\0') return;
  std::string err;
  // Best-effort: the process is about to abort, so the error (if any)
  // has nowhere to go.
  (void)FlightRecorder::Global().DumpToFile(path, "fatal", &err);
}

}  // namespace geoalign::obs
