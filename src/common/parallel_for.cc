#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <system_error>
#include <thread>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/telemetry.h"
#include "obs/timer.h"

namespace geoalign::common {

namespace {

// Fan-out telemetry (metric catalog: docs/observability.md). References
// are resolved once; increments are lock-free and no-ops while
// telemetry is disabled.
obs::Counter& TasksExecuted() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("thread_pool.tasks_executed");
  return c;
}
obs::Counter& BusyMicros() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("thread_pool.busy_micros");
  return c;
}
obs::Counter& WorkersStarted() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("thread_pool.workers_started");
  return c;
}

// A worker's first failure. Each worker takes its tasks in ascending
// order and stops at its first throw, so this is its smallest.
struct TaskError {
  size_t task = 0;
  std::exception_ptr error;
};

}  // namespace

size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<ChunkRange> DeterministicChunks(size_t n, size_t grain) {
  std::vector<ChunkRange> chunks;
  if (n == 0) return chunks;
  grain = std::max<size_t>(1, grain);
  // Bound the chunk count (transient memory of reductions); the
  // widened grain is still a function of (n, grain) only.
  size_t count = (n + grain - 1) / grain;
  if (count > kMaxChunks) {
    grain = (n + kMaxChunks - 1) / kMaxChunks;
    count = (n + grain - 1) / grain;
  }
  chunks.reserve(count);
  for (size_t begin = 0; begin < n; begin += grain) {
    chunks.push_back({begin, std::min(n, begin + grain)});
  }
  return chunks;
}

size_t ParallelWorkers(size_t threads, size_t num_tasks) {
  return std::min(ResolveThreadCount(threads), num_tasks);
}

void ParallelFor(size_t threads, size_t num_tasks,
                 const std::function<void(size_t task, size_t worker)>& fn) {
  const size_t workers = ParallelWorkers(threads, num_tasks);
  if (workers <= 1) {
    for (size_t t = 0; t < num_tasks; ++t) fn(t, 0);
    return;
  }
  const bool telemetry = obs::Enabled();
  std::atomic<size_t> next{0};
  std::vector<TaskError> errors(workers);
  auto run = [&](size_t worker) {
    obs::Stopwatch watch;
    size_t done = 0;
    for (size_t t = next.fetch_add(1, std::memory_order_relaxed);
         t < num_tasks; t = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(t, worker);
      } catch (...) {
        errors[worker] = {t, std::current_exception()};
        next.store(num_tasks, std::memory_order_relaxed);  // start no more
        break;
      }
      ++done;
    }
    if (telemetry) {
      TasksExecuted().Add(done);
      BusyMicros().Add(
          static_cast<uint64_t>(std::llround(watch.ElapsedMicros())));
    }
  };

  // Threads start with an empty request context; each re-establishes
  // the caller's, so the spans and audit records of every task stay
  // attributed to the request.
  const obs::RequestToken request = obs::CurrentRequest();
  std::vector<std::thread> joined;
  joined.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    try {
      joined.emplace_back([&run, &request, w] {
        obs::RequestScope scope(request);
        run(w);
      });
    } catch (const std::system_error&) {
      break;  // out of threads: the ones already started share the tasks
    }
  }
  if (telemetry) WorkersStarted().Add(joined.size());
  run(0);
  for (std::thread& thread : joined) thread.join();

  const TaskError* first = nullptr;
  for (const TaskError& e : errors) {
    if (e.error && (first == nullptr || e.task < first->task)) first = &e;
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

}  // namespace geoalign::common
