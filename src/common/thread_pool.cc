#include "common/thread_pool.h"

#include <algorithm>
#include <cmath>
#include <exception>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace geoalign::common {

namespace {

// Pool telemetry (metric catalog: docs/observability.md). References
// are resolved once; increments are lock-free and no-ops while
// telemetry is disabled. The gauge tracks instantaneous queue depth,
// so it can drift if the switch flips mid-flight — counters stay exact.
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
obs::Gauge& QueueDepth() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("thread_pool.queue_depth");
  return g;
}

// Index of this thread within the pool that spawned it; workers set it
// once at startup and it is never written again, so reads are free.
thread_local size_t t_worker_index = ThreadPool::kNoWorkerIndex;

}  // namespace

size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  WorkersStarted().Add(n);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    MutexLock lock(mu_);
    // Submitting to a pool whose destructor has begun is a programming
    // error, and the Status contract forbids throwing from library
    // code; fail fast instead of racing the worker shutdown.
    GEOALIGN_CHECK(!stopping_) << "ThreadPool::Submit after shutdown";
    queue_.push_back(std::move(packaged));
  }
  QueueDepth().Add(1);
  cv_.NotifyOne();
  return future;
}

size_t ThreadPool::CurrentWorkerIndex() { return t_worker_index; }

void ThreadPool::WorkerLoop(size_t worker_index) {
  t_worker_index = worker_index;
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mu_);
      // Predicate loop at the call site (not a wait-with-lambda) so
      // the thread-safety analysis sees the guarded reads.
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    QueueDepth().Sub(1);
    if (obs::Enabled()) {
      obs::Stopwatch watch;
      task();  // exceptions land in the task's future
      BusyMicros().Add(
          static_cast<uint64_t>(std::llround(watch.ElapsedMicros())));
      TasksExecuted().Add(1);
    } else {
      task();  // exceptions land in the task's future
    }
  }
}

std::unique_ptr<ThreadPool> MakePoolOrNull(size_t threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
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

void ParallelForChunks(ThreadPool* pool, size_t num_chunks,
                       const std::function<void(size_t)>& fn) {
  if (num_chunks == 0) return;
  if (pool == nullptr || pool->size() <= 1 || num_chunks == 1) {
    for (size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    futures.push_back(pool->Submit([&fn, c] { fn(c); }));
  }
  // Every chunk must finish before we return (the closures reference
  // caller state), so collect the first exception instead of throwing
  // mid-drain.
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace geoalign::common
