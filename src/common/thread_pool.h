#ifndef GEOALIGN_COMMON_THREAD_POOL_H_
#define GEOALIGN_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace geoalign::common {

/// Resolves a user-facing thread-count option: 0 means "use every
/// hardware thread" (at least 1); any other value is taken literally.
size_t ResolveThreadCount(size_t requested);

/// Fixed-size FIFO thread pool — no work stealing: tasks run in
/// submission order on whichever worker frees up first. Determinism of
/// the parallel helpers below never depends on which worker executes a
/// task, only on the fixed chunk boundaries and the ordered combine,
/// so the simple queue is enough.
///
/// The destructor drains the queue (every submitted task still runs)
/// and joins all workers.
class ThreadPool {
 public:
  /// Spawns max(1, num_threads) workers.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `task`. The future reports completion and re-throws any
  /// exception the task raised. Submitting to a pool whose destructor
  /// has started is a programming error and throws.
  std::future<void> Submit(std::function<void()> task);

  /// Sentinel returned by CurrentWorkerIndex() off pool threads.
  static constexpr size_t kNoWorkerIndex = static_cast<size_t>(-1);

  /// Index of the calling thread within the pool that spawned it
  /// ([0, size())), or kNoWorkerIndex when the caller is not a pool
  /// worker. Lets fan-out tasks pick a private scratch slot without
  /// any synchronization. Note the index identifies the thread within
  /// its *owning* pool — a fan-out running inline on a worker of some
  /// outer pool must key its slot choice off whether *its own*
  /// invocation was pooled, not off this value alone.
  static size_t CurrentWorkerIndex();

 private:
  void WorkerLoop(size_t worker_index);

  /// Guards the submission queue and the shutdown flag; cv_ signals
  /// queue-not-empty / stopping. Leaf lock: nothing is called with
  /// mu_ held except queue operations, so no ordering edges exist.
  Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ GEOALIGN_GUARDED_BY(mu_);
  bool stopping_ GEOALIGN_GUARDED_BY(mu_) = false;
  /// Written only by the constructor, joined only by the destructor;
  /// size() reads the never-resized vector — no guard needed.
  std::vector<std::thread> workers_;
};

/// Convenience for Options-style plumbing: a live pool for `threads`
/// workers, or null when threads <= 1 (callers then run inline —
/// exactly the legacy single-threaded behavior).
std::unique_ptr<ThreadPool> MakePoolOrNull(size_t threads);

/// Half-open index range of one deterministic chunk.
struct ChunkRange {
  size_t begin;
  size_t end;
};

/// Splits [0, n) into fixed chunks of ~`grain` elements.
///
/// THE DETERMINISM CONTRACT: boundaries depend only on `n` and `grain`
/// — never on the thread count or the pool — so any computation that
/// (a) makes each chunk self-contained and (b) combines per-chunk
/// results in chunk-index order produces bit-identical output for
/// every thread count, including the inline (no-pool) path.
///
/// When n/grain would exceed kMaxChunks the grain is widened so the
/// chunk count stays bounded (still a function of n and grain only).
std::vector<ChunkRange> DeterministicChunks(size_t n, size_t grain);

/// Upper bound on the number of chunks DeterministicChunks emits;
/// bounds the per-chunk buffers of a fan-out.
inline constexpr size_t kMaxChunks = 512;

/// Runs fn(chunk_index) for every chunk_index in [0, num_chunks).
/// With a null pool (or a single chunk) the chunks run inline on the
/// calling thread in ascending order. If any chunk throws, the
/// exception of the smallest-index throwing chunk is re-thrown — but
/// never before every already-started chunk has finished (on the pool
/// path all chunks run to completion first; inline, chunks after the
/// throwing one are never started).
void ParallelForChunks(ThreadPool* pool, size_t num_chunks,
                       const std::function<void(size_t)>& fn);

}  // namespace geoalign::common

#endif  // GEOALIGN_COMMON_THREAD_POOL_H_
