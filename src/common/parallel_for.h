#ifndef GEOALIGN_COMMON_PARALLEL_FOR_H_
#define GEOALIGN_COMMON_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace geoalign::common {

/// Resolves a user-facing thread-count option: 0 means "use every
/// hardware thread" (at least 1); any other value is taken literally.
size_t ResolveThreadCount(size_t requested);

/// Half-open index range of one deterministic chunk.
struct ChunkRange {
  size_t begin;
  size_t end;
};

/// Splits [0, n) into fixed chunks of ~`grain` elements.
///
/// THE DETERMINISM CONTRACT: boundaries depend only on `n` and `grain`
/// — never on the thread count — so any computation that (a) makes
/// each chunk self-contained and (b) combines per-chunk results in
/// chunk-index order produces bit-identical output for every thread
/// count, including the inline path.
///
/// When n/grain would exceed kMaxChunks the grain is widened so the
/// chunk count stays bounded (still a function of n and grain only).
std::vector<ChunkRange> DeterministicChunks(size_t n, size_t grain);

/// Upper bound on the number of chunks DeterministicChunks emits;
/// bounds the per-chunk buffers of a fan-out.
inline constexpr size_t kMaxChunks = 512;

/// The number of workers ParallelFor(threads, num_tasks, …) runs:
/// min(ResolveThreadCount(threads), num_tasks). Callers size their
/// per-worker state from it.
size_t ParallelWorkers(size_t threads, size_t num_tasks);

/// Fork-join: runs fn(task, worker) once for every task in
/// [0, num_tasks). The calling thread is worker 0; for this call only,
/// ParallelWorkers(threads, num_tasks) − 1 more threads join it (fewer
/// if the system refuses to start one), each under the caller's
/// obs::RequestToken, and every worker takes task indices in
/// ascending order from one shared counter, so
/// `worker < ParallelWorkers(threads, num_tasks)` and no two running
/// tasks share a worker index. With one worker the tasks run inline,
/// in ascending order. Each call owns its threads, so a task may fan
/// out again without waiting on any other call's workers.
///
/// If tasks throw, no further task starts, and the exception of the
/// smallest-index throwing task is re-thrown once every started task
/// has finished — inline, that is the first throw.
void ParallelFor(size_t threads, size_t num_tasks,
                 const std::function<void(size_t task, size_t worker)>& fn);

}  // namespace geoalign::common

#endif  // GEOALIGN_COMMON_PARALLEL_FOR_H_
