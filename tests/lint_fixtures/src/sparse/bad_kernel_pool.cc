// Seeded violation for the geoalign-kernel-pool rule: a sparse kernel
// that takes a thread pool. Kernels serving one column run on the
// calling thread; pools fan out independent tasks above them.
#include <cstddef>

#include "common/thread_pool.h"

namespace geoalign::sparse {

void ScaleValues(double* values, size_t n, double scale,
                 common::ThreadPool* pool) {
  common::ParallelForChunks(pool, n, [&](size_t i) { values[i] *= scale; });
}

}  // namespace geoalign::sparse
