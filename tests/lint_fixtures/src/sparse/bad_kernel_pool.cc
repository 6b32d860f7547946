// Seeded violation for the geoalign-kernel-pool rule: a sparse kernel
// that fans out over threads. Kernels serving one column run on the
// calling thread; common::ParallelFor fans out independent tasks above
// them.
#include <cstddef>

#include "common/parallel_for.h"

namespace geoalign::sparse {

void ScaleValues(double* values, size_t n, double scale, size_t threads) {
  common::ParallelFor(threads, n,
                      [&](size_t i, size_t) { values[i] *= scale; });
}

}  // namespace geoalign::sparse
