// Seeded violation for the geoalign-raw-dm-hash rule: a cache key that
// mixes a DM's CSR arrays into the content hash instead of the DM's
// digest (CsrMatrix::Digest), so every key re-reads bytes a built
// block has already digested.
#include "sparse/content_hash.h"
#include "sparse/csr_matrix.h"

namespace geoalign::core {

void MixFallbackDm(const sparse::CsrMatrix& fallback,
                   sparse::ContentHash& hash) {
  hash.MixSizes(fallback.row_ptr());
  hash.MixSizes(fallback.col_idx());
  hash.MixDoubles(
      fallback.values());  // the call may span lines
}

void MixFallbackDm(const sparse::CsrMatrix* fallback,
                   sparse::ContentHash& hash) {
  hash.MixDoubles(fallback->values());
}

}  // namespace geoalign::core
