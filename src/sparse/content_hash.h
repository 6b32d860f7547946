#ifndef GEOALIGN_SPARSE_CONTENT_HASH_H_
#define GEOALIGN_SPARSE_CONTENT_HASH_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/span.h"

namespace geoalign::sparse {

/// A 128-bit content digest (ContentHash::Finish). `lo` doubles as
/// the 64-bit fingerprint that plans, audit records and the C ABI
/// expose.
struct ContentDigest {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const ContentDigest&) const = default;
};

/// The library's one content hash: it digests CSR matrices
/// (CsrMatrix::Digest), fingerprints prepared reference sets and keys
/// core::PlanCache. Non-cryptographic, deterministic for a given host
/// byte order, with a 128-bit output.
///
/// The input is a stream of 64-bit words spread round-robin over four
/// independent multiply-rotate accumulators, so the multiplies of
/// neighbouring words overlap instead of forming one dependency chain.
/// Every array is prefixed by its element count and its trailing
/// partial word is zero-padded; the in-band count keeps padding and
/// array boundaries unambiguous. Finish() folds the four lanes and the
/// word count and avalanches them into two 64-bit halves.
///
/// Span parameters (vectors convert implicitly) make the mixed word
/// stream identical whichever ingest path produced the data, so
/// fingerprints and PlanCache keys do not depend on whether the arrays
/// are owned or borrowed.
class ContentHash {
 public:
  ContentHash();

  void MixU64(uint64_t v) { MixWord(v); }
  void MixSize(size_t v) { MixU64(static_cast<uint64_t>(v)); }
  void MixDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    MixU64(bits);
  }
  void MixDoubles(common::ConstSpan<double> v) {
    MixArray(v.size(), v.data(), v.size() * sizeof(double));
  }
  void MixSizes(common::ConstSpan<size_t> v) {
    MixArray(v.size(), v.data(), v.size() * sizeof(size_t));
  }
  void MixString(const std::string& s) {
    MixArray(s.size(), s.data(), s.size());
  }

  /// Digest of everything mixed so far. Const: mixing may continue
  /// afterwards, extending the same stream.
  ContentDigest Finish() const;

 private:
  void MixWord(uint64_t word);
  /// Count prefix, whole words, then the zero-padded tail word.
  void MixArray(size_t count, const void* data, size_t bytes);

  uint64_t lanes_[4];
  uint64_t words_ = 0;
};

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_CONTENT_HASH_H_
