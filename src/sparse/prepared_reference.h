#ifndef GEOALIGN_SPARSE_PREPARED_REFERENCE_H_
#define GEOALIGN_SPARSE_PREPARED_REFERENCE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "linalg/vector_ops.h"
#include "sparse/csr_matrix.h"

namespace geoalign::sparse {

/// A 128-bit content digest (ContentHash::Finish). `lo` doubles as
/// the 64-bit fingerprint that plans, audit records and the C ABI
/// expose.
struct ContentDigest {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const ContentDigest&) const = default;
};

/// The library's one content hash: it fingerprints prepared reference
/// sets and keys core::PlanCache. Non-cryptographic, deterministic for
/// a given host byte order, with a 128-bit output.
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

/// Raw per-reference inputs to PreparedReferenceSet::Prepare: one
/// reference attribute α_r as the core layer sees it, without any core
/// dependency (core depends on sparse, never the reverse).
struct ReferenceData {
  std::string name;
  linalg::Vector source_aggregates;  ///< a^s_r, one entry per source unit
  CsrMatrix disaggregation;          ///< DM_r, |U^s| x |U^t|
};

/// Zero-copy flavor of ReferenceData: the aggregate column is a
/// borrowed view and the DM a CsrMatrix, which shares its arrays with
/// the matrix it was copied from or views borrowed ones
/// (CsrMatrix::FromBorrowed). `keepalive` optionally guards the
/// aggregate memory; the DM's owner handle keeps its arrays alive. The viewed
/// memory must stay alive for the lifetime of whatever Prepare
/// produces (keepalives make that automatic for ref-counted hosts).
struct ReferenceDataView {
  std::string name;
  common::ColumnView source_aggregates;
  CsrMatrix disaggregation;
  std::shared_ptr<const void> keepalive;
};

/// True when every value is finite and non-negative (-0.0 passes), in
/// one branch-free pass: the rule for reference and fallback DMs.
inline bool FiniteNonNegative(common::ConstSpan<double> values) {
  // `+ 0.0` turns -0.0 into +0.0 and leaves every other value as it
  // is; then the sign bit of `bits | (bits + 2^52)` is set exactly for
  // a negative value (its own sign bit) or ±Inf and NaN (adding 1 to
  // their all-ones exponent carries into the sign bit).
  uint64_t flags = 0;
  for (double v : values) {
    const uint64_t bits = std::bit_cast<uint64_t>(v + 0.0);
    flags |= bits | (bits + (uint64_t{1} << 52));
  }
  return flags >> 63 == 0;
}

/// Decides whether one reference is usable: the library's one
/// reference check, run by PreparedReferenceSet::Prepare (so by every
/// compile path, the C ABI included) and by
/// core::CrosswalkInput::Validate. Fails with InvalidArgument, naming
/// the reference, when
///  - the shape is off (CheckReferenceShape against `rows` x `cols`,
///    the first reference's DM shape);
///  - an aggregate is NaN, ±Inf or negative, or all of them are zero;
///  - a DM entry is NaN, ±Inf or negative (FiniteNonNegative).
/// On success returns the max-normalized aggregates (the Eq. 15
/// column) and, when `normalizer` is non-null, stores their maximum
/// there: the aggregate check is the normalization pass itself.
/// Row sums are not checked here; see partition::CheckDmConsistency.
Result<linalg::Vector> CheckReference(const std::string& name,
                                      common::ColumnView aggregates,
                                      const CsrMatrix& dm, size_t rows,
                                      size_t cols,
                                      double* normalizer = nullptr);

/// The shape half of CheckReference: `dm` is `rows` x `cols`,
/// `aggregates` has `rows` entries, and there is at least one target
/// unit (`cols` > 0). core::CrosswalkPipeline::Create runs it against
/// its unit lists for every method.
Status CheckReferenceShape(const std::string& name,
                           common::ColumnView aggregates, const CsrMatrix& dm,
                           size_t rows, size_t cols);

/// `status` with its message prefixed by "reference '<name>': ", the
/// form every per-reference error takes.
Status ReferenceError(const std::string& name, const Status& status);

/// One reference after objective-independent compilation: everything
/// Eq. 14/15 need that does not depend on the objective column,
/// computed once and immutable afterwards.
///
/// The disaggregation matrix is kept RAW (not pre-divided by the
/// normalizer): ScaleMode::kNormalized folds 1/normalizer into the
/// per-execute effective weights instead, because IEEE division does
/// not commute bit-exactly with the weighted row merge — pre-scaling
/// the values would break the bit-identity contract between the
/// compiled path and the legacy per-call path.
///
/// `source_aggregates` is a view: over caller memory on the zero-copy
/// ingest path (guarded by `aggregates_keepalive` when provided), or
/// over a buffer adopted from the owning path. Either way the bytes
/// are never duplicated by Prepare itself.
struct PreparedReference {
  std::string name;
  common::ColumnView source_aggregates;  ///< a^s_r (borrowed view)
  std::shared_ptr<const void> aggregates_keepalive;
  CsrMatrix disaggregation;              ///< DM_r, raw values
  linalg::Vector normalized_aggregates;  ///< a^s_r / max_i a^s_r[i] (Eq. 15 column)
  double normalizer = 1.0;               ///< max_i a^s_r[i]
};

/// The head of a reference set's hash stream: the reference count and
/// the DM shape (`rows` x `cols`, the first reference's).
inline ContentHash BeginReferenceSetHash(size_t count, size_t rows,
                                         size_t cols) {
  ContentHash hash;
  hash.MixSize(count);
  hash.MixSize(rows);
  hash.MixSize(cols);
  return hash;
}

/// One reference's part of the stream: its name, aggregates and CSR
/// arrays. `Reference` is any type with `name`, `source_aggregates`
/// and `disaggregation` members. PreparedReferenceSet::Prepare mixes
/// each reference right after checking it, while its arrays are still
/// in cache; HashReferenceSet mixes them in one loop.
template <typename Reference>
void MixReference(const Reference& ref, ContentHash& hash) {
  hash.MixString(ref.name);
  hash.MixDoubles(ref.source_aggregates);
  hash.MixSizes(ref.disaggregation.row_ptr());
  hash.MixSizes(ref.disaggregation.col_idx());
  hash.MixDoubles(ref.disaggregation.values());
}

/// Hashes a reference set's content: BeginReferenceSetHash, then
/// MixReference for each reference in order. PreparedReferenceSet's
/// fingerprint() and the reference half of core::PlanCache keys are
/// this one stream, so both agree by construction. Returns the
/// unfinished hash so callers can mix more in.
template <typename Reference>
ContentHash HashReferenceSet(const std::vector<Reference>& references) {
  ContentHash hash = BeginReferenceSetHash(
      references.size(),
      references.empty() ? 0 : references[0].disaggregation.rows(),
      references.empty() ? 0 : references[0].disaggregation.cols());
  for (const Reference& ref : references) MixReference(ref, hash);
  return hash;
}

/// An immutable, shareable set of prepared references — the sparse
/// half of a compiled CrosswalkPlan. Detects once whether every
/// reference DM shares one column-index structure (the common case
/// when all DMs come from the same overlay), which lets the executor
/// serve many columns through the structure-sharing panel kernel.
///
/// Move-only: the cached DM pointer vector aliases the prepared
/// references, which stay valid across moves of the owning vector but
/// not across copies.
class PreparedReferenceSet {
 public:
  /// Checks every reference with CheckReference, which also
  /// max-normalizes its aggregates (the ScaleMode::kNormalized /
  /// Eq. 15 preprocessing), and mixes it into the set's hash right
  /// after its check (the HashReferenceSet stream).
  ///
  /// Zero-copy contract: the aggregate views and any borrowed DM
  /// arrays are referenced, never duplicated — the prepared set reads
  /// caller memory through the views for its whole lifetime.
  static Result<PreparedReferenceSet> Prepare(
      std::vector<ReferenceDataView> references);

  /// Owning adapter: moves each aggregate vector into a ref-counted
  /// keepalive (one move, no byte copy) and forwards to the view
  /// Prepare. Behavior and error messages are identical.
  static Result<PreparedReferenceSet> Prepare(
      std::vector<ReferenceData> references);

  PreparedReferenceSet(PreparedReferenceSet&&) = default;
  PreparedReferenceSet& operator=(PreparedReferenceSet&&) = default;
  PreparedReferenceSet(const PreparedReferenceSet&) = delete;
  PreparedReferenceSet& operator=(const PreparedReferenceSet&) = delete;

  size_t size() const { return refs_.size(); }
  size_t num_source() const { return num_source_; }
  size_t num_target() const { return num_target_; }
  const PreparedReference& reference(size_t k) const { return refs_[k]; }

  /// Pointers to every reference's raw DM, in reference order — the
  /// operand list of sparse::DisaggregateRows (and of WeightedSum in
  /// the oracle) on any structure, and of FusedAggregatesPanel when
  /// aligned().
  const std::vector<const CsrMatrix*>& dms() const { return dms_; }

  /// True when all DMs share identical row_ptr/col_idx arrays: the
  /// precondition of the panel lane (FusedAggregatesPanel). The row
  /// kernel serves both cases; single-column executes never read it.
  bool aligned() const { return aligned_; }

  /// Content fingerprint: the low half of the set's HashReferenceSet
  /// digest, computed once by Prepare — and the reference half of a
  /// PlanCache key.
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  PreparedReferenceSet() = default;

  std::vector<PreparedReference> refs_;
  std::vector<const CsrMatrix*> dms_;
  bool aligned_ = false;
  uint64_t fingerprint_ = 0;
  size_t num_source_ = 0;
  size_t num_target_ = 0;
};

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_PREPARED_REFERENCE_H_
