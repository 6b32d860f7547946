#include "sparse/prepared_reference.h"

#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"

namespace geoalign::sparse {

namespace {

// The xxHash64 primes: odd, with well-spread bits.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

uint64_t Rotl(uint64_t v, int r) { return (v << r) | (v >> (64 - r)); }

/// One multiply-rotate accumulator step.
uint64_t Round(uint64_t lane, uint64_t word) {
  return Rotl(lane + word * kPrime2, 31) * kPrime1;
}

uint64_t LoadWord(const unsigned char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Final mix: every input bit affects every output bit.
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

/// Folds the four lanes and the word count into one word. The two
/// digest halves pass the lanes in opposite orders, so each half is a
/// different function of the whole state.
uint64_t Fold(uint64_t a, uint64_t b, uint64_t c, uint64_t d,
              uint64_t words) {
  uint64_t h = Rotl(a, 1) + Rotl(b, 7) + Rotl(c, 12) + Rotl(d, 18);
  for (uint64_t lane : {a, b, c, d}) {
    h ^= Round(0, lane);
    h = h * kPrime1 + kPrime4;
  }
  return Avalanche(h + words * kPrime5);
}

}  // namespace

ContentHash::ContentHash()
    : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void ContentHash::MixWord(uint64_t word) {
  uint64_t& lane = lanes_[words_ & 3];
  lane = Round(lane, word);
  ++words_;
}

void ContentHash::MixArray(size_t count, const void* data, size_t bytes) {
  MixSize(count);
  const unsigned char* p = static_cast<const unsigned char*>(data);
  size_t words = bytes / sizeof(uint64_t);
  // Single words until the next one lands in lane 0, so the bulk loop
  // feeds fixed lanes from registers.
  for (; words > 0 && (words_ & 3) != 0; --words, p += 8) {
    MixWord(LoadWord(p));
  }
  uint64_t l0 = lanes_[0], l1 = lanes_[1], l2 = lanes_[2], l3 = lanes_[3];
  const size_t stripes = words / 4;
  for (size_t s = 0; s < stripes; ++s, p += 32) {
    l0 = Round(l0, LoadWord(p));
    l1 = Round(l1, LoadWord(p + 8));
    l2 = Round(l2, LoadWord(p + 16));
    l3 = Round(l3, LoadWord(p + 24));
  }
  lanes_[0] = l0;
  lanes_[1] = l1;
  lanes_[2] = l2;
  lanes_[3] = l3;
  words_ += stripes * 4;
  for (words -= stripes * 4; words > 0; --words, p += 8) {
    MixWord(LoadWord(p));
  }
  const size_t tail = bytes % sizeof(uint64_t);
  if (tail != 0) {
    uint64_t last = 0;
    std::memcpy(&last, p, tail);
    MixWord(last);
  }
}

ContentDigest ContentHash::Finish() const {
  ContentDigest digest;
  digest.lo = Fold(lanes_[0], lanes_[1], lanes_[2], lanes_[3], words_);
  digest.hi = Fold(lanes_[3], lanes_[2], lanes_[1], lanes_[0], words_);
  return digest;
}

Status ReferenceError(const std::string& name, const Status& status) {
  return Status(status.code(),
                "reference '" + name + "': " + std::string(status.message()));
}

Status CheckReferenceShape(const std::string& name,
                           common::ColumnView aggregates, const CsrMatrix& dm,
                           size_t rows, size_t cols) {
  if (dm.rows() != rows || dm.cols() != cols) {
    return Status::InvalidArgument(
        StrFormat("reference '%s': DM is %zux%zu, expected %zux%zu",
                  name.c_str(), dm.rows(), dm.cols(), rows, cols));
  }
  if (aggregates.size() != rows) {
    return Status::InvalidArgument(
        StrFormat("reference '%s': source vector has %zu entries, expected %zu",
                  name.c_str(), aggregates.size(), rows));
  }
  if (cols == 0) {
    return Status::InvalidArgument(StrFormat(
        "reference '%s': DM has zero target units", name.c_str()));
  }
  return Status::OK();
}

Result<linalg::Vector> CheckReference(const std::string& name,
                                      common::ColumnView aggregates,
                                      const CsrMatrix& dm, size_t rows,
                                      size_t cols, double* normalizer) {
  GEOALIGN_RETURN_IF_ERROR(
      CheckReferenceShape(name, aggregates, dm, rows, cols));
  // The normalization the legacy per-call BuildNormalizedSystem makes
  // is the aggregate check: it fails on NaN, ±Inf, negative and
  // all-zero columns.
  Result<linalg::Vector> normalized =
      linalg::NormalizeByMax(aggregates, normalizer);
  if (!normalized.ok()) return ReferenceError(name, normalized.status());
  if (!FiniteNonNegative(dm.values())) {
    return Status::InvalidArgument(StrFormat(
        "reference '%s': negative or non-finite DM entry", name.c_str()));
  }
  return normalized;
}

Result<PreparedReferenceSet> PreparedReferenceSet::Prepare(
    std::vector<ReferenceDataView> references) {
  if (references.empty()) {
    return Status::InvalidArgument("no reference attributes");
  }

  GEOALIGN_TRACE_SPAN("compile.prepare_references");
  PreparedReferenceSet set;
  set.num_source_ = references[0].disaggregation.rows();
  set.num_target_ = references[0].disaggregation.cols();
  set.refs_.reserve(references.size());
  ContentHash hash = BeginReferenceSetHash(references.size(), set.num_source_,
                                           set.num_target_);
  for (ReferenceDataView& ref : references) {
    PreparedReference prepared;
    // The check's pass also finds the normalizer, max_i a^s_r[i]:
    // positive, since the check rejects negative and all-zero columns.
    GEOALIGN_ASSIGN_OR_RETURN(
        prepared.normalized_aggregates,
        CheckReference(ref.name, ref.source_aggregates, ref.disaggregation,
                       set.num_source_, set.num_target_,
                       &prepared.normalizer));
    // The check just read these arrays: hash them while they are in
    // cache.
    MixReference(ref, hash);
    prepared.name = std::move(ref.name);
    prepared.source_aggregates = ref.source_aggregates;
    prepared.aggregates_keepalive = std::move(ref.keepalive);
    prepared.disaggregation = std::move(ref.disaggregation);
    set.refs_.push_back(std::move(prepared));
  }
  set.fingerprint_ = hash.Finish().lo;

  set.dms_.reserve(set.refs_.size());
  for (const PreparedReference& ref : set.refs_) {
    set.dms_.push_back(&ref.disaggregation);
  }
  set.aligned_ = true;
  const CsrMatrix& first = set.refs_[0].disaggregation;
  for (size_t k = 1; k < set.refs_.size() && set.aligned_; ++k) {
    const CsrMatrix& dm = set.refs_[k].disaggregation;
    set.aligned_ = dm.row_ptr() == first.row_ptr() &&
                   dm.col_idx() == first.col_idx();
  }
  return set;
}

Result<PreparedReferenceSet> PreparedReferenceSet::Prepare(
    std::vector<ReferenceData> references) {
  std::vector<ReferenceDataView> views;
  views.reserve(references.size());
  for (ReferenceData& ref : references) {
    ReferenceDataView view;
    view.name = std::move(ref.name);
    // One move into a ref-counted holder; the bytes are not copied.
    auto held = std::make_shared<const linalg::Vector>(
        std::move(ref.source_aggregates));
    view.source_aggregates = common::ColumnView(held->data(), held->size());
    view.keepalive = std::move(held);
    view.disaggregation = std::move(ref.disaggregation);
    views.push_back(std::move(view));
  }
  return Prepare(std::move(views));
}

}  // namespace geoalign::sparse
