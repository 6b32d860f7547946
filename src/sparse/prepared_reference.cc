#include "sparse/prepared_reference.h"

#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"

namespace geoalign::sparse {

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
    // The check just read the aggregates: hash them while they are in
    // cache. The DM enters by its digest, computed here only if its
    // block holds none yet.
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
