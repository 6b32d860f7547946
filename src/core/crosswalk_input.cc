#include "core/crosswalk_input.h"

#include <string>

#include "common/string_util.h"
#include "partition/disaggregation.h"

namespace geoalign::core {

Status CrosswalkInput::Validate(double consistency_tol) const {
  if (references.empty()) {
    return Status::InvalidArgument("no reference attributes");
  }
  const size_t num_source = references[0].disaggregation.rows();
  const size_t num_target = references[0].disaggregation.cols();
  for (const ReferenceAttribute& ref : references) {
    GEOALIGN_RETURN_IF_ERROR(
        sparse::CheckReference(ref.name, ref.source_aggregates,
                               ref.disaggregation, num_source, num_target)
            .status());
  }
  GEOALIGN_RETURN_IF_ERROR(
      CheckObjective(objective_source, num_source).status());
  for (const ReferenceAttribute& ref : references) {
    Status consistent = partition::CheckDmConsistency(
        ref.disaggregation, ref.source_aggregates, consistency_tol);
    if (!consistent.ok()) return sparse::ReferenceError(ref.name, consistent);
  }
  return Status::OK();
}

Result<linalg::Vector> CheckObjective(common::ColumnView objective,
                                      size_t num_source) {
  if (objective.size() != num_source) {
    return Status::InvalidArgument(
        StrFormat("objective: source vector has %zu entries, expected %zu",
                  objective.size(), num_source));
  }
  Result<linalg::Vector> normalized = linalg::NormalizeByMax(objective);
  if (!normalized.ok()) {
    return Status(normalized.status().code(),
                  "objective: " + std::string(normalized.status().message()));
  }
  return normalized;
}

Result<size_t> CrosswalkInput::FindReference(const std::string& name) const {
  for (size_t k = 0; k < references.size(); ++k) {
    if (references[k].name == name) return k;
  }
  return Status::NotFound("no reference named '" + name + "'");
}

Result<CrosswalkInput> CrosswalkInput::WithReferenceSubset(
    const std::vector<size_t>& keep) const {
  if (keep.empty()) {
    return Status::InvalidArgument("WithReferenceSubset: empty subset");
  }
  CrosswalkInput out;
  out.objective_source = objective_source;
  for (size_t k : keep) {
    if (k >= references.size()) {
      return Status::OutOfRange("WithReferenceSubset: index out of range");
    }
    out.references.push_back(references[k]);
  }
  return out;
}

}  // namespace geoalign::core
