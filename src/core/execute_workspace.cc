#include "core/execute_workspace.h"

namespace geoalign::core {

void ExecuteWorkspace::Prepare(const ExecuteWorkspaceSpec& spec, size_t) {
  Reset(effective_weights_, spec.num_references);
  Reset(denominators_, spec.num_source);
  rows_.Prepare(spec.num_references, spec.num_source, spec.num_target);
}

void ExecuteWorkspace::PreparePanel(const ExecuteWorkspaceSpec& spec,
                                    size_t width) {
  size_t need = spec.num_references * width;
  if (panel_.lane_weights.size() < need) {
    ++alloc_events_;
    panel_.lane_weights.resize(need);
  }
  bool grew = false;
  auto reserve_ptrs = [&grew](auto& v, size_t n) {
    if (v.capacity() < n) {
      grew = true;
      v.reserve(n);
    }
  };
  reserve_ptrs(panel_.row_scales, width);
  reserve_ptrs(panel_.operand_aggregates, spec.num_references);
  reserve_ptrs(panel_.targets, width);
  reserve_ptrs(panel_.zero_lists, width);
  reserve_ptrs(panel_.lanes, width);
  if (grew) ++alloc_events_;
  if (spec.aligned) fused_.PreparePanel(spec.fused, width);
}

linalg::Vector& ExecuteWorkspace::EffectiveWeights(size_t n) {
  return Reset(effective_weights_, n);
}

linalg::Vector& ExecuteWorkspace::Denominators(size_t n) {
  return Reset(denominators_, n);
}

linalg::Vector& ExecuteWorkspace::Reset(linalg::Vector& v, size_t n) {
  if (v.capacity() < n) ++alloc_events_;
  v.assign(n, 0.0);
  return v;
}

}  // namespace geoalign::core
