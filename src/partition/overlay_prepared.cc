#include "partition/overlay_prepared.h"

namespace geoalign::partition {

PreparedOverlayLayer PreparedOverlayLayer::Build(const PolygonPartition& layer) {
  PreparedOverlayLayer out;
  size_t n = layer.NumUnits();
  out.fan_offsets_.reserve(n + 1);

  // Size the flat store up front (fans have at most vertices-2
  // triangles per ring) so the fill pass never reallocates.
  size_t tri_upper = 0;
  for (size_t i = 0; i < n; ++i) tri_upper += layer.unit(i).VertexCount();
  out.tris_.reserve(tri_upper);

  out.fan_offsets_.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    // Same decomposition the per-pair path runs: identical triangles in
    // identical order, so downstream clipping is bit-identical.
    geom::SignedFan(layer.unit(i), &out.tris_);
    out.fan_offsets_.push_back(static_cast<uint32_t>(out.tris_.size()));
  }
  out.tri_boxes_.reserve(out.tris_.size());
  geom::FanBBoxes(out.tris_, &out.tri_boxes_);
  return out;
}

}  // namespace geoalign::partition
