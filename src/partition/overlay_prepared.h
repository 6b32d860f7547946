#ifndef GEOALIGN_PARTITION_OVERLAY_PREPARED_H_
#define GEOALIGN_PARTITION_OVERLAY_PREPARED_H_

#include <cstdint>
#include <vector>

#include "geom/boolean_ops.h"
#include "partition/polygon_partition.h"

namespace geoalign::partition {

/// Overlay-scoped prepared form of one PolygonPartition. The signed
/// fans of all units live in one flat triangle vector with a parallel
/// per-triangle bbox vector (geom::FanBBoxes arithmetic, so pruning
/// against them is bit-identical to recomputing boxes in the tri×tri
/// loop). Each unit's fan is a pure function of its polygon, computed
/// exactly once per overlay — where the legacy path re-derived it per
/// candidate pair. Build is O(total vertices); the overlay engine
/// builds one for the target layer and amortizes it over every
/// candidate pair (source fans are derived per pair chunk instead).
class PreparedOverlayLayer {
 public:
  static PreparedOverlayLayer Build(const PolygonPartition& layer);

  /// The unit's fan triangles / per-triangle bboxes (parallel arrays).
  const geom::SignedTriangle* fan(size_t i) const {
    return tris_.data() + fan_offsets_[i];
  }
  const geom::BBox* fan_boxes(size_t i) const {
    return tri_boxes_.data() + fan_offsets_[i];
  }
  size_t fan_size(size_t i) const {
    return fan_offsets_[i + 1] - fan_offsets_[i];
  }

 private:
  /// Unit i's triangles are [fan_offsets_[i], fan_offsets_[i + 1]).
  std::vector<uint32_t> fan_offsets_;
  std::vector<geom::SignedTriangle> tris_;
  std::vector<geom::BBox> tri_boxes_;
};

}  // namespace geoalign::partition

#endif  // GEOALIGN_PARTITION_OVERLAY_PREPARED_H_
