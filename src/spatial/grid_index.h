#ifndef GEOALIGN_SPATIAL_GRID_INDEX_H_
#define GEOALIGN_SPATIAL_GRID_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geom/bbox.h"

namespace geoalign::spatial {

/// Uniform grid over item boxes: point location and box queries over a
/// unit layer's bounding boxes (PolygonPartition). The grid covers the
/// bounds of the non-empty boxes with about one square cell per item.
/// Each cell lists, in ascending id, the items whose box meets it: one
/// offsets array and one id array, with each item's box stored once, by
/// id. Build and query map a coordinate to its cell with one monotone
/// expression, so the cell of any point inside a box lies between the
/// cells of the box's corners and lists the box. When the lists would
/// hold more than kMaxEntriesPerItem entries per item (boxes that span
/// much of the layer), the resolution halves until they do not, so
/// memory stays O(n). An empty box, or one with a NaN coordinate, is in
/// no list and never returned.
class BoxGridIndex {
 public:
  /// Bound on the list entries per item; not an option.
  static constexpr size_t kMaxEntriesPerItem = 8;

  /// Indexes the boxes; item i keeps identifier i.
  explicit BoxGridIndex(std::vector<geom::BBox> boxes);

  /// The lowest id whose box contains `p` and for which `pred(id)`
  /// holds, or size() when there is none. Scans the one list of `p`'s
  /// cell in ascending id and stops at the first match.
  template <typename Pred>
  size_t FirstContaining(const geom::Point& p, Pred&& pred) const {
    const size_t cell = size_t{CellY(p.y)} * nx_ + CellX(p.x);
    for (uint32_t k = cell_start_[cell]; k < cell_start_[cell + 1]; ++k) {
      const uint32_t id = ids_[k];
      if (boxes_[id].Contains(p) && pred(id)) return id;
    }
    return boxes_.size();
  }

  /// Clears `*out` and fills it with the ascending ids of the items
  /// whose box meets the closed box `query`, each id once. An inverted,
  /// NaN or empty query matches nothing.
  void Query(const geom::BBox& query, std::vector<uint32_t>* out) const;

  size_t size() const { return boxes_.size(); }

  /// Entries over all cell lists: each item once per cell it meets.
  size_t num_entries() const { return ids_.size(); }

 private:
  // (v - lo) * inv_w, truncated, then clamped to [0, last]. Clamping
  // before the truncation gives the same cell and keeps an infinite or
  // NaN product defined (NaN maps to 0). Build and query both use it.
  static uint32_t Cell(double v, double lo, double inv_w, uint32_t last) {
    const double t = std::min(std::max(0.0, (v - lo) * inv_w),
                              static_cast<double>(last));
    return static_cast<uint32_t>(t);
  }
  uint32_t CellX(double x) const { return Cell(x, min_x_, inv_w_x_, nx_ - 1); }
  uint32_t CellY(double y) const { return Cell(y, min_y_, inv_w_y_, ny_ - 1); }

  std::vector<geom::BBox> boxes_;     // by id, as given
  std::vector<uint32_t> cell_start_;  // row-major cells, nx_ * ny_ + 1
  std::vector<uint32_t> ids_;         // each cell's run ascending
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double inv_w_x_ = 0.0;  // cells per unit of x; 0 with one column
  double inv_w_y_ = 0.0;
  uint32_t nx_ = 1;
  uint32_t ny_ = 1;
};

/// Uniform grid over points, for nearest-site assignment and cheap
/// range queries when items are (approximately) evenly distributed.
class PointGridIndex {
 public:
  /// Builds over `points` contained in `bounds`, with roughly
  /// `target_per_cell` items per grid cell.
  PointGridIndex(const std::vector<geom::Point>& points,
                 const geom::BBox& bounds, double target_per_cell = 4.0);

  /// Index of the point nearest to `q` (ties broken by lower index).
  /// Requires a non-empty index.
  uint32_t Nearest(const geom::Point& q) const;

  /// Indices of points within `radius` of `q`.
  std::vector<uint32_t> WithinRadius(const geom::Point& q,
                                     double radius) const;

  size_t size() const { return points_.size(); }

 private:
  struct CellCoord {
    int x;
    int y;
  };
  CellCoord CellOf(const geom::Point& p) const;
  const std::vector<uint32_t>& Bucket(int cx, int cy) const;

  std::vector<geom::Point> points_;
  geom::BBox bounds_;
  double cell_size_ = 1.0;
  int nx_ = 1;
  int ny_ = 1;
  std::vector<std::vector<uint32_t>> buckets_;
};

}  // namespace geoalign::spatial

#endif  // GEOALIGN_SPATIAL_GRID_INDEX_H_
