#include "spatial/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace geoalign::spatial {

namespace {

// False for an inverted (empty) box and for any NaN coordinate. Only
// boxes for which it holds are indexed, and only such queries match.
bool NonEmpty(const geom::BBox& b) {
  return b.min_x <= b.max_x && b.min_y <= b.max_y;
}

// ceil(cells) clamped to [1, max_cells]; an infinite count lands in
// range too.
uint32_t AxisCells(double cells, double max_cells) {
  return static_cast<uint32_t>(
      std::min(std::max(1.0, std::ceil(cells)), max_cells));
}

}  // namespace

BoxGridIndex::BoxGridIndex(std::vector<geom::BBox> boxes)
    : boxes_(std::move(boxes)) {
  GEOALIGN_CHECK(boxes_.size() <=
                 std::numeric_limits<uint32_t>::max() / kMaxEntriesPerItem)
      << "BoxGridIndex: too many items";
  geom::BBox bounds;
  size_t indexed = 0;
  for (const geom::BBox& b : boxes_) {
    if (!NonEmpty(b)) continue;
    bounds.Expand(b);
    ++indexed;
  }
  // About one cell per item, shaped to the bounds' aspect, so the
  // cells are near square. An axis with no finite positive extent gets
  // one cell (and inv_w = 0).
  const double w = bounds.max_x - bounds.min_x;
  const double h = bounds.max_y - bounds.min_y;
  const bool wide = w > 0.0 && std::isfinite(w);
  const bool tall = h > 0.0 && std::isfinite(h);
  const double n = std::max<double>(1.0, static_cast<double>(indexed));
  if (wide && tall) {
    nx_ = AxisCells(std::sqrt(n * (w / h)), n);
    ny_ = AxisCells(n / nx_, n);
  } else if (wide) {
    nx_ = AxisCells(n, n);
  } else if (tall) {
    ny_ = AxisCells(n, n);
  }
  if (wide) min_x_ = bounds.min_x;
  if (tall) min_y_ = bounds.min_y;

  // Halve the resolution until the lists hold at most
  // kMaxEntriesPerItem entries per item. One cell holds each indexed
  // item once, so the loop ends.
  const size_t max_entries = kMaxEntriesPerItem * boxes_.size();
  size_t entries = 0;
  for (;;) {
    inv_w_x_ = nx_ > 1 ? nx_ / w : 0.0;
    inv_w_y_ = ny_ > 1 ? ny_ / h : 0.0;
    entries = 0;
    for (size_t id = 0; id < boxes_.size() && entries <= max_entries; ++id) {
      const geom::BBox& b = boxes_[id];
      if (!NonEmpty(b)) continue;
      entries += size_t{CellX(b.max_x) - CellX(b.min_x) + 1} *
                 (CellY(b.max_y) - CellY(b.min_y) + 1);
    }
    if (entries <= max_entries || (nx_ == 1 && ny_ == 1)) break;
    nx_ = std::max<uint32_t>(1, nx_ / 2);
    ny_ = std::max<uint32_t>(1, ny_ / 2);
  }

  // CSR fill in ascending id, so each cell's run is ascending: count
  // into cell_start_[c + 1], prefix-sum, then place each id at its
  // cell's cursor cell_start_[c]; the cursors end at the next cell's
  // start, so a shift by one restores the offsets.
  auto for_each_cell = [this](const geom::BBox& b, auto&& fn) {
    const uint32_t x0 = CellX(b.min_x);
    const uint32_t x1 = CellX(b.max_x);
    for (uint32_t cy = CellY(b.min_y), y1 = CellY(b.max_y); cy <= y1; ++cy) {
      for (uint32_t cx = x0; cx <= x1; ++cx) fn(size_t{cy} * nx_ + cx);
    }
  };
  const size_t num_cells = size_t{nx_} * ny_;
  cell_start_.assign(num_cells + 1, 0);
  for (const geom::BBox& b : boxes_) {
    if (NonEmpty(b)) for_each_cell(b, [&](size_t c) { ++cell_start_[c + 1]; });
  }
  for (size_t c = 0; c < num_cells; ++c) cell_start_[c + 1] += cell_start_[c];
  ids_.resize(entries);
  for (uint32_t id = 0; id < boxes_.size(); ++id) {
    if (!NonEmpty(boxes_[id])) continue;
    for_each_cell(boxes_[id], [&](size_t c) { ids_[cell_start_[c]++] = id; });
  }
  for (size_t c = num_cells; c > 0; --c) cell_start_[c] = cell_start_[c - 1];
  cell_start_[0] = 0;
}

void BoxGridIndex::Query(const geom::BBox& query,
                         std::vector<uint32_t>* out) const {
  out->clear();
  if (!NonEmpty(query)) return;
  const uint32_t x0 = CellX(query.min_x);
  const uint32_t x1 = CellX(query.max_x);
  const uint32_t y0 = CellY(query.min_y);
  const uint32_t y1 = CellY(query.max_y);
  for (uint32_t cy = y0; cy <= y1; ++cy) {
    for (uint32_t cx = x0; cx <= x1; ++cx) {
      const size_t cell = size_t{cy} * nx_ + cx;
      for (uint32_t k = cell_start_[cell]; k < cell_start_[cell + 1]; ++k) {
        const uint32_t id = ids_[k];
        const geom::BBox& b = boxes_[id];
        if (!(b.min_x <= query.max_x && query.min_x <= b.max_x &&
              b.min_y <= query.max_y && query.min_y <= b.max_y)) {
          continue;
        }
        // A box met in several cells of the range is reported from
        // one: the cell of its lower-left corner, clamped into the
        // range, which lists it.
        if ((cx == x0 || CellX(b.min_x) == cx) &&
            (cy == y0 || CellY(b.min_y) == cy)) {
          out->push_back(id);
        }
      }
    }
  }
  // One cell's run is already ascending.
  if (x0 != x1 || y0 != y1) std::sort(out->begin(), out->end());
}

PointGridIndex::PointGridIndex(const std::vector<geom::Point>& points,
                               const geom::BBox& bounds,
                               double target_per_cell)
    : points_(points), bounds_(bounds) {
  double span = std::max(bounds.width(), bounds.height());
  if (span <= 0.0) span = 1.0;
  double cells = std::max(
      1.0, static_cast<double>(points.size()) / std::max(1.0, target_per_cell));
  double per_axis = std::sqrt(cells);
  cell_size_ = std::max(span / per_axis, span * 1e-9);
  nx_ = std::max(1, static_cast<int>(std::ceil(bounds.width() / cell_size_)));
  ny_ = std::max(1, static_cast<int>(std::ceil(bounds.height() / cell_size_)));
  buckets_.resize(static_cast<size_t>(nx_) * ny_);
  for (uint32_t i = 0; i < points_.size(); ++i) {
    CellCoord c = CellOf(points_[i]);
    buckets_[static_cast<size_t>(c.y) * nx_ + c.x].push_back(i);
  }
}

PointGridIndex::CellCoord PointGridIndex::CellOf(const geom::Point& p) const {
  int cx = static_cast<int>((p.x - bounds_.min_x) / cell_size_);
  int cy = static_cast<int>((p.y - bounds_.min_y) / cell_size_);
  cx = std::clamp(cx, 0, nx_ - 1);
  cy = std::clamp(cy, 0, ny_ - 1);
  return {cx, cy};
}

const std::vector<uint32_t>& PointGridIndex::Bucket(int cx, int cy) const {
  return buckets_[static_cast<size_t>(cy) * nx_ + cx];
}

uint32_t PointGridIndex::Nearest(const geom::Point& q) const {
  GEOALIGN_CHECK(!points_.empty()) << "Nearest on empty index";
  CellCoord c = CellOf(q);
  double best_d2 = std::numeric_limits<double>::infinity();
  uint32_t best = 0;
  int max_radius = std::max(nx_, ny_);
  for (int radius = 0; radius <= max_radius; ++radius) {
    // Once a hit is found, one more ring guarantees correctness
    // (points in farther rings are at least (radius-1)*cell_size away).
    if (best_d2 < std::numeric_limits<double>::infinity()) {
      double min_ring = (radius - 1) * cell_size_;
      if (min_ring > 0.0 && min_ring * min_ring > best_d2) break;
    }
    for (int by = c.y - radius; by <= c.y + radius; ++by) {
      if (by < 0 || by >= ny_) continue;
      for (int bx = c.x - radius; bx <= c.x + radius; ++bx) {
        if (bx < 0 || bx >= nx_) continue;
        if (std::max(std::abs(bx - c.x), std::abs(by - c.y)) != radius) {
          continue;
        }
        for (uint32_t i : Bucket(bx, by)) {
          double d2 = geom::DistanceSquared(q, points_[i]);
          if (d2 < best_d2 || (d2 == best_d2 && i < best)) {
            best_d2 = d2;
            best = i;
          }
        }
      }
    }
  }
  return best;
}

std::vector<uint32_t> PointGridIndex::WithinRadius(const geom::Point& q,
                                                   double radius) const {
  std::vector<uint32_t> out;
  if (points_.empty() || radius < 0.0) return out;
  CellCoord lo = CellOf({q.x - radius, q.y - radius});
  CellCoord hi = CellOf({q.x + radius, q.y + radius});
  double r2 = radius * radius;
  for (int by = lo.y; by <= hi.y; ++by) {
    for (int bx = lo.x; bx <= hi.x; ++bx) {
      for (uint32_t i : Bucket(bx, by)) {
        if (geom::DistanceSquared(q, points_[i]) <= r2) out.push_back(i);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace geoalign::spatial
