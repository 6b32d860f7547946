#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace geoalign::spatial {

namespace {

// Sort-Tile-Recursive tiling of one level: reorders `order` (indices
// into `boxes`) by center x, cuts it into ceil(sqrt(tiles)) vertical
// strips, sorts each strip by center y, and returns the end offset of
// every tile: at most `cap` consecutive entries, never spanning two
// strips. An empty box has a NaN center; it sorts last, which keeps
// the comparison a strict weak order.
std::vector<size_t> StrTile(const std::vector<geom::BBox>& boxes, size_t cap,
                            std::vector<uint32_t>* order) {
  std::vector<double> key(boxes.size());
  auto set_keys = [&](double geom::Point::*axis) {
    for (uint32_t i : *order) {
      double v = boxes[i].Center().*axis;
      key[i] = std::isnan(v) ? std::numeric_limits<double>::infinity() : v;
    }
  };
  auto by_key = [&key](uint32_t a, uint32_t b) { return key[a] < key[b]; };
  set_keys(&geom::Point::x);
  std::sort(order->begin(), order->end(), by_key);
  set_keys(&geom::Point::y);

  const size_t n = order->size();
  const size_t tiles = (n + cap - 1) / cap;
  const size_t strips = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(tiles))));
  const size_t per_strip = (n + strips - 1) / strips;
  std::vector<size_t> ends;
  for (size_t begin = 0; begin < n; begin += per_strip) {
    const size_t end = std::min(begin + per_strip, n);
    std::sort(order->begin() + begin, order->begin() + end, by_key);
    for (size_t i = begin; i < end; i += cap) {
      ends.push_back(std::min(i + cap, end));
    }
  }
  return ends;
}

}  // namespace

RTree::RTree(const std::vector<geom::BBox>& boxes,
             size_t max_entries_per_node) {
  item_count_ = boxes.size();
  if (boxes.empty()) return;
  const size_t cap =
      std::clamp<size_t>(max_entries_per_node, 2, kMaxEntriesPerNode);

  // Leaves: the items in STR order, one leaf per tile.
  items_.resize(boxes.size());
  std::iota(items_.begin(), items_.end(), 0u);
  std::vector<size_t> ends = StrTile(boxes, cap, &items_);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  leaf_boxes_.reserve(items_.size());
  for (uint32_t id : items_) {
    leaf_boxes_.push_back(boxes[id].Empty() ? geom::BBox(kNaN, kNaN, kNaN, kNaN)
                                            : boxes[id]);
  }
  std::vector<std::vector<Node>> levels(1);
  for (size_t t = 0, begin = 0; t < ends.size(); begin = ends[t++]) {
    Node leaf;
    leaf.first = static_cast<uint32_t>(begin);
    leaf.count = static_cast<uint32_t>(ends[t] - begin);
    for (size_t i = begin; i < ends[t]; ++i) leaf.box.Expand(boxes[items_[i]]);
    levels[0].push_back(leaf);
  }

  // Upper levels, bottom-up until one root remains: tile the level
  // below, store it in tile order, and give each tile one parent whose
  // children are that contiguous run.
  while (levels.back().size() > 1) {
    std::vector<Node>& below = levels.back();
    std::vector<geom::BBox> below_boxes;
    below_boxes.reserve(below.size());
    for (const Node& node : below) below_boxes.push_back(node.box);
    std::vector<uint32_t> order(below.size());
    std::iota(order.begin(), order.end(), 0u);
    ends = StrTile(below_boxes, cap, &order);
    std::vector<Node> tiled;
    tiled.reserve(below.size());
    for (uint32_t i : order) tiled.push_back(below[i]);
    below = std::move(tiled);

    std::vector<Node> above;
    for (size_t t = 0, begin = 0; t < ends.size(); begin = ends[t++]) {
      Node internal;
      internal.leaf = false;
      internal.first = static_cast<uint32_t>(begin);
      internal.count = static_cast<uint32_t>(ends[t] - begin);
      for (size_t i = begin; i < ends[t]; ++i) internal.box.Expand(below[i].box);
      above.push_back(internal);
    }
    levels.push_back(std::move(above));
  }
  height_ = levels.size();

  // Flatten, root level first; child indices of internal nodes are
  // offset by the start of the level below.
  std::vector<size_t> level_start(levels.size());
  size_t pos = 0;
  for (size_t li = levels.size(); li-- > 0;) {
    level_start[li] = pos;
    pos += levels[li].size();
  }
  nodes_.reserve(pos);
  for (size_t li = levels.size(); li-- > 0;) {
    for (Node node : levels[li]) {
      if (!node.leaf) {
        node.first += static_cast<uint32_t>(level_start[li - 1]);
      }
      nodes_.push_back(node);
    }
  }
}

std::vector<uint32_t> RTree::Query(const geom::BBox& query) const {
  std::vector<uint32_t> out;
  Query(query, &out);
  return out;
}

void RTree::Query(const geom::BBox& query, std::vector<uint32_t>* out) const {
  out->clear();
  Visit(query, [out](uint32_t id) {
    out->push_back(id);
    return true;
  });
}

std::vector<uint32_t> RTree::QueryPoint(const geom::Point& p) const {
  return Query(geom::BBox(p.x, p.y, p.x, p.y));
}

void RTree::QueryPoint(const geom::Point& p,
                       std::vector<uint32_t>* out) const {
  Query(geom::BBox(p.x, p.y, p.x, p.y), out);
}

}  // namespace geoalign::spatial
