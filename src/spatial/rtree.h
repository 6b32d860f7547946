#ifndef GEOALIGN_SPATIAL_RTREE_H_
#define GEOALIGN_SPATIAL_RTREE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "geom/bbox.h"

namespace geoalign::spatial {

/// Static R-tree over rectangles, bulk-loaded with Sort-Tile-Recursive
/// (STR) packing at every level: the items are tiled into leaves, and
/// each level of nodes is tiled into its parents, by sorting on center
/// x, cutting vertical strips and sorting each strip on center y. Item
/// boxes are stored in leaf order, so a leaf's boxes are contiguous. A
/// node holds at most kMaxEntriesPerNode (64) entries: each node tests
/// all its children against a query in one branch-free pass that sets
/// one bit of a 64-bit mask per child. Visits run in pre-order, each
/// node's children in their stored order. Built once over a unit
/// system's bounding boxes; serves point location and overlay
/// candidate search (one Query per source unit against the target
/// layer's tree).
class RTree {
 public:
  /// Upper bound on `max_entries_per_node`; larger values are clamped.
  static constexpr size_t kMaxEntriesPerNode = 64;

  /// Bulk-loads the boxes; item i keeps identifier i. Empty input
  /// builds an empty (always-miss) tree, and an empty box is never
  /// returned by any query. `max_entries_per_node` is clamped to
  /// [2, kMaxEntriesPerNode].
  explicit RTree(const std::vector<geom::BBox>& boxes,
                 size_t max_entries_per_node = 16);

  /// Identifiers of items whose box intersects `query`.
  std::vector<uint32_t> Query(const geom::BBox& query) const;

  /// Buffer-reuse overload: clears `*out` and appends the hits,
  /// reusing its capacity — repeated queries through one buffer stop
  /// paying one vector allocation per call. Same hits in the same
  /// (deterministic, tree-order) sequence as the returning overload.
  void Query(const geom::BBox& query, std::vector<uint32_t>* out) const;

  /// Identifiers of items whose box contains `p`.
  std::vector<uint32_t> QueryPoint(const geom::Point& p) const;

  /// Buffer-reuse overload of QueryPoint (see Query above).
  void QueryPoint(const geom::Point& p, std::vector<uint32_t>* out) const;

  /// Calls `fn(id)` for each item whose box intersects `query`, in
  /// tree pre-order, without materializing a vector; `fn` returns
  /// false to stop early.
  template <typename Fn>
  void Visit(const geom::BBox& query, Fn&& fn) const {
    if (nodes_.empty() || !nodes_[0].box.Intersects(query)) return;
    VisitNode(0, query, fn);
  }

  size_t size() const { return item_count_; }

  /// Height of the tree (0 for empty).
  size_t Height() const { return height_; }

 private:
  struct Node {
    geom::BBox box;
    // Children are a contiguous range in nodes_ (internal) or in
    // items_ / leaf_boxes_ (leaf).
    uint32_t first = 0;
    uint32_t count = 0;
    bool leaf = true;
  };

  static const geom::BBox& BoxOf(const geom::BBox& box) { return box; }
  static const geom::BBox& BoxOf(const Node& node) { return node.box; }

  // Bit k is set when entries[k]'s box meets the closed box `q`. The
  // four comparisons combine with `&`, so the pass has no branch per
  // entry; a NaN coordinate fails every comparison. `q` must not be
  // empty, and count <= kMaxEntriesPerNode.
  template <typename Entry>
  static uint64_t HitMask(const Entry* entries, uint32_t count,
                          const geom::BBox& q) {
    uint64_t mask = 0;
    for (uint32_t k = count; k-- > 0;) {
      const geom::BBox& b = BoxOf(entries[k]);
      const bool hit = (b.min_x <= q.max_x) & (q.min_x <= b.max_x) &
                       (b.min_y <= q.max_y) & (q.min_y <= b.max_y);
      mask = (mask << 1) | static_cast<uint64_t>(hit);
    }
    return mask;
  }

  // Visits the subtree under a node whose own box meets `query`;
  // returns false once `fn` asks to stop.
  template <typename Fn>
  bool VisitNode(uint32_t node_idx, const geom::BBox& query, Fn& fn) const {
    const Node& node = nodes_[node_idx];
    if (node.leaf) {
      for (uint64_t mask = HitMask(&leaf_boxes_[node.first], node.count,
                                   query);
           mask != 0; mask &= mask - 1) {
        if (!fn(items_[node.first + std::countr_zero(mask)])) return false;
      }
      return true;
    }
    for (uint64_t mask = HitMask(&nodes_[node.first], node.count, query);
         mask != 0; mask &= mask - 1) {
      if (!VisitNode(node.first + std::countr_zero(mask), query, fn)) {
        return false;
      }
    }
    return true;
  }

  std::vector<Node> nodes_;      // root is nodes_[0] when non-empty
  std::vector<uint32_t> items_;  // leaf item ids
  // Item boxes in the order of items_; an empty input box is stored
  // as NaN so that HitMask never matches it.
  std::vector<geom::BBox> leaf_boxes_;
  size_t item_count_ = 0;
  size_t height_ = 0;
};

}  // namespace geoalign::spatial

#endif  // GEOALIGN_SPATIAL_RTREE_H_
