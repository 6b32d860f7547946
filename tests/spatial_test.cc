// Unit tests for the spatial index substrate: STR R-tree and point
// grid index, checked against brute force on random data.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "common/random.h"
#include "spatial/grid_index.h"
#include "spatial/rtree.h"

namespace geoalign::spatial {
namespace {

using geom::BBox;
using geom::Point;

TEST(RTree, EmptyTree) {
  RTree tree({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Query(BBox(0, 0, 1, 1)).empty());
}

TEST(RTree, SingleItem) {
  RTree tree({BBox(0, 0, 1, 1)});
  EXPECT_EQ(tree.Query(BBox(0.5, 0.5, 2, 2)), std::vector<uint32_t>{0});
  EXPECT_TRUE(tree.Query(BBox(2, 2, 3, 3)).empty());
}

TEST(RTree, QueryPointHitsContainingBoxes) {
  std::vector<BBox> boxes = {BBox(0, 0, 2, 2), BBox(1, 1, 3, 3),
                             BBox(5, 5, 6, 6)};
  RTree tree(boxes);
  auto hits = tree.QueryPoint({1.5, 1.5});
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint32_t>{0, 1}));
}

TEST(RTree, VisitEarlyStop) {
  std::vector<BBox> boxes(100, BBox(0, 0, 1, 1));
  RTree tree(boxes);
  int count = 0;
  tree.Visit(BBox(0, 0, 1, 1), [&count](uint32_t) {
    ++count;
    return count < 5;
  });
  EXPECT_EQ(count, 5);
}

class RTreeRandomTest : public ::testing::TestWithParam<int> {};

// Instances 0-14 use fanouts 4-16; 15 and 16 use the extremes 2 and
// 64, where a full leaf reaches bit 63 of the child mask. Every 17th
// box is inverted and every 23rd is the default empty box: neither
// may ever be returned.
TEST_P(RTreeRandomTest, MatchesBruteForce) {
  Rng rng(700 + GetParam());
  const size_t fanout = GetParam() == 15   ? 2
                        : GetParam() == 16 ? RTree::kMaxEntriesPerNode
                                           : 4 + GetParam() % 13;
  size_t n = 1 + rng.UniformInt(uint64_t{500});
  if (fanout == RTree::kMaxEntriesPerNode) n += 4 * fanout;
  std::vector<BBox> boxes;
  boxes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x = rng.Uniform(0.0, 100.0);
    double y = rng.Uniform(0.0, 100.0);
    boxes.emplace_back(x, y, x + rng.Uniform(0.0, 10.0),
                       y + rng.Uniform(0.0, 10.0));
    if (i % 17 == 5) std::swap(boxes.back().min_x, boxes.back().max_x);
    if (i % 23 == 7) boxes.back() = BBox();
  }
  RTree tree(boxes, fanout);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<BBox> queries = {BBox(-1e9, -1e9, 1e9, 1e9),
                               BBox(-inf, -inf, inf, inf)};
  for (int q = 0; q < 20; ++q) {
    double x = rng.Uniform(-5.0, 105.0);
    double y = rng.Uniform(-5.0, 105.0);
    queries.emplace_back(x, y, x + rng.Uniform(0.0, 20.0),
                         y + rng.Uniform(0.0, 20.0));
  }
  for (const BBox& query : queries) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < n; ++i) {
      if (boxes[i].Intersects(query)) expected.push_back(i);
    }
    std::vector<uint32_t> got = tree.Query(query);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, RTreeRandomTest,
                         ::testing::Range(0, 17));

TEST(RTree, HeightGrowsLogarithmically) {
  std::vector<BBox> boxes;
  for (int i = 0; i < 1000; ++i) {
    boxes.emplace_back(i, 0, i + 0.5, 0.5);
  }
  RTree tree(boxes, 16);
  EXPECT_GE(tree.Height(), 2u);
  EXPECT_LE(tree.Height(), 4u);
}

TEST(PointGridIndex, NearestSimple) {
  std::vector<Point> pts = {{0, 0}, {10, 10}, {5, 5}};
  PointGridIndex index(pts, BBox(0, 0, 10, 10));
  EXPECT_EQ(index.Nearest({1, 1}), 0u);
  EXPECT_EQ(index.Nearest({9, 9}), 1u);
  EXPECT_EQ(index.Nearest({5.2, 4.9}), 2u);
}

TEST(PointGridIndex, NearestTieBreaksByIndex) {
  std::vector<Point> pts = {{1, 1}, {3, 1}};
  PointGridIndex index(pts, BBox(0, 0, 4, 2));
  EXPECT_EQ(index.Nearest({2, 1}), 0u);  // equidistant -> lower index
}

class GridIndexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(GridIndexRandomTest, NearestMatchesBruteForce) {
  Rng rng(800 + GetParam());
  size_t n = 1 + rng.UniformInt(uint64_t{300});
  BBox box(0, 0, 50, 30);
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 30.0)});
  }
  PointGridIndex index(pts, box);
  for (int q = 0; q < 50; ++q) {
    Point query{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 30.0)};
    uint32_t got = index.Nearest(query);
    double best = 1e300;
    uint32_t expected = 0;
    for (uint32_t i = 0; i < n; ++i) {
      double d = geom::DistanceSquared(query, pts[i]);
      if (d < best) {
        best = d;
        expected = i;
      }
    }
    EXPECT_EQ(geom::DistanceSquared(query, pts[got]), best);
    (void)expected;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GridIndexRandomTest,
                         ::testing::Range(0, 15));

TEST(PointGridIndex, WithinRadiusMatchesBruteForce) {
  Rng rng(55);
  BBox box(0, 0, 20, 20);
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)});
  }
  PointGridIndex index(pts, box);
  for (int q = 0; q < 20; ++q) {
    Point center{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
    double radius = rng.Uniform(0.0, 6.0);
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < pts.size(); ++i) {
      if (geom::DistanceSquared(center, pts[i]) <= radius * radius) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(index.WithinRadius(center, radius), expected);
  }
}

TEST(PointGridIndex, WithinRadiusNegativeRadiusEmpty) {
  PointGridIndex index({{1, 1}}, BBox(0, 0, 2, 2));
  EXPECT_TRUE(index.WithinRadius({1, 1}, -1.0).empty());
}

}  // namespace
}  // namespace geoalign::spatial
