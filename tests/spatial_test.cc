// Unit tests for the spatial index substrate: the box grid and the
// point grid index, checked against brute force on random data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/random.h"
#include "spatial/grid_index.h"

namespace geoalign::spatial {
namespace {

using geom::BBox;
using geom::Point;

// The suites RTree and RTreeRandomTest check BoxGridIndex. They keep
// the names they had while an R-tree served these queries, so each
// check's record reads as one series.

std::vector<uint32_t> Query(const BoxGridIndex& index, const BBox& query) {
  std::vector<uint32_t> out = {7u};  // a stale entry Query must clear
  index.Query(query, &out);
  return out;
}

TEST(RTree, EmptyTree) {
  BoxGridIndex index({});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.num_entries(), 0u);
  EXPECT_TRUE(Query(index, BBox(0, 0, 1, 1)).empty());
  EXPECT_EQ(index.FirstContaining({0.5, 0.5}, [](uint32_t) { return true; }),
            index.size());
}

TEST(RTree, SingleItem) {
  BoxGridIndex index({BBox(0, 0, 1, 1)});
  EXPECT_EQ(Query(index, BBox(0.5, 0.5, 2, 2)), std::vector<uint32_t>{0});
  EXPECT_TRUE(Query(index, BBox(2, 2, 3, 3)).empty());
}

TEST(RTree, QueryPointHitsContainingBoxes) {
  std::vector<BBox> boxes = {BBox(0, 0, 2, 2), BBox(1, 1, 3, 3),
                             BBox(5, 5, 6, 6)};
  BoxGridIndex index(boxes);
  EXPECT_EQ(Query(index, BBox(1.5, 1.5, 1.5, 1.5)),
            (std::vector<uint32_t>{0, 1}));
  // FirstContaining returns the lowest id whose box contains the point
  // and whose predicate holds.
  auto any = [](uint32_t) { return true; };
  EXPECT_EQ(index.FirstContaining({1.5, 1.5}, any), 0u);
  EXPECT_EQ(index.FirstContaining({1.5, 1.5}, [](uint32_t id) {
    return id != 0;
  }), 1u);
  EXPECT_EQ(index.FirstContaining({3.0, 3.0}, any), 1u);  // closed box
  EXPECT_EQ(index.FirstContaining({4.0, 4.0}, any), boxes.size());
}

class RTreeRandomTest : public ::testing::TestWithParam<int> {};

// Every 17th box is inverted, every 23rd is the default empty box and
// every 29th has a NaN coordinate: none may ever be returned. The
// queries cover both whole-world boxes, inverted and NaN boxes, and
// every item box's corners as points (the extremes a box's corner
// cells must bracket); all must return the brute-force ids, ascending
// and unique.
TEST_P(RTreeRandomTest, MatchesBruteForce) {
  Rng rng(700 + GetParam());
  const size_t n = 1 + rng.UniformInt(uint64_t{500});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<BBox> boxes;
  boxes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x = rng.Uniform(0.0, 100.0);
    double y = rng.Uniform(0.0, 100.0);
    boxes.emplace_back(x, y, x + rng.Uniform(0.0, 10.0),
                       y + rng.Uniform(0.0, 10.0));
    if (i % 17 == 5) std::swap(boxes.back().min_x, boxes.back().max_x);
    if (i % 23 == 7) boxes.back() = BBox();
    if (i % 29 == 11) boxes.back().max_y = nan;
  }
  BoxGridIndex index(boxes);
  EXPECT_LE(index.num_entries(), BoxGridIndex::kMaxEntriesPerItem * n);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<BBox> queries = {BBox(-1e9, -1e9, 1e9, 1e9),
                               BBox(-inf, -inf, inf, inf),
                               BBox(60, 10, 40, 90),
                               BBox(10, 60, 90, 40),
                               BBox(nan, 0, 100, 100),
                               BBox(0, 0, 100, nan),
                               BBox()};
  for (int q = 0; q < 20; ++q) {
    double x = rng.Uniform(-5.0, 105.0);
    double y = rng.Uniform(-5.0, 105.0);
    queries.emplace_back(x, y, x + rng.Uniform(0.0, 20.0),
                         y + rng.Uniform(0.0, 20.0));
  }
  for (const BBox& b : boxes) {
    queries.emplace_back(b.min_x, b.min_y, b.min_x, b.min_y);
    queries.emplace_back(b.max_x, b.max_y, b.max_x, b.max_y);
  }
  size_t whole_world = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (!boxes[i].Empty() && !std::isnan(boxes[i].max_y)) ++whole_world;
  }
  for (const BBox& query : queries) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < n; ++i) {
      if (boxes[i].Intersects(query)) expected.push_back(i);
    }
    EXPECT_EQ(Query(index, query), expected);
  }
  EXPECT_EQ(Query(index, queries[0]).size(), whole_world);
  EXPECT_EQ(Query(index, queries[1]).size(), whole_world);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, RTreeRandomTest,
                         ::testing::Range(0, 17));

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
