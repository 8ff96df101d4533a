// The spatial grid index (geo::FrozenGrid): exact radius queries against a
// brute-force scan, the inclusive boundary, clamping of out-of-bounds
// points, argument checks, and the documented visit order the round loop's
// candidate gather and the neighbor cache rely on.
#include "geo/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "geo/distance.h"

namespace mcs::geo {
namespace {

std::vector<std::int32_t> visit(const FrozenGrid& g, Point center,
                                double radius) {
  std::vector<std::int32_t> ids;
  g.for_each_in_radius(center, radius,
                       [&ids](std::int32_t id) { ids.push_back(id); });
  return ids;
}

TEST(SpatialGrid, BuildAndCount) {
  const FrozenGrid g(BoundingBox::square(100.0), 10.0,
                     {{10, 10}, {12, 10}, {90, 90}});
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.count_radius({10, 10}, 5.0), 2u);
  EXPECT_EQ(g.count_radius({10, 10}, 0.5), 1u);
  EXPECT_EQ(g.count_radius({50, 50}, 1.0), 0u);
  EXPECT_EQ(g.count_radius({0, 0}, 1000.0), 3u);
}

TEST(SpatialGrid, EmptyGridHitsNothing) {
  const FrozenGrid empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.count_radius({0, 0}, 1e6), 0u);
  const FrozenGrid no_points(BoundingBox::square(100.0), 10.0, {});
  EXPECT_EQ(no_points.count_radius({50, 50}, 1e6), 0u);
}

TEST(SpatialGrid, QueryRadiusReturnsIds) {
  const FrozenGrid g(BoundingBox::square(100.0), 10.0,
                     {{50, 50}, {52, 50}, {70, 70}});
  auto ids = visit(g, {51, 50}, 2.0);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::int32_t>{0, 1}));
}

TEST(SpatialGrid, RadiusBoundaryIsInclusive) {
  const FrozenGrid g(BoundingBox::square(100.0), 10.0, {{0, 0}});
  EXPECT_EQ(g.count_radius({3, 4}, 5.0), 1u);  // exactly on the circle
  EXPECT_EQ(g.count_radius({3, 4}, 4.9999), 0u);
  EXPECT_EQ(visit(g, {3, 4}, 5.0), (std::vector<std::int32_t>{0}));
}

TEST(SpatialGrid, PointsOutsideBoundsStillQueryable) {
  // Far outside on both sides; clamped into border cells, but hits are
  // decided on the original coordinates.
  const FrozenGrid g(BoundingBox::square(10.0), 2.0,
                     {{100, 100}, {-50, 5}});
  EXPECT_EQ(g.count_radius({100, 100}, 1.0), 1u);
  EXPECT_EQ(g.count_radius({-50, 5}, 0.0), 1u);
  EXPECT_EQ(g.count_radius({5, 5}, 1.0), 0u);
  EXPECT_EQ(g.count_radius({9, 9}, 2.0), 0u);  // the border cell holds them
}

TEST(SpatialGrid, NegativeRadiusThrows) {
  const FrozenGrid g(BoundingBox::square(10.0), 1.0, {{1, 1}});
  EXPECT_THROW(g.count_radius({0, 0}, -1.0), Error);
}

TEST(SpatialGrid, BadCellSizeThrows) {
  const std::vector<Point> pts{{1, 1}};
  EXPECT_THROW(FrozenGrid(BoundingBox::square(10.0), 0.0, pts), Error);
  EXPECT_THROW(FrozenGrid(BoundingBox::square(10.0), -1.0, pts), Error);
}

// Hits arrive cell by cell in row-major order (rows of y, then x), and in
// ascending point index within a cell — whatever order the points were
// given in.
TEST(SpatialGrid, VisitOrderIsRowMajorThenAscendingIndex) {
  // 10 m cells on a 30 m square: cell (cx, cy) = (x / 10, y / 10).
  const std::vector<Point> pts{
      {25, 25},  // 0: cell (2, 2)
      {5, 15},   // 1: cell (0, 1)
      {25, 5},   // 2: cell (2, 0)
      {5, 5},    // 3: cell (0, 0)
      {6, 6},    // 4: cell (0, 0)
      {15, 15},  // 5: cell (1, 1)
      {4, 4},    // 6: cell (0, 0)
  };
  const FrozenGrid g(BoundingBox::square(30.0), 10.0, pts);
  EXPECT_EQ(visit(g, {15, 15}, 100.0),
            (std::vector<std::int32_t>{3, 4, 6, 2, 1, 5, 0}));
}

// Property sweep: grid results must equal brute force for random point sets
// and random queries, across several cell sizes.
class SpatialGridProperty : public ::testing::TestWithParam<double> {};

TEST_P(SpatialGridProperty, MatchesBruteForce) {
  const double cell = GetParam();
  Rng rng(static_cast<std::uint64_t>(cell * 1000) + 5);
  const BoundingBox area = BoundingBox::square(1000.0);
  std::vector<Point> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  const FrozenGrid grid(area, cell, pts);
  for (int q = 0; q < 50; ++q) {
    const Point center{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    const double radius = rng.uniform(0.0, 400.0);
    std::vector<std::int32_t> brute;
    for (int i = 0; i < 300; ++i) {
      if (euclidean(center, pts[static_cast<std::size_t>(i)]) <= radius) {
        brute.push_back(i);
      }
    }
    EXPECT_EQ(grid.count_radius(center, radius), brute.size());
    std::vector<std::int32_t> ids = visit(grid, center, radius);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, brute);
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, SpatialGridProperty,
                         ::testing::Values(25.0, 100.0, 500.0, 2000.0));

}  // namespace
}  // namespace mcs::geo
