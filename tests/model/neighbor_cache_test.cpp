// World::neighbor_counts() is backed by a persistent spatial grid with
// lazy delta sync; counts must stay *exactly* equal to the brute-force
// O(U*T) scan through any sequence of user moves, population growth and
// task additions (integer counts, shared distance predicate — no epsilon).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "geo/distance.h"
#include "model/world.h"

namespace mcs::model {
namespace {

std::vector<int> brute_force_counts(const World& w) {
  std::vector<int> counts(w.num_tasks(), 0);
  const double r2 = w.neighbor_radius() * w.neighbor_radius();
  for (std::size_t i = 0; i < w.num_tasks(); ++i) {
    for (const User& u : w.users()) {
      if (geo::squared_euclidean(w.tasks()[i].location(), u.location()) <=
          r2) {
        ++counts[i];
      }
    }
  }
  return counts;
}

geo::Point random_point(Rng& rng, double side) {
  return {rng.uniform(0.0, side), rng.uniform(0.0, side)};
}

TEST(NeighborCache, DeltaSyncMatchesBruteForceAcrossRandomMoves) {
  const double side = 2000.0;
  World w(geo::BoundingBox::square(side), geo::TravelModel{}, 300.0);
  Rng rng(2024);
  for (int i = 0; i < 25; ++i) w.add_task(random_point(rng, side), 10, 5);
  for (int i = 0; i < 60; ++i) w.add_user(random_point(rng, side), 600.0);

  ASSERT_EQ(w.neighbor_counts(), brute_force_counts(w));

  for (int iter = 0; iter < 30; ++iter) {
    // Move a random subset (sometimes nobody, exercising the no-op sync).
    const int moves = static_cast<int>(rng.uniform_int(0, 10));
    for (int m = 0; m < moves; ++m) {
      const auto who = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(w.num_users()) - 1));
      w.users()[who].set_location(random_point(rng, side));
    }
    EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w)) << "iter " << iter;
  }
}

TEST(NeighborCache, MovesOntoExactRadiusBoundary) {
  // The predicate is <= r: a user sitting exactly on the circle counts.
  // The delta path must agree with the rebuild on that boundary.
  World w(geo::BoundingBox::square(1000.0), geo::TravelModel{}, 100.0);
  w.add_task({500.0, 500.0}, 10, 5);
  w.add_user({0.0, 0.0}, 600.0);
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{0});
  w.users()[0].set_location({600.0, 500.0});  // exactly 100 m away
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{1});
  w.users()[0].set_location({600.001, 500.0});
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{0});
}

TEST(NeighborCache, PopulationAndTaskGrowthForceRebuild) {
  const double side = 1500.0;
  World w(geo::BoundingBox::square(side), geo::TravelModel{}, 250.0);
  Rng rng(7);
  for (int i = 0; i < 8; ++i) w.add_task(random_point(rng, side), 10, 5);
  for (int i = 0; i < 20; ++i) w.add_user(random_point(rng, side), 600.0);
  EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));

  // New user after the cache is warm: sizes diverge, cache must rebuild.
  w.add_user({10.0, 10.0}, 600.0);
  EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));

  // New task after the cache is warm: likewise.
  w.add_task({700.0, 700.0}, 10, 5);
  EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));

  // And moves keep delta-syncing correctly after the rebuilds.
  w.users()[3].set_location({705.0, 705.0});
  EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));
}

TEST(NeighborCache, ZeroRadiusAndCoincidentPoints) {
  World w(geo::BoundingBox::square(100.0), geo::TravelModel{}, 0.0);
  w.add_task({50.0, 50.0}, 10, 5);
  w.add_user({50.0, 50.0}, 600.0);  // distance 0 <= 0: counts
  w.add_user({50.0, 51.0}, 600.0);
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{1});
  w.users()[1].set_location({50.0, 50.0});
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{2});
}

}  // namespace
}  // namespace mcs::model
