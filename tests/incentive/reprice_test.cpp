// The reprice() contract (mechanism.h): after reprice() the mechanism's
// rewards must be bit-identical to a full update_rewards() against the same
// world. On-demand reprices with the base class's full recompute; steered
// has an O(dirty) path. These unit tests drive both through measurement
// deltas, user moves, Nmax changes and cache rebuilds against a freshly
// built mechanism as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "geo/distance.h"
#include "incentive/adaptive_budget_mechanism.h"
#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/on_demand_mechanism.h"
#include "incentive/reward.h"
#include "incentive/steered_mechanism.h"
#include "model/world.h"

namespace mcs::incentive {
namespace {

// Three tasks 600 m apart with radius 500: each user is a neighbor of at
// most one task, so counts (and Nmax) are easy to steer by hand.
model::World make_world() {
  model::World w(geo::BoundingBox::square(3000.0), geo::TravelModel{}, 500.0);
  w.add_task({300.0, 300.0}, /*deadline=*/8, /*required=*/4);
  w.add_task({900.0, 300.0}, 8, 4);
  w.add_task({1500.0, 300.0}, 8, 4);
  w.add_user({300.0, 320.0}, 600.0);   // neighbor of task 0
  w.add_user({300.0, 280.0}, 600.0);   // neighbor of task 0
  w.add_user({900.0, 320.0}, 600.0);   // neighbor of task 1
  return w;
}

OnDemandMechanism make_on_demand() {
  const RewardRule rule = RewardRule::from_budget(1000.0, 12, 0.5, 5);
  return OnDemandMechanism(DemandIndicator::with_paper_defaults(),
                           DemandLevelScale(5), rule);
}

void expect_matches_full(const OnDemandMechanism& m, const model::World& w,
                         Round k) {
  OnDemandMechanism oracle = make_on_demand();
  oracle.update_rewards(w, k);
  EXPECT_EQ(m.rewards(), oracle.rewards());
  EXPECT_EQ(m.last_normalized_demands(), oracle.last_normalized_demands());
  EXPECT_EQ(m.last_levels(), oracle.last_levels());
}

TEST(OnDemandReprice, DirtyMeasurementDeltaMatchesFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // Task 1 gains a measurement (X2 drops): reprice with just that position.
  w.tasks()[1].add_measurement(UserId{2}, 1, 1.0);
  m.reprice(w, 1, {1});
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, CompletionZeroesRewardThroughDirtyPath) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  for (int i = 0; i < 4; ++i) {
    w.tasks()[0].add_measurement(static_cast<UserId>(10 + i), 1, 1.0);
  }
  ASSERT_TRUE(w.tasks()[0].completed());
  m.reprice(w, 1, {0});
  EXPECT_EQ(m.rewards()[0], 0.0);
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, UserMovePickedUpViaNeighborCountDiff) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // User 2 walks from task 1's disc to task 2's: counts go {2,1,0} ->
  // {2,0,1} while Nmax stays 2. No dirty tasks at all — the synced
  // neighbor counts alone must reprice tasks 1 and 2.
  w.users()[2].set_location({1500.0, 320.0});
  m.reprice(w, 1, {});
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, NmaxChangeFallsBackToFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // User 2 joins task 0's disc: counts {2,1,0} -> {3,0,0}, Nmax 2 -> 3.
  // Every task's X3 denominator changes; reprice must recompute all of
  // them, dirty set or not.
  w.users()[2].set_location({300.0, 300.0});
  m.reprice(w, 1, {});
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, RoundChangeFallsBackToFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);
  // A new round moves X1 for every task; reprice(k=2) may not reuse the
  // round-1 pricing.
  m.reprice(w, 2, {});
  expect_matches_full(m, w, 2);
}

TEST(OnDemandReprice, RepriceBeforeAnyPublishIsAFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.reprice(w, 1, {});
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, CacheRebuildFallsBackToFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // Growing the population rebuilds the neighbor cache; the new user lands
  // in task 2's empty disc, so Nmax alone would not reveal the change.
  w.add_user({1500.0, 320.0}, 600.0);
  m.reprice(w, 1, {});
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, ShardedUpdateMatchesSerialBitForBit) {
  // The fused demand/level/reward sweep fans over the reprice pool in
  // disjoint row ranges; every published double must match the serial
  // sweep exactly, at any worker count (including workers > tasks).
  model::World w = make_world();
  OnDemandMechanism serial = make_on_demand();
  serial.update_rewards(w, 1);
  for (const int workers : {2, 8}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    OnDemandMechanism m = make_on_demand();
    m.set_reprice_workers(&pool, workers);
    m.update_rewards(w, 1);
    EXPECT_EQ(m.rewards(), serial.rewards());
    EXPECT_EQ(m.last_normalized_demands(), serial.last_normalized_demands());
    EXPECT_EQ(m.last_levels(), serial.last_levels());
  }
}

TEST(OnDemandReprice, SparseTaskIdsPriceByPosition) {
  // Worlds assembled through the mutable tasks() accessor may carry
  // arbitrary (non-dense) ids. The mechanism's whole pipeline — publish and
  // reprice — is position-indexed, so sparse ids must
  // price exactly like the dense world with the same geometry.
  model::World w(geo::BoundingBox::square(3000.0), geo::TravelModel{}, 500.0);
  w.tasks().emplace_back(TaskId{40}, geo::Point{300.0, 300.0}, Round{8}, 4);
  w.tasks().emplace_back(TaskId{17}, geo::Point{900.0, 300.0}, Round{8}, 4);
  w.tasks().emplace_back(TaskId{93}, geo::Point{1500.0, 300.0}, Round{8}, 4);
  w.add_user({300.0, 320.0}, 600.0);
  w.add_user({300.0, 280.0}, 600.0);
  w.add_user({900.0, 320.0}, 600.0);

  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);
  expect_matches_full(m, w, 1);

  model::World dense = make_world();  // same geometry, ids 0..2
  OnDemandMechanism dense_m = make_on_demand();
  dense_m.update_rewards(dense, 1);
  EXPECT_EQ(m.rewards(), dense_m.rewards());

  // The row table is the published price contract: one entry per task
  // row, whatever the ids (40, 17, 93 would be out of range as indices).
  ASSERT_EQ(m.rewards().size(), w.num_tasks());

  // Reprice stays position-indexed too.
  w.tasks()[1].add_measurement(UserId{5}, 1, 1.0);
  m.reprice(w, 1, {1});
  expect_matches_full(m, w, 1);
}

TEST(SteeredReprice, DirtyMeasurementDeltaMatchesFullRecompute) {
  model::World w = make_world();
  SteeredMechanism m(0.5, 10.0, 0.2);
  m.update_rewards(w, 1);

  w.tasks()[2].add_measurement(UserId{5}, 1, 1.0);
  w.tasks()[2].add_measurement(UserId{6}, 1, 1.0);
  m.reprice(w, 1, {2});

  SteeredMechanism oracle(0.5, 10.0, 0.2);
  oracle.update_rewards(w, 1);
  EXPECT_EQ(m.rewards(), oracle.rewards());
}

TEST(SteeredReprice, EmptyDirtySetIsANoOp) {
  model::World w = make_world();
  SteeredMechanism m(0.5, 10.0, 0.2);
  m.update_rewards(w, 1);
  const std::vector<Money> before = m.rewards();
  m.reprice(w, 1, {});
  EXPECT_EQ(m.rewards(), before);
}

// The per-task oracle for the fused demand -> level -> reward sweep:
// brute-force neighbor counts, Nmax = their max_element, then Eq. 2 on the
// Task view, normalize, level and the rule, one task at a time. `rule`
// nullptr means nothing may be published (adaptive with its budget spent).
void expect_matches_per_task_oracle(const DemandPricedMechanism& m,
                                    const model::World& w, Round k,
                                    const RewardRule* rule) {
  std::vector<int> counts(w.num_tasks(), 0);
  const double r2 = w.neighbor_radius() * w.neighbor_radius();
  for (std::size_t i = 0; i < w.num_tasks(); ++i) {
    for (const model::User& u : w.users()) {
      if (geo::squared_euclidean(w.tasks()[i].location(), u.location()) <=
          r2) {
        ++counts[i];
      }
    }
  }
  const int nmax = *std::max_element(counts.begin(), counts.end());
  ASSERT_EQ(m.rewards().size(), w.num_tasks());
  ASSERT_EQ(m.last_normalized_demands().size(), w.num_tasks());
  ASSERT_EQ(m.last_levels().size(), w.num_tasks());
  for (std::size_t i = 0; i < w.num_tasks(); ++i) {
    const model::Task& t = w.tasks()[i];
    const double d =
        m.indicator().normalize(m.indicator().demand(t, k, counts[i], nmax));
    const int level = m.scale().level(d);
    const bool withdrawn = t.completed() || t.expired_at(k);
    const Money reward =
        (rule == nullptr || withdrawn) ? 0.0 : rule->reward(level);
    EXPECT_EQ(m.last_normalized_demands()[i], d) << "row " << i;
    EXPECT_EQ(m.last_levels()[i], level) << "row " << i;
    EXPECT_EQ(m.rewards()[i], reward) << "row " << i;
  }
}

TEST(DemandPricing, FusedSweepMatchesPerTaskOracleBitExact) {
  // On-demand and adaptive publish through one fused sweep with Nmax read
  // from the neighbor counts. Over seeded random user moves, deliveries
  // and rounds, every published demand, level and reward must equal the
  // per-task computation exactly.
  const double side = 2000.0;
  model::World w(geo::BoundingBox::square(side), geo::TravelModel{}, 300.0);
  Rng rng(2024);
  const auto random_point = [&rng, side] {
    return geo::Point{rng.uniform(0.0, side), rng.uniform(0.0, side)};
  };
  for (int i = 0; i < 25; ++i) {
    w.add_task(random_point(), static_cast<Round>(rng.uniform_int(2, 8)),
               static_cast<int>(rng.uniform_int(1, 5)));
  }
  for (int i = 0; i < 60; ++i) w.add_user(random_point(), 600.0);

  const Money budget = 2.5 * static_cast<Money>(w.total_required());
  OnDemandMechanism on_demand(
      DemandIndicator::with_paper_defaults(), DemandLevelScale(5),
      RewardRule::from_budget(budget, w.total_required(), 0.5, 5));
  AdaptiveBudgetMechanism adaptive(DemandIndicator::with_paper_defaults(),
                                   DemandLevelScale(5), budget, 0.5);
  UserId next_contributor = 1000;
  for (Round k = 1; k <= 6; ++k) {
    SCOPED_TRACE(k);
    const int moves = static_cast<int>(rng.uniform_int(0, 15));
    for (int m = 0; m < moves; ++m) {
      const auto who = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(w.num_users()) - 1));
      w.users()[who].set_location(random_point());
    }
    const int deliveries = static_cast<int>(rng.uniform_int(0, 6));
    for (int d = 0; d < deliveries; ++d) {
      model::Task& t = w.tasks()[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(w.num_tasks()) - 1))];
      if (!t.expired_at(k)) t.add_measurement(next_contributor++, k, 0.1);
    }
    on_demand.update_rewards(w, k);
    expect_matches_per_task_oracle(on_demand, w, k, &on_demand.rule());
    adaptive.update_rewards(w, k);
    expect_matches_per_task_oracle(adaptive, w, k, &adaptive.current_rule());
  }

  // Adaptive with the budget spent: demands and levels still follow the
  // oracle, but every reward is 0, open tasks included.
  const Round k = 7;
  const auto open = [&w, k](const model::Task& t) {
    return !t.completed() && !t.expired_at(k);
  };
  const auto first_open =
      std::find_if(w.tasks().begin(), w.tasks().end(), open);
  ASSERT_NE(first_open, w.tasks().end());
  first_open->add_measurement(next_contributor++, k, budget);
  ASSERT_TRUE(std::any_of(w.tasks().begin(), w.tasks().end(), open));
  ASSERT_GE(w.total_paid(), budget);
  adaptive.update_rewards(w, k);
  expect_matches_per_task_oracle(adaptive, w, k, nullptr);
}

}  // namespace
}  // namespace mcs::incentive
