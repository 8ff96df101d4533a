#include "incentive/mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/error.h"
#include "incentive/fixed_mechanism.h"
#include "incentive/on_demand_mechanism.h"
#include "incentive/steered_mechanism.h"

namespace mcs::incentive {
namespace {

model::World small_world() {
  model::World w(geo::BoundingBox::square(3000.0), geo::TravelModel{}, 500.0);
  w.add_task({100, 100}, 10, 4);     // popular corner
  w.add_task({2900, 2900}, 10, 4);   // remote corner
  w.add_task({1500, 1500}, 3, 4);    // tight deadline, center
  w.add_user({150, 100}, 600.0);
  w.add_user({120, 140}, 600.0);
  w.add_user({1400, 1500}, 600.0);
  return w;
}

RewardRule paper_rule() { return RewardRule(0.5, 0.5, 5); }

TEST(OnDemandMechanism, RewardsTrackDemandLevels) {
  model::World w = small_world();
  OnDemandMechanism m(DemandIndicator::with_paper_defaults(),
                      DemandLevelScale(5), paper_rule());
  m.update_rewards(w, 1);
  ASSERT_EQ(m.rewards().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const int lvl = m.last_levels()[i];
    EXPECT_DOUBLE_EQ(m.rewards()[i],
                     paper_rule().reward(lvl));
  }
  // The remote task (no neighbors) must out-earn the popular one.
  EXPECT_GE(m.rewards()[1], m.rewards()[0]);
  // Rewards stay inside the rule's range for open tasks.
  for (const Money r : m.rewards()) {
    EXPECT_GE(r, paper_rule().min_reward());
    EXPECT_LE(r, paper_rule().max_reward());
  }
}

TEST(OnDemandMechanism, RewardRisesAsDeadlineApproaches) {
  model::World w = small_world();
  OnDemandMechanism m(DemandIndicator::with_paper_defaults(),
                      DemandLevelScale(5), paper_rule());
  m.update_rewards(w, 1);
  const double demand_early = m.last_normalized_demands()[2];
  m.update_rewards(w, 3);  // task 2's final round
  const double demand_late = m.last_normalized_demands()[2];
  EXPECT_GT(demand_late, demand_early);
}

TEST(OnDemandMechanism, RewardDropsAsProgressArrives) {
  model::World w = small_world();
  OnDemandMechanism m(DemandIndicator::with_paper_defaults(),
                      DemandLevelScale(5), paper_rule());
  m.update_rewards(w, 2);
  const double before = m.last_normalized_demands()[0];
  w.task(0).add_measurement(0, 2, 1.0);
  w.task(0).add_measurement(1, 2, 1.0);
  w.task(0).add_measurement(2, 2, 1.0);
  m.update_rewards(w, 2);
  const double after = m.last_normalized_demands()[0];
  EXPECT_LT(after, before);
}

TEST(OnDemandMechanism, WithdrawsCompletedAndExpiredTasks) {
  model::World w = small_world();
  OnDemandMechanism m(DemandIndicator::with_paper_defaults(),
                      DemandLevelScale(5), paper_rule());
  for (int u = 0; u < 4; ++u) w.task(0).add_measurement(u, 1, 1.0);
  m.update_rewards(w, 4);  // task 2 (deadline 3) has expired by round 4
  EXPECT_DOUBLE_EQ(m.rewards()[0], 0.0);  // completed
  EXPECT_DOUBLE_EQ(m.rewards()[2], 0.0);  // expired
  EXPECT_GT(m.rewards()[1], 0.0);         // still open
}

TEST(OnDemandMechanism, NotIntraRound) {
  OnDemandMechanism m(DemandIndicator::with_paper_defaults(),
                      DemandLevelScale(5), paper_rule());
  EXPECT_FALSE(m.updates_within_round());
}

TEST(FixedMechanism, RewardsNeverChange) {
  model::World w = small_world();
  Rng rng(5);
  FixedMechanism m(paper_rule(), w.num_tasks(), rng);
  m.update_rewards(w, 1);
  const auto initial = m.rewards();
  w.task(0).add_measurement(0, 1, 1.0);  // progress changes...
  m.update_rewards(w, 2);
  EXPECT_EQ(m.rewards(), initial);  // ...rewards do not
}

TEST(FixedMechanism, LevelsInRangeAndVaried) {
  Rng rng(6);
  const RewardRule rule = paper_rule();
  FixedMechanism m(rule, 200, rng);
  bool seen_different = false;
  for (const int lvl : m.levels()) {
    EXPECT_GE(lvl, 1);
    EXPECT_LE(lvl, 5);
    if (lvl != m.levels()[0]) seen_different = true;
  }
  EXPECT_TRUE(seen_different);  // 200 draws: surely not all equal
}

TEST(FixedMechanism, ExplicitLevels) {
  model::World w = small_world();
  FixedMechanism m(paper_rule(), {1, 3, 5});
  m.update_rewards(w, 1);
  EXPECT_DOUBLE_EQ(m.rewards()[0], 0.5);
  EXPECT_DOUBLE_EQ(m.rewards()[1], 1.5);
  EXPECT_DOUBLE_EQ(m.rewards()[2], 2.5);
  EXPECT_THROW(FixedMechanism(paper_rule(), {0}), Error);
  EXPECT_THROW(FixedMechanism(paper_rule(), {6}), Error);
}

TEST(FixedMechanism, WithdrawsClosedTasksButKeepsLevel) {
  model::World w = small_world();
  FixedMechanism m(paper_rule(), {2, 2, 2});
  for (int u = 0; u < 4; ++u) w.task(0).add_measurement(u, 1, 1.0);
  m.update_rewards(w, 2);
  EXPECT_DOUBLE_EQ(m.rewards()[0], 0.0);
  EXPECT_DOUBLE_EQ(m.rewards()[1], 1.0);
}

TEST(FixedMechanism, TaskCountMismatchThrows) {
  model::World w = small_world();
  FixedMechanism m(paper_rule(), {1, 2});
  EXPECT_THROW(m.update_rewards(w, 1), Error);
}

TEST(SteeredMechanism, QualityModelBasics) {
  const SteeredMechanism m(0.5, 10.0, 0.2);
  EXPECT_DOUBLE_EQ(m.quality(0), 0.0);
  EXPECT_NEAR(m.quality(1), 0.2, 1e-12);
  EXPECT_NEAR(m.quality_gain(0), 0.2, 1e-12);
  EXPECT_NEAR(m.quality_gain(1), 0.16, 1e-12);
  // Quality saturates at 1.
  EXPECT_NEAR(m.quality(100), 1.0, 1e-9);
}

TEST(SteeredMechanism, RewardDecaysGeometrically) {
  const SteeredMechanism m(0.5, 10.0, 0.2);
  EXPECT_NEAR(m.reward_at(0), 2.5, 1e-12);  // Rc + mu*delta
  double prev = m.reward_at(0);
  for (int x = 1; x <= 30; ++x) {
    const double r = m.reward_at(x);
    EXPECT_LT(r, prev);      // monotone decreasing
    EXPECT_GT(r, 0.5 - 1e-12);  // bounded below by Rc
    prev = r;
  }
}

TEST(SteeredMechanism, PaperLiteralConstantsSpanFiveToTwentyFive) {
  const SteeredMechanism m(5.0, 100.0, 0.2);
  EXPECT_NEAR(m.reward_at(0), 25.0, 1e-12);
  EXPECT_NEAR(m.reward_at(1000), 5.0, 1e-9);
}

TEST(SteeredMechanism, UpdatesUseReceivedCounts) {
  model::World w = small_world();
  SteeredMechanism m(0.5, 10.0, 0.2);
  m.update_rewards(w, 1);
  EXPECT_NEAR(m.rewards()[0], 2.5, 1e-12);
  w.task(0).add_measurement(0, 1, 2.5);
  m.update_rewards(w, 1);
  EXPECT_NEAR(m.rewards()[0], 0.5 + 10.0 * 0.16, 1e-12);
  EXPECT_NEAR(m.rewards()[1], 2.5, 1e-12);  // untouched task unchanged
}

TEST(SteeredMechanism, IsIntraRound) {
  const SteeredMechanism m(0.5, 10.0, 0.2);
  EXPECT_TRUE(m.updates_within_round());
}

TEST(SteeredMechanism, ConstructionValidation) {
  EXPECT_THROW(SteeredMechanism(-1.0, 10.0, 0.2), Error);
  EXPECT_THROW(SteeredMechanism(0.5, -1.0, 0.2), Error);
  EXPECT_THROW(SteeredMechanism(0.5, 10.0, 0.0), Error);
  EXPECT_THROW(SteeredMechanism(0.5, 10.0, 1.0), Error);
}

TEST(MechanismFactory, BuildsAllKindsWithDerivedRewardRule) {
  model::World w = small_world();  // total required = 12
  MechanismParams params;
  params.platform_budget = 120.0;  // r0 = 120/12 - 0.5*4 = 8
  Rng rng(3);
  for (const auto kind :
       {MechanismKind::kOnDemand, MechanismKind::kFixed,
        MechanismKind::kSteered}) {
    const auto m = make_mechanism(kind, w, params, rng);
    ASSERT_NE(m, nullptr);
    m->update_rewards(w, 1);
    EXPECT_EQ(m->rewards().size(), w.num_tasks());
    EXPECT_STREQ(m->name(), mechanism_name(kind));
  }
}

TEST(MechanismFactory, ParseNames) {
  EXPECT_EQ(parse_mechanism("on-demand"), MechanismKind::kOnDemand);
  EXPECT_EQ(parse_mechanism("Demand"), MechanismKind::kOnDemand);
  EXPECT_EQ(parse_mechanism("fixed"), MechanismKind::kFixed);
  EXPECT_EQ(parse_mechanism("steered"), MechanismKind::kSteered);
  EXPECT_THROW(parse_mechanism("generous"), Error);
}

TEST(Mechanism, RewardQueryBeforeUpdateThrows) {
  // Nothing is published before the first update: the row table is empty,
  // so a checked row read fails instead of returning a stale price.
  const SteeredMechanism m(0.5, 10.0, 0.2);
  EXPECT_TRUE(m.rewards().empty());
  EXPECT_THROW(static_cast<void>(m.rewards().at(0)), std::out_of_range);
}

}  // namespace
}  // namespace mcs::incentive
