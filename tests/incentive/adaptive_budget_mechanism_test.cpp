#include "incentive/adaptive_budget_mechanism.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "select/selector.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace mcs::incentive {
namespace {

model::World small_world() {
  model::World w(geo::BoundingBox::square(1000.0), geo::TravelModel{}, 200.0);
  w.add_task({100, 100}, 10, 4);
  w.add_task({900, 900}, 10, 4);
  for (int i = 0; i < 6; ++i) w.add_user({500, 500}, 400.0);
  return w;
}

AdaptiveBudgetMechanism make(Money budget = 20.0) {
  // 8 required measurements; Eq. 9 initial r0 = budget/8 - 0.5*4.
  return AdaptiveBudgetMechanism(DemandIndicator::with_paper_defaults(),
                                 DemandLevelScale(5), budget, 0.5);
}

TEST(AdaptiveBudget, FirstRoundMatchesStaticEq9) {
  model::World w = small_world();
  AdaptiveBudgetMechanism m = make(20.0);  // r0 = 20/8 - 2 = 0.5
  m.update_rewards(w, 1);
  EXPECT_DOUBLE_EQ(m.current_rule().r0(), 0.5);
  EXPECT_DOUBLE_EQ(m.current_rule().max_reward(), 2.5);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE(m.rewards()[i], 0.5);
    EXPECT_LE(m.rewards()[i], 2.5);
  }
}

TEST(AdaptiveBudget, SlackFlowsBackIntoRewards) {
  model::World w = small_world();
  AdaptiveBudgetMechanism m = make(20.0);
  m.update_rewards(w, 1);
  // Cheap progress: 4 measurements bought at $1 each. Remaining budget 16
  // for 4 missing -> r0 = 16/4 - 2 = 2 > initial 0.5.
  for (int u = 0; u < 4; ++u) w.task(0).add_measurement(u, 1, 1.0);
  m.update_rewards(w, 2);
  EXPECT_DOUBLE_EQ(m.current_rule().r0(), 2.0);
  EXPECT_DOUBLE_EQ(m.rewards()[0], 0.0);  // task 0 completed -> withdrawn
  EXPECT_GT(m.rewards()[1], 0.5);
}

TEST(AdaptiveBudget, NeverBelowInitialRule) {
  model::World w = small_world();
  AdaptiveBudgetMechanism m = make(20.0);
  m.update_rewards(w, 1);
  // Expensive progress: pay max for everything -> no slack accumulates and
  // r0 stays clamped at the initial value, never below.
  for (int u = 0; u < 4; ++u) w.task(0).add_measurement(u, 1, 2.5);
  m.update_rewards(w, 2);
  EXPECT_GE(m.current_rule().r0(), 0.5);
}

TEST(AdaptiveBudget, EscalationCapHolds) {
  model::World w = small_world();
  AdaptiveBudgetMechanism m(DemandIndicator::with_paper_defaults(),
                            DemandLevelScale(5), 20.0, 0.5,
                            /*r0_cap_factor=*/3.0);
  m.update_rewards(w, 1);
  // Complete 7 of 8 for free: huge remaining-per-missing ratio, capped.
  for (int u = 0; u < 4; ++u) w.task(0).add_measurement(u, 1, 0.0);
  for (int u = 0; u < 3; ++u) w.task(1).add_measurement(u, 1, 0.0);
  m.update_rewards(w, 2);
  EXPECT_DOUBLE_EQ(m.current_rule().r0(), 1.5);  // 0.5 * 3
}

TEST(AdaptiveBudget, ExhaustedBudgetWithdrawsEverything) {
  model::World w = small_world();
  AdaptiveBudgetMechanism m = make(20.0);
  m.update_rewards(w, 1);
  for (int u = 0; u < 5; ++u) w.task(0).add_measurement(u, 1, 4.0);  // $20
  m.update_rewards(w, 2);
  EXPECT_DOUBLE_EQ(m.rewards()[1], 0.0);
}

TEST(AdaptiveBudget, Validation) {
  EXPECT_THROW(AdaptiveBudgetMechanism(DemandIndicator::with_paper_defaults(),
                                       DemandLevelScale(5), 0.0, 0.5),
               Error);
  EXPECT_THROW(AdaptiveBudgetMechanism(DemandIndicator::with_paper_defaults(),
                                       DemandLevelScale(5), 10.0, -0.1),
               Error);
  EXPECT_THROW(AdaptiveBudgetMechanism(DemandIndicator::with_paper_defaults(),
                                       DemandLevelScale(5), 10.0, 0.5, 0.5),
               Error);
  AdaptiveBudgetMechanism m = make();
  EXPECT_THROW(m.current_rule(), Error);  // before first update
  // Budget too small for Eq. 9 at the first update.
  model::World w = small_world();
  AdaptiveBudgetMechanism tiny = make(1.0);
  EXPECT_THROW(tiny.update_rewards(w, 1), Error);
}

TEST(AdaptiveBudget, FullCampaignStaysWithinBudget) {
  sim::ScenarioParams params;
  params.num_users = 60;
  Rng rng(99);
  model::World world = sim::generate_world(params, rng);
  const Money budget = 1000.0;
  auto mech = std::make_unique<AdaptiveBudgetMechanism>(
      DemandIndicator::with_paper_defaults(), DemandLevelScale(5), budget, 0.5);
  auto sel = select::make_selector(select::SelectorKind::kGreedy);
  sim::SimulatorParams sp;
  sp.platform_budget = budget;
  sim::Simulator s(std::move(world), std::move(mech), std::move(sel), sp);
  const sim::CampaignMetrics m = s.run();
  // Same-round overflow can exceed the per-round bound slightly; allow one
  // escalated max-reward of slack.
  EXPECT_LE(m.total_paid, budget + 5.0 * 2.5);
  EXPECT_GT(m.completeness_pct, 0.0);
}

}  // namespace
}  // namespace mcs::incentive
