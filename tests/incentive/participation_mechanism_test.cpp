#include "incentive/participation_mechanism.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mcs::incentive {
namespace {

model::World two_task_world() {
  model::World w(geo::BoundingBox::square(1000.0), geo::TravelModel{}, 100.0);
  w.add_task({100, 100}, 10, 5);
  w.add_task({900, 900}, 10, 5);
  for (int i = 0; i < 10; ++i) w.add_user({500, 500}, 600.0);
  return w;
}

RewardRule rule() { return RewardRule(0.5, 0.5, 5); }

TEST(ParticipationMechanism, StartsAtMiddleLevelWithGlobalPrice) {
  model::World w = two_task_world();
  ParticipationMechanism m(rule());
  EXPECT_EQ(m.current_level(), 3);
  m.update_rewards(w, 1);
  EXPECT_DOUBLE_EQ(m.rewards()[0], 1.5);
  EXPECT_DOUBLE_EQ(m.rewards()[1], 1.5);  // one global price, location-blind
}

TEST(ParticipationMechanism, ControllerRaisesOnLowParticipation) {
  ParticipationMechanism m(rule(), /*target=*/0.5, /*band=*/0.1);
  m.observe_participation(0.1);
  EXPECT_EQ(m.current_level(), 4);
  m.observe_participation(0.0);
  EXPECT_EQ(m.current_level(), 5);
  m.observe_participation(0.0);
  EXPECT_EQ(m.current_level(), 5);  // clamped at N
}

TEST(ParticipationMechanism, ControllerLowersOnHighParticipation) {
  ParticipationMechanism m(rule(), 0.5, 0.1);
  m.observe_participation(0.9);
  EXPECT_EQ(m.current_level(), 2);
  m.observe_participation(1.0);
  EXPECT_EQ(m.current_level(), 1);
  m.observe_participation(1.0);
  EXPECT_EQ(m.current_level(), 1);  // clamped at 1
}

TEST(ParticipationMechanism, DeadBandHolds) {
  ParticipationMechanism m(rule(), 0.5, 0.1);
  m.observe_participation(0.45);
  m.observe_participation(0.55);
  m.observe_participation(0.5);
  EXPECT_EQ(m.current_level(), 3);
}

TEST(ParticipationMechanism, InfersParticipationFromWorldDelta) {
  model::World w = two_task_world();  // 10 users
  ParticipationMechanism m(rule(), 0.5, 0.1);
  m.update_rewards(w, 1);
  EXPECT_EQ(m.current_level(), 3);
  // One measurement among 10 users = 10% participation -> raise.
  w.task(0).add_measurement(0, 1, 1.5);
  m.update_rewards(w, 2);
  EXPECT_EQ(m.current_level(), 4);
  // Nine more measurements = 90% -> lower.
  for (int u = 1; u < 5; ++u) w.task(0).add_measurement(u, 2, 2.0);
  for (int u = 0; u < 5; ++u) w.task(1).add_measurement(u, 2, 2.0);
  m.update_rewards(w, 3);
  EXPECT_EQ(m.current_level(), 3);
}

TEST(ParticipationMechanism, WithdrawsClosedTasks) {
  model::World w = two_task_world();
  ParticipationMechanism m(rule());
  for (int u = 0; u < 5; ++u) w.task(0).add_measurement(u, 1, 1.5);
  m.update_rewards(w, 2);
  EXPECT_DOUBLE_EQ(m.rewards()[0], 0.0);
  EXPECT_GT(m.rewards()[1], 0.0);
}

TEST(ParticipationMechanism, Validation) {
  EXPECT_THROW(ParticipationMechanism(rule(), 0.0, 0.0), Error);
  EXPECT_THROW(ParticipationMechanism(rule(), 1.5, 0.1), Error);
  EXPECT_THROW(ParticipationMechanism(rule(), 0.5, 0.6), Error);
  ParticipationMechanism m(rule());
  EXPECT_THROW(m.observe_participation(-0.1), Error);
  EXPECT_THROW(m.observe_participation(1.2), Error);
}

TEST(ParticipationMechanism, FactoryIntegration) {
  model::World w = two_task_world();  // total required = 10
  MechanismParams params;
  params.platform_budget = 100.0;  // r0 = 10 - 2 = 8
  Rng rng(1);
  const auto m =
      make_mechanism(MechanismKind::kParticipation, w, params, rng);
  EXPECT_STREQ(m->name(), "participation");
  m->update_rewards(w, 1);
  EXPECT_DOUBLE_EQ(m->rewards()[0], 8.0 + 0.5 * 2);  // level 3
  EXPECT_EQ(parse_mechanism("participation"), MechanismKind::kParticipation);
  EXPECT_EQ(parse_mechanism("radp"), MechanismKind::kParticipation);
}

TEST(ParticipationMechanism, NotIntraRound) {
  ParticipationMechanism m(rule());
  EXPECT_FALSE(m.updates_within_round());
}

}  // namespace
}  // namespace mcs::incentive
