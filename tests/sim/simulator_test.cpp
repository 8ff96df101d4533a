#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "incentive/fixed_mechanism.h"
#include "incentive/on_demand_mechanism.h"
#include "select/selector.h"
#include "sim/scenario.h"

namespace mcs::sim {
namespace {

using incentive::DemandIndicator;
using incentive::DemandLevelScale;
using incentive::FixedMechanism;
using incentive::OnDemandMechanism;
using incentive::RewardRule;

model::World tiny_world() {
  model::World w(geo::BoundingBox::square(1000.0), geo::TravelModel{}, 200.0);
  w.add_task({100, 0}, 5, 2);   // near user homes
  w.add_task({900, 900}, 5, 2); // far corner
  w.add_user({0, 0}, 600.0);    // can walk 1200 m per round
  w.add_user({50, 0}, 600.0);
  w.add_user({0, 50}, 600.0);
  return w;
}

Simulator make_sim(model::World world, SimulatorParams sp = {}) {
  auto mech = std::make_unique<OnDemandMechanism>(
      DemandIndicator::with_paper_defaults(), DemandLevelScale(5),
      RewardRule(0.5, 0.5, 5));
  auto sel = select::make_selector(select::SelectorKind::kDp);
  return Simulator(std::move(world), std::move(mech), std::move(sel), sp);
}

TEST(Simulator, StepProducesRoundMetrics) {
  Simulator s = make_sim(tiny_world());
  const RoundMetrics& rm = s.step();
  EXPECT_EQ(rm.round, 1);
  EXPECT_GT(rm.new_measurements, 0);
  EXPECT_EQ(rm.total_measurements, rm.new_measurements);
  EXPECT_EQ(rm.user_profit.size(), 3u);
  EXPECT_EQ(s.current_round(), 1);
}

TEST(Simulator, UsersNeverRepeatATask) {
  Simulator s = make_sim(tiny_world());
  for (int k = 0; k < 5; ++k) s.step();
  for (const model::Task& t : s.world().tasks()) {
    std::set<UserId> contributors;
    for (const auto& m : t.measurements()) {
      EXPECT_TRUE(contributors.insert(m.user).second)
          << "user " << m.user << " contributed twice to task " << t.id();
    }
  }
}

TEST(Simulator, CompletedTasksAreWithdrawnNextRound) {
  // Task 0 needs 2 measurements and has 3 users adjacent: it completes in
  // round 1 (possibly with overflow) and must receive nothing afterwards.
  Simulator s = make_sim(tiny_world());
  s.step();
  const int after_round1 = s.world().task(0).received();
  EXPECT_GE(after_round1, 2);
  for (int k = 0; k < 4; ++k) s.step();
  EXPECT_EQ(s.world().task(0).received(), after_round1);
}

TEST(Simulator, NoMeasurementsAfterDeadline) {
  SimulatorParams sp;
  sp.max_rounds = 8;
  Simulator sim = make_sim(tiny_world(), sp);
  for (int k = 0; k < 8; ++k) sim.step();
  for (const model::Task& t : sim.world().tasks()) {
    for (const auto& m : t.measurements()) {
      EXPECT_LE(m.round, t.deadline());
    }
  }
}

TEST(Simulator, PaymentsMatchTaskLedgers) {
  Simulator s = make_sim(tiny_world());
  for (int k = 0; k < 5 && !s.all_tasks_closed(); ++k) s.step();
  EXPECT_NEAR(s.budget().spent(), s.world().total_paid(), 1e-9);
}

TEST(Simulator, UserProfitsConsistentWithLedger) {
  Simulator s = make_sim(tiny_world());
  s.step();
  const auto& rm = s.history().back();
  for (std::size_t u = 0; u < 3; ++u) {
    const model::User& user = s.world().users()[u];
    EXPECT_NEAR(rm.user_profit[u], user.total_profit(), 1e-9);
  }
}

TEST(Simulator, RunStopsWhenAllTasksClosed) {
  SimulatorParams sp;
  sp.max_rounds = 15;
  Simulator s = make_sim(tiny_world(), sp);
  const CampaignMetrics m = s.run();
  EXPECT_TRUE(s.all_tasks_closed() || s.current_round() == 15);
  EXPECT_GT(m.total_measurements, 0);
  // Both tasks are trivially reachable for 3 users at budget 600 s; the
  // near one completes, the far one at (900,900) is within 1273 m one-way,
  // too far for the 1200 m budget -> expired uncovered.
  EXPECT_TRUE(s.world().task(0).completed());
}

TEST(Simulator, StepPastEndThrows) {
  SimulatorParams sp;
  sp.max_rounds = 1;
  Simulator s = make_sim(tiny_world(), sp);
  s.step();
  EXPECT_THROW(s.step(), Error);
}

TEST(Simulator, EventTraceMatchesMeasurements) {
  SimulatorParams sp;
  sp.record_events = true;
  Simulator s = make_sim(tiny_world(), sp);
  for (int k = 0; k < 3; ++k) s.step();
  EXPECT_EQ(static_cast<long long>(s.events().size()),
            s.world().total_received());
  for (const SensingEvent& e : s.events().events()) {
    EXPECT_TRUE(s.world().task(e.task).has_contributed(e.user));
    EXPECT_GT(e.reward, 0.0);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  SimulatorParams sp;
  sp.max_rounds = 5;
  Simulator a = make_sim(tiny_world(), sp);
  Simulator b = make_sim(tiny_world(), sp);
  const CampaignMetrics ma = a.run();
  const CampaignMetrics mb = b.run();
  EXPECT_EQ(ma.total_measurements, mb.total_measurements);
  EXPECT_DOUBLE_EQ(ma.total_paid, mb.total_paid);
  EXPECT_EQ(ma.per_task_received, mb.per_task_received);
}

TEST(Simulator, PeekInstancesDoesNotMutateState) {
  Simulator s = make_sim(tiny_world());
  const auto insts = s.peek_instances();
  ASSERT_EQ(insts.size(), 3u);
  EXPECT_EQ(s.world().total_received(), 0);
  EXPECT_EQ(s.current_round(), 0);
  // Users near (0,0) see the near task as a candidate; the far corner task
  // (1273 m away) exceeds every budget and is still listed as a candidate —
  // filtering by reachability is the selector's job, not the instance's.
  for (const auto& inst : insts) {
    EXPECT_EQ(inst.candidates.size(), 2u);
    EXPECT_DOUBLE_EQ(inst.time_budget, 600.0);
  }
  // Stepping afterwards behaves exactly like a fresh simulator.
  Simulator fresh = make_sim(tiny_world());
  EXPECT_EQ(s.step().new_measurements, fresh.step().new_measurements);
}

TEST(Simulator, FixedMechanismCountsArePaidAtFixedRate) {
  model::World w = tiny_world();
  auto mech = std::make_unique<FixedMechanism>(RewardRule(0.5, 0.5, 5),
                                               std::vector<int>{3, 3});
  auto sel = select::make_selector(select::SelectorKind::kGreedy);
  Simulator s(std::move(w), std::move(mech), std::move(sel), {});
  s.step();
  for (const model::Task& t : s.world().tasks()) {
    for (const auto& m : t.measurements()) {
      EXPECT_DOUBLE_EQ(m.reward_paid, 1.5);  // level 3
    }
  }
}

TEST(Simulator, MeanOpenRewardTracksPublishedPrices) {
  Simulator s = make_sim(tiny_world());
  const RoundMetrics& rm = s.step();
  EXPECT_EQ(rm.open_tasks, 2);
  // Both tasks open at round 1; the snapshot mean is within the rule range.
  EXPECT_GE(rm.mean_open_reward, 0.5);
  EXPECT_LE(rm.mean_open_reward, 2.5);
  // After the near task completes, only the far one stays open.
  const RoundMetrics& rm2 = s.step();
  EXPECT_EQ(rm2.open_tasks, 1);
}

// Prices ramp 1, 2, 3, ... on every update_rewards() call and the mechanism
// reprices before each user session — a minimal intra-round mechanism with
// exactly predictable published prices.
class RampMechanism final : public incentive::IncentiveMechanism {
 public:
  const char* name() const override { return "ramp"; }
  bool updates_within_round() const override { return true; }
  void update_rewards(const model::World& world, Round) override {
    rewards_.assign(world.num_tasks(), next_price_);
    next_price_ += 1.0;
  }

 private:
  Money next_price_ = 1.0;
};

TEST(Simulator, IntraRoundMeanRewardAveragesSessionPrices) {
  // Round 1 publishes $1 at round start, then reprices to $2/$3/$4 before
  // the three user sessions. The recorded mean must be what users were
  // actually offered — the session average $3 — not the $1 start snapshot.
  auto sel = select::make_selector(select::SelectorKind::kGreedy);
  Simulator s(tiny_world(), std::make_unique<RampMechanism>(), std::move(sel),
              {});
  const RoundMetrics& rm = s.step();
  EXPECT_EQ(rm.open_tasks, 2);  // the round-start snapshot is unchanged
  EXPECT_DOUBLE_EQ(rm.mean_open_reward, 3.0);
}

TEST(Simulator, ConstructionValidation) {
  auto sel = select::make_selector(select::SelectorKind::kGreedy);
  EXPECT_THROW(Simulator(tiny_world(), nullptr, std::move(sel), {}), Error);
  auto mech = std::make_unique<FixedMechanism>(RewardRule(0.5, 0.5, 5),
                                               std::vector<int>{1, 1});
  EXPECT_THROW(Simulator(tiny_world(), std::move(mech), nullptr, {}), Error);
}

// Pays 1 + id/10 dollars for every open task, published by task row as
// IncentiveMechanism::rewards() requires, in a world whose ids are not
// dense vector positions.
class IdPricedMechanism final : public incentive::IncentiveMechanism {
 public:
  const char* name() const override { return "id-priced"; }
  void update_rewards(const model::World& world, Round k) override {
    rewards_.assign(world.num_tasks(), 0.0);
    for (std::size_t i = 0; i < world.num_tasks(); ++i) {
      const model::Task& t = world.tasks()[i];
      if (t.completed() || t.expired_at(k)) continue;
      rewards_[i] = 1.0 + 0.1 * static_cast<double>(t.id());
    }
  }
};

TEST(Simulator, RoundMetricsIndexRewardsByTaskIdNotPosition) {
  // Regression: the mean_open_reward snapshot used to query
  // mechanism->reward(position). With ids {10, 20, 31} that read rewards
  // the mechanism never published (same bug class as the DemandIndicator
  // position/id mixup fixed in PR 1).
  model::World w(geo::BoundingBox::square(1000.0), geo::TravelModel{}, 200.0);
  w.tasks().emplace_back(TaskId{10}, geo::Point{100, 0}, Round{5}, 1);
  w.tasks().emplace_back(TaskId{20}, geo::Point{200, 0}, Round{5}, 1);
  w.tasks().emplace_back(TaskId{31}, geo::Point{900, 900}, Round{5}, 1);
  w.add_user({0, 0}, 600.0);

  auto sel = select::make_selector(select::SelectorKind::kDp);
  Simulator s(std::move(w), std::make_unique<IdPricedMechanism>(),
              std::move(sel), {});
  const RoundMetrics& rm = s.step();
  EXPECT_EQ(rm.open_tasks, 3);
  EXPECT_DOUBLE_EQ(rm.mean_open_reward, (2.0 + 3.0 + 4.1) / 3.0);
  // The user reached the two nearby tasks and was paid the prices the
  // mechanism published for their rows.
  EXPECT_EQ(s.world().task(10).received(), 1);
  EXPECT_EQ(s.world().task(20).received(), 1);
  EXPECT_DOUBLE_EQ(s.world().task(10).measurements()[0].reward_paid, 2.0);
  EXPECT_DOUBLE_EQ(s.world().task(20).measurements()[0].reward_paid, 3.0);
}

// Fills rewards_ by row with no other declaration, like the custom-mechanism
// example's ProgressOnlyMechanism, but with a distinct price per row.
class RowPricedMechanism final : public incentive::IncentiveMechanism {
 public:
  const char* name() const override { return "row-priced"; }
  void update_rewards(const model::World& world, Round k) override {
    rewards_.assign(world.num_tasks(), 0.0);
    for (std::size_t i = 0; i < world.num_tasks(); ++i) {
      const model::Task& t = world.tasks()[i];
      if (t.completed() || t.expired_at(k)) continue;
      rewards_[i] = 1.0 + 0.5 * static_cast<double>(i);
    }
  }
};

TEST(Simulator, RowPublishedPricesPaidOnSparseAndPermutedIds) {
  // Regression: a mechanism that filled rewards_ by row without opting in
  // to row reads was priced by id. Sparse ids then threw (id >= task count)
  // and permuted ids silently paid another task's price. Every accepted
  // delivery must pay its row's published price, through both the round
  // loop and the serial reference.
  const std::vector<std::vector<TaskId>> id_sets = {{10, 20, 31}, {2, 0, 1}};
  for (const std::vector<TaskId>& ids : id_sets) {
    for (const bool legacy_commit : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "ids " << ids[0] << "," << ids[1] << "," << ids[2]
                   << " legacy_commit " << legacy_commit);
      model::World w(geo::BoundingBox::square(1000.0), geo::TravelModel{},
                     200.0);
      w.tasks().emplace_back(ids[0], geo::Point{100, 0}, Round{5}, 2);
      w.tasks().emplace_back(ids[1], geo::Point{200, 0}, Round{5}, 2);
      w.tasks().emplace_back(ids[2], geo::Point{0, 150}, Round{5}, 2);
      w.add_user({0, 0}, 600.0);
      w.add_user({50, 0}, 600.0);
      w.add_user({0, 50}, 600.0);
      SimulatorParams sp;
      sp.legacy_commit = legacy_commit;
      Simulator s(std::move(w), std::make_unique<RowPricedMechanism>(),
                  select::make_selector(select::SelectorKind::kDp), sp);
      int deliveries = 0;
      for (Round k = 1; k <= 2; ++k) {
        s.step();
        const std::vector<Money>& published = s.mechanism().rewards();
        for (std::size_t i = 0; i < s.world().num_tasks(); ++i) {
          for (const model::Measurement& m :
               s.world().tasks()[i].measurements()) {
            if (m.round != k) continue;
            ++deliveries;
            EXPECT_EQ(m.reward_paid, published[i])
                << "row " << i << " round " << k;
            EXPECT_EQ(m.reward_paid, 1.0 + 0.5 * static_cast<double>(i));
          }
        }
      }
      EXPECT_GT(deliveries, 0);
    }
  }
}

TEST(Simulator, MisSizedRewardTableFailsWithNamedError) {
  // A publish that does not hold one price per task row is rejected once,
  // right after the publish, naming the mechanism.
  class ShortTableMechanism final : public incentive::IncentiveMechanism {
   public:
    const char* name() const override { return "short-table"; }
    void update_rewards(const model::World& world, Round) override {
      rewards_.assign(world.num_tasks() - 1, 1.0);
    }
  };
  Simulator s(tiny_world(), std::make_unique<ShortTableMechanism>(),
              select::make_selector(select::SelectorKind::kDp), {});
  try {
    s.step();
    FAIL() << "a mis-sized reward table was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("short-table"), std::string::npos)
        << e.what();
  }
}

TEST(Simulator, PeekInstancesOfferOpenPricedUncontributedTasksInRowOrder) {
  // The serial reference offers every open task (no reach filter): each
  // peeked instance must hold exactly the tasks that are neither completed
  // nor expired, carry a positive published price and have not been
  // contributed to by that user — in task-row order, at the published
  // price.
  model::World w(geo::BoundingBox::square(1000.0), geo::TravelModel{}, 200.0);
  w.add_task({100, 0}, 5, 5);    // near every home; stays open
  w.add_task({900, 900}, 5, 2);  // far corner
  w.add_task({0, 100}, 1, 1);    // past its deadline from round 2 on
  w.add_task({60, 60}, 5, 2);
  w.add_user({0, 0}, 600.0);
  w.add_user({50, 0}, 600.0);
  w.add_user({0, 50}, 600.0);
  Simulator s = make_sim(std::move(w));
  s.step();
  const Round k = s.current_round() + 1;
  const auto instances = s.peek_instances();
  const model::World& world = s.world();
  const std::vector<Money>& rewards = s.mechanism().rewards();
  ASSERT_TRUE(world.tasks()[2].expired_at(k));
  ASSERT_EQ(instances.size(), world.num_users());
  std::size_t contributed = 0;
  for (std::size_t p = 0; p < world.num_users(); ++p) {
    const model::User& u = world.users()[p];
    std::vector<TaskId> want;
    for (std::size_t i = 0; i < world.num_tasks(); ++i) {
      const model::Task& t = world.tasks()[i];
      if (t.completed() || t.expired_at(k) || rewards[i] <= 0.0) continue;
      if (t.has_contributed(u.id())) {
        ++contributed;
        continue;
      }
      want.push_back(t.id());
    }
    const select::SelectionInstance& inst = instances[p];
    EXPECT_EQ(inst.start, u.home());
    EXPECT_EQ(inst.time_budget, u.time_budget());
    std::vector<TaskId> got;
    for (const select::Candidate& c : inst.candidates) {
      got.push_back(c.task);
      const auto row = static_cast<std::size_t>(c.task);  // dense ids
      EXPECT_EQ(c.reward, rewards[row]);
      EXPECT_EQ(c.location, world.tasks()[row].location());
    }
    EXPECT_EQ(got, want) << "user position " << p;
  }
  EXPECT_GT(contributed, 0u);  // the contributed filter was exercised
}

}  // namespace
}  // namespace mcs::sim
