#include "incentive/fixed_mechanism.h"

#include "common/error.h"

namespace mcs::incentive {

FixedMechanism::FixedMechanism(RewardRule rule, std::size_t num_tasks, Rng& rng)
    : rule_(rule) {
  levels_.reserve(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    levels_.push_back(
        static_cast<int>(rng.uniform_int(1, rule.levels())));
  }
}

FixedMechanism::FixedMechanism(RewardRule rule, std::vector<int> levels)
    : rule_(rule), levels_(std::move(levels)) {
  for (const int lvl : levels_) {
    MCS_CHECK(lvl >= 1 && lvl <= rule_.levels(), "demand level out of range");
  }
}

Json FixedMechanism::state_to_json() const {
  Json state = IncentiveMechanism::state_to_json();
  state["levels"] = int_array(levels_);
  return state;
}

void FixedMechanism::restore_state(const Json& state) {
  IncentiveMechanism::restore_state(state);
  std::vector<int> levels = int_vector(state.at("levels"));
  for (const int lvl : levels) {
    MCS_CHECK(lvl >= 1 && lvl <= rule_.levels(), "demand level out of range");
  }
  levels_ = std::move(levels);
}

void FixedMechanism::update_rewards(const model::World& world, Round k) {
  MCS_CHECK(world.num_tasks() == levels_.size(),
            "fixed mechanism was built for a different task count");
  rewards_.assign(world.num_tasks(), 0.0);
  for (std::size_t i = 0; i < world.num_tasks(); ++i) {
    const model::Task& t = world.tasks()[i];
    if (t.completed() || t.expired_at(k)) continue;
    // The defining property of this baseline: the reward never changes.
    rewards_[i] = rule_.reward(levels_[i]);
  }
}

}  // namespace mcs::incentive
