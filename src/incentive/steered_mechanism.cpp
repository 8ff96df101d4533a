#include "incentive/steered_mechanism.h"

#include <cmath>

#include "common/error.h"

namespace mcs::incentive {

SteeredMechanism::SteeredMechanism(Money rc, double mu, double delta)
    : rc_(rc), mu_(mu), delta_(delta) {
  MCS_CHECK(rc >= 0.0, "steered base reward must be non-negative");
  MCS_CHECK(mu >= 0.0, "steered mu must be non-negative");
  MCS_CHECK(delta > 0.0 && delta < 1.0, "steered delta must be in (0,1)");
}

double SteeredMechanism::quality(int measurements) const {
  MCS_CHECK(measurements >= 0, "measurement count must be non-negative");
  return 1.0 - std::pow(1.0 - delta_, measurements);
}

double SteeredMechanism::quality_gain(int measurements) const {
  return quality(measurements + 1) - quality(measurements);
}

Money SteeredMechanism::reward_at(int measurements) const {
  return rc_ + mu_ * quality_gain(measurements);
}

Json SteeredMechanism::state_to_json() const {
  Json state = IncentiveMechanism::state_to_json();
  state["last_round"] = last_round_;
  return state;
}

void SteeredMechanism::restore_state(const Json& state) {
  IncentiveMechanism::restore_state(state);
  last_round_ = static_cast<Round>(state.at("last_round").as_int());
}

void SteeredMechanism::update_rewards(const model::World& world, Round k) {
  rewards_.assign(world.num_tasks(), 0.0);
  for (std::size_t i = 0; i < world.num_tasks(); ++i) {
    const model::Task& t = world.tasks()[i];
    if (t.completed() || t.expired_at(k)) continue;
    rewards_[i] = reward_at(t.received());
  }
  last_round_ = k;
}

void SteeredMechanism::reprice(const model::World& world, Round k,
                               const std::vector<std::size_t>& dirty_tasks) {
  if (last_round_ != k || rewards_.size() != world.num_tasks()) {
    update_rewards(world, k);
    return;
  }
  // Within the round k is fixed, so expiry cannot flip; completion only
  // flips through a new measurement, which puts the task in the dirty set.
  // Every untouched task therefore keeps the exact double a full recompute
  // would reproduce.
  for (const std::size_t i : dirty_tasks) {
    MCS_CHECK(i < rewards_.size(), "dirty task position out of range");
    const model::Task& t = world.tasks()[i];
    rewards_[i] = (t.completed() || t.expired_at(k))
                      ? 0.0
                      : reward_at(t.received());
  }
}

}  // namespace mcs::incentive
