#include "incentive/participation_mechanism.h"

#include <algorithm>

#include "common/error.h"

namespace mcs::incentive {

ParticipationMechanism::ParticipationMechanism(RewardRule rule, double target,
                                               double band)
    : rule_(rule), target_(target), band_(band), level_((rule.levels() + 1) / 2) {
  MCS_CHECK(target > 0.0 && target <= 1.0, "participation target in (0,1]");
  MCS_CHECK(band >= 0.0 && band < target, "band must be in [0, target)");
}

void ParticipationMechanism::observe_participation(double active_fraction) {
  MCS_CHECK(active_fraction >= 0.0 && active_fraction <= 1.0 + 1e-9,
            "active fraction must be in [0,1]");
  if (active_fraction < target_ - band_) {
    level_ = std::min(level_ + 1, rule_.levels());
  } else if (active_fraction > target_ + band_) {
    level_ = std::max(level_ - 1, 1);
  }
}

Json ParticipationMechanism::state_to_json() const {
  Json state = IncentiveMechanism::state_to_json();
  state["level"] = level_;
  state["last_total_received"] = last_total_received_;
  return state;
}

void ParticipationMechanism::restore_state(const Json& state) {
  IncentiveMechanism::restore_state(state);
  const long long level = state.at("level").as_int();
  MCS_CHECK(level >= 1 && level <= rule_.levels(),
            "participation level out of range");
  level_ = static_cast<int>(level);
  last_total_received_ = state.at("last_total_received").as_int();
  MCS_CHECK(last_total_received_ >= 0,
            "total received count must be non-negative");
}

void ParticipationMechanism::update_rewards(const model::World& world,
                                            Round k) {
  // Self-contained controller input: infer last round's participation from
  // the measurement delta (the proxy saturates at 1).
  if (k > 1 && world.num_users() > 0) {
    const long long delta = world.total_received() - last_total_received_;
    const double proxy =
        std::min(1.0, static_cast<double>(delta) /
                          static_cast<double>(world.num_users()));
    observe_participation(proxy);
  }
  last_total_received_ = world.total_received();

  rewards_.assign(world.num_tasks(), 0.0);
  const Money reward = rule_.reward(level_);
  for (std::size_t i = 0; i < world.num_tasks(); ++i) {
    const model::Task& t = world.tasks()[i];
    if (t.completed() || t.expired_at(k)) continue;
    // One global price: the location-blindness this baseline embodies.
    rewards_[i] = reward;
  }
}

}  // namespace mcs::incentive
