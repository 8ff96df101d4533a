// The paper's demand-based dynamic ("pay on-demand") incentive mechanism.
//
// Every round: evaluate the AHP-weighted demand indicator for each task,
// normalize, quantize into demand levels, and price with the linear rule of
// Eq. 7. Completed and expired tasks get reward 0 (they are withdrawn).
#pragma once

#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/mechanism.h"
#include "incentive/reward.h"

namespace mcs::incentive {

class OnDemandMechanism final : public IncentiveMechanism {
 public:
  OnDemandMechanism(DemandIndicator indicator, DemandLevelScale scale,
                    RewardRule rule);

  const char* name() const override { return "on-demand"; }

  /// Allocation-free in steady state: demand/level/reward buffers are
  /// members reused across rounds (pinned by bench_incentive_micro's
  /// operator-new counter).
  void update_rewards(const model::World& world, Round k) override;

  /// Checkpoint state: the published demand/level/reward snapshot. Older
  /// payloads also carry last_max_neighbors / last_round / published, the
  /// bookkeeping of a since-removed incremental reprice; restore ignores
  /// them.
  Json state_to_json() const override;
  void restore_state(const Json& state) override;

  /// Introspection of the most recent update (for tests, traces and the
  /// Table III bench): normalized demands and levels per task.
  const std::vector<double>& last_normalized_demands() const {
    return last_demands_;
  }
  const std::vector<int>& last_levels() const { return last_levels_; }

  const DemandIndicator& indicator() const { return indicator_; }
  const RewardRule& rule() const { return rule_; }
  const DemandLevelScale& scale() const { return scale_; }

 private:
  DemandIndicator indicator_;
  DemandLevelScale scale_;
  RewardRule rule_;
  std::vector<double> last_demands_;
  std::vector<int> last_levels_;
};

}  // namespace mcs::incentive
