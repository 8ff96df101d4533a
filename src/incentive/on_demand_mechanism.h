// The paper's demand-based dynamic ("pay on-demand") incentive mechanism.
//
// Every round: evaluate the AHP-weighted demand indicator for each task,
// normalize, quantize into demand levels, and price with the linear rule of
// Eq. 7. Completed and expired tasks get reward 0 (they are withdrawn).
#pragma once

#include <vector>

#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/mechanism.h"
#include "incentive/reward.h"

namespace mcs::incentive {

/// The demand-priced mechanisms (on-demand and its adaptive-budget
/// variant): both publish through one fused demand -> level -> reward
/// sweep and differ only in the rule they price with.
class DemandPricedMechanism : public IncentiveMechanism {
 public:
  /// Introspection of the most recent update (for tests, traces and the
  /// Table III bench): normalized demands and levels per task row.
  const std::vector<double>& last_normalized_demands() const {
    return last_demands_;
  }
  const std::vector<int>& last_levels() const { return last_levels_; }

  const DemandIndicator& indicator() const { return indicator_; }
  const DemandLevelScale& scale() const { return scale_; }

 protected:
  DemandPricedMechanism(DemandIndicator indicator, DemandLevelScale scale);

  /// One fused sweep over the store columns (Eqs. 2–7), writing
  /// last_demands_, last_levels_ and rewards_ by task row. Nmax is one
  /// serial max pass over World::neighbor_counts(); the per-row work fans
  /// over the reprice workers in disjoint row ranges, each row writing only
  /// its own slots, so any worker count is bit-identical. Completed and
  /// expired rows are priced 0, and so is every row when `publish` is
  /// false. Allocation-free once the buffers are sized.
  void price_rows(const model::World& world, Round k, const RewardRule& rule,
                  bool publish);

  DemandIndicator indicator_;
  DemandLevelScale scale_;
  std::vector<double> last_demands_;
  std::vector<int> last_levels_;
};

class OnDemandMechanism final : public DemandPricedMechanism {
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

  const RewardRule& rule() const { return rule_; }

 private:
  RewardRule rule_;
};

}  // namespace mcs::incentive
