// Adaptive-budget on-demand mechanism (our extension, not in the paper).
//
// The paper derives the base reward r0 once from the whole budget (Eq. 9):
// r0 = B/Σφ − λ(N−1). That is conservative: every measurement bought below
// the maximum reward leaves budget on the table. This variant re-derives
// the reward rule each round from the *remaining* budget and the *still
// missing* measurements, so unspent slack flows back into higher rewards —
// the worst-case bound of Eq. 8 holds round-by-round by construction:
//
//   r0_k = B_remaining / missing_k − λ(N−1),   clamped to [r0_floor, r0_cap].
//
// Everything else (demand indicator, levels) is the on-demand mechanism.
#pragma once

#include <memory>

#include "incentive/on_demand_mechanism.h"

namespace mcs::incentive {

class AdaptiveBudgetMechanism final : public DemandPricedMechanism {
 public:
  /// `budget` is the total platform budget B; `lambda`/`levels` as in
  /// Eq. 7. `r0_cap` bounds how far the base reward may escalate when only
  /// a few measurements remain (default: 10x the initial r0).
  AdaptiveBudgetMechanism(DemandIndicator indicator, DemandLevelScale scale,
                          Money budget, Money lambda,
                          Money r0_cap_factor = 10.0);

  const char* name() const override { return "on-demand-adaptive"; }

  void update_rewards(const model::World& world, Round k) override;

  /// The rule in force after the most recent update.
  const RewardRule& current_rule() const;

  /// Checkpoint state: the lazily computed initial r0 anchor and, once an
  /// update has run, the current rule's r0 (lambda and levels are
  /// construction parameters, so the rule is rebuilt from r0 alone). The
  /// demand/level introspection buffers are recomputed by every update and
  /// are not checkpointed.
  Json state_to_json() const override;
  void restore_state(const Json& state) override;

 private:
  Money budget_;
  Money lambda_;
  Money r0_cap_factor_;
  Money initial_r0_ = 0.0;        // computed lazily at the first update
  std::unique_ptr<RewardRule> rule_;
};

}  // namespace mcs::incentive
