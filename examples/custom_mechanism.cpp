// Extending the library: plug a custom incentive mechanism into the
// simulator.
//
// This example implements a "progress-only" mechanism — the paper's Eq. 7
// reward rule driven by the completing-progress factor alone (an ablation of
// the full three-factor demand indicator) — and compares it against the full
// on-demand mechanism on identical scenarios. It demonstrates the two
// extension points a downstream user touches: IncentiveMechanism and the
// Simulator.
//
// The one rule a mechanism must keep: update_rewards() fills `rewards_`
// with one price per task *row*, so rewards_[i] prices world.tasks()[i]
// whatever the task ids are (0 = not on offer). The simulator reads the
// table by row and rejects a publish of any other size.
//
//   ./custom_mechanism [--users=100] [--reps=10] [--seed=5]
#include <cmath>
#include <iostream>
#include <memory>

#include "common/config.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "exp/figures.h"
#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/mechanism.h"
#include "incentive/on_demand_mechanism.h"
#include "incentive/reward.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace {

using namespace mcs;

// A reward schedule driven only by X2 (completing progress): tasks start at
// the top demand level and cool down as measurements arrive. Deadlines and
// user density are ignored — exactly what the ablation probes.
class ProgressOnlyMechanism final : public incentive::IncentiveMechanism {
 public:
  ProgressOnlyMechanism(incentive::DemandLevelScale scale,
                        incentive::RewardRule rule)
      : scale_(scale), rule_(rule) {}

  const char* name() const override { return "progress-only"; }

  void update_rewards(const model::World& world, Round k) override {
    rewards_.assign(world.num_tasks(), 0.0);
    for (std::size_t i = 0; i < world.num_tasks(); ++i) {
      const model::Task& t = world.tasks()[i];
      if (t.completed() || t.expired_at(k)) continue;
      const double x2 = incentive::progress_factor(t.received(), t.required(),
                                                   /*lambda2=*/1.0);
      const double normalized = x2 / std::log(2.0);  // X2 in [0, ln 2]
      rewards_[i] = rule_.reward(scale_.level(normalized));
    }
  }

 private:
  incentive::DemandLevelScale scale_;
  incentive::RewardRule rule_;
};

}  // namespace

int main(int argc, char** argv) {
  const Config flags = Config::from_args(argc, argv);
  exp::ExperimentConfig cfg = exp::experiment_from_config(flags);
  const int reps = static_cast<int>(flags.get_int("reps", 10));
  exp::warn_unconsumed(flags);

  std::cout << "Ablation: full on-demand indicator vs progress-only reward "
               "schedule (" << reps << " repetitions)\n\n";

  TextTable table({"mechanism", "coverage %", "completeness %", "variance",
                   "$ / measurement"});

  for (int which = 0; which < 2; ++which) {
    RunningStats cov, compl_, var, rpm;
    const char* label = nullptr;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(cfg.seed + static_cast<std::uint64_t>(rep) * 104729);
      model::World world = sim::generate_world(cfg.scenario, rng);

      const auto rule = incentive::RewardRule::from_budget(
          cfg.mech_params.platform_budget, world.total_required(),
          cfg.mech_params.lambda, cfg.mech_params.demand_levels);
      std::unique_ptr<incentive::IncentiveMechanism> mech;
      if (which == 0) {
        mech = std::make_unique<incentive::OnDemandMechanism>(
            incentive::DemandIndicator::with_paper_defaults(),
            incentive::DemandLevelScale(cfg.mech_params.demand_levels), rule);
      } else {
        mech = std::make_unique<ProgressOnlyMechanism>(
            incentive::DemandLevelScale(cfg.mech_params.demand_levels), rule);
      }
      label = mech->name();

      auto sel = select::make_selector(cfg.selector, cfg.dp_candidate_cap);
      sim::SimulatorParams sp;
      sp.max_rounds = cfg.max_rounds;
      sp.platform_budget = cfg.mech_params.platform_budget;
      sim::Simulator s(std::move(world), std::move(mech), std::move(sel), sp);
      const sim::CampaignMetrics m = s.run();
      cov.add(m.coverage_pct);
      compl_.add(m.completeness_pct);
      var.add(m.measurement_variance);
      rpm.add(m.avg_reward_per_measurement);
    }
    table.add_row({label, format_fixed(cov.mean(), 1),
                   format_fixed(compl_.mean(), 1), format_fixed(var.mean(), 2),
                   format_fixed(rpm.mean(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nDropping the deadline and neighbor factors costs "
               "completeness: late, remote tasks no longer heat up in time.\n";
  return 0;
}
