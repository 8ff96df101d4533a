#include "incentive/on_demand_mechanism.h"

#include "common/error.h"
#include "common/thread_pool.h"

namespace mcs::incentive {

OnDemandMechanism::OnDemandMechanism(DemandIndicator indicator,
                                     DemandLevelScale scale, RewardRule rule)
    : indicator_(std::move(indicator)), scale_(scale), rule_(rule) {
  rewards_by_row_ = true;  // rewards_ is indexed by task position
}

void OnDemandMechanism::update_rewards(const model::World& world, Round k) {
  // Consume the world's change journal: this full recompute (re)baselines
  // every price against the current counts, so changes accumulated before
  // this publish must not leak into the next reprice's delta.
  const model::World::NeighborDelta delta = world.take_neighbor_changes();
  const std::vector<int>& counts = *delta.counts;
  const model::TaskStore& ts = world.task_store();
  const std::size_t n = ts.size();
  MCS_CHECK(counts.size() == n, "one neighbor count per task");
  last_demands_.resize(n);
  last_levels_.resize(n);
  rewards_.resize(n);
  // Fused demand/level/reward sweep, fanned over the reprice workers in
  // disjoint task-row ranges: one pass over the store columns instead of
  // three (demands, levels, pricing), and every row writes only its own
  // slots, so the result is bit-identical at any worker count. The per-row
  // operation is exactly reprice_position's (demand_from_fields -> normalize
  // -> level -> withdrawn-gated reward; received >= required / k > deadline
  // are Task::completed()/expired_at() verbatim), keeping the incremental
  // path's oracle this very function.
  parallel_ranges(
      reprice_pool_, reprice_workers_, n,
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const int received = static_cast<int>(ts.measurements[i].size());
          const double d = indicator_.normalize(indicator_.demand_from_fields(
              ts.deadline[i], ts.required[i], received, k, counts[i],
              delta.max_count));
          last_demands_[i] = d;
          last_levels_[i] = scale_.level(d);
          const bool withdrawn = received >= ts.required[i] || k > ts.deadline[i];
          rewards_[i] = withdrawn ? 0.0 : rule_.reward(last_levels_[i]);
        }
      });
  // The histogram-backed running max is the same integer max_element finds.
  last_max_neighbors_ = delta.max_count;
  last_round_ = k;
  published_ = true;
}

Json OnDemandMechanism::state_to_json() const {
  Json state = IncentiveMechanism::state_to_json();
  state["last_demands"] = money_array(last_demands_);
  state["last_levels"] = int_array(last_levels_);
  state["last_max_neighbors"] = last_max_neighbors_;
  state["last_round"] = last_round_;
  state["published"] = published_;
  return state;
}

void OnDemandMechanism::restore_state(const Json& state) {
  IncentiveMechanism::restore_state(state);
  last_demands_ = money_vector(state.at("last_demands"));
  last_levels_ = int_vector(state.at("last_levels"));
  const long long nmax = state.at("last_max_neighbors").as_int();
  MCS_CHECK(nmax >= 0, "max neighbor count must be non-negative");
  last_max_neighbors_ = static_cast<int>(nmax);
  last_round_ = static_cast<Round>(state.at("last_round").as_int());
  published_ = state.at("published").as_bool();
  last_reprice_touched_ = 0;
}

void OnDemandMechanism::reprice_position(const model::World& world, Round k,
                                         std::size_t pos, int neighbors,
                                         int max_neighbors) {
  // Mirrors one iteration of demands_into + normalize + levels_into +
  // the pricing loop, in the same operation order, so the stored doubles
  // are bit-identical to a full recompute.
  const model::Task& t = world.tasks()[pos];
  const double d =
      indicator_.normalize(indicator_.demand(t, k, neighbors, max_neighbors));
  last_demands_[pos] = d;
  last_levels_[pos] = scale_.level(d);
  rewards_[pos] = (t.completed() || t.expired_at(k))
                      ? 0.0
                      : rule_.reward(last_levels_[pos]);
}

void OnDemandMechanism::reprice(const model::World& world, Round k,
                                const std::vector<std::size_t>& dirty_tasks) {
  const std::size_t n = world.num_tasks();
  if (!published_ || last_round_ != k || rewards_.size() != n) {
    update_rewards(world, k);
    last_reprice_touched_ = n;
    return;
  }
  // The delta since the last publish/reprice, straight from the neighbor
  // cache's journal: no O(n) count-diff scan, no O(n) max_element. Taking
  // before the fallback checks is safe — both fallbacks recompute in full
  // against the current counts (and consume an empty journal themselves).
  const model::World::NeighborDelta delta = world.take_neighbor_changes();
  if (delta.rebuilt) {
    // The cache was rebuilt (task or user set changed): there is no
    // per-position delta to replay.
    update_rewards(world, k);
    last_reprice_touched_ = n;
    return;
  }
  const std::vector<int>& counts = *delta.counts;
  MCS_CHECK(counts.size() == n, "one neighbor count per task");
  const int max_neighbors = delta.max_count;
  if (max_neighbors != last_max_neighbors_) {
    // Nmax enters every task's X3 denominator: everything is dirty.
    update_rewards(world, k);
    last_reprice_touched_ = n;
    return;
  }
  last_reprice_touched_ = 0;
  for (const std::size_t pos : dirty_tasks) {
    MCS_CHECK(pos < n, "dirty task position out of range");
    reprice_position(world, k, pos, counts[pos], max_neighbors);
    ++last_reprice_touched_;
  }
  // Positions whose count was touched by user movement. The journal may
  // include net-zero round trips; repricing from the *current* count is a
  // pure function, so those recompute to bit-identical values.
  for (const std::size_t pos : *delta.changed) {
    reprice_position(world, k, pos, counts[pos], max_neighbors);
    ++last_reprice_touched_;
  }
}

}  // namespace mcs::incentive
