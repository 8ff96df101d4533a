// Microbenchmarks for the platform-side per-round work: AHP weight
// extraction, demand evaluation over a full world, neighbor counting via
// the spatial grid, repricing, and a whole simulated round.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "ahp/comparison_matrix.h"
#include "ahp/weights.h"
#include "common/rng.h"
#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/on_demand_mechanism.h"
#include "incentive/reward.h"
#include "incentive/steered_mechanism.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

// Global heap instrumentation: counts every operator-new call in the
// process so the steady-state benches below can assert their hot loop is
// allocation-free (allocs_per_iter == 0). Counting only — the default
// malloc still serves the request.
std::atomic<std::uint64_t> g_new_calls{0};

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mcs;

void BM_AhpRowAverage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  ahp::ComparisonMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, static_cast<double>(rng.uniform_int(1, 9)));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ahp::row_average_weights(m));
  }
}

void BM_AhpEigenvector(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  ahp::ComparisonMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, static_cast<double>(rng.uniform_int(1, 9)));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ahp::eigenvector_weights(m));
  }
}

void BM_DemandEvaluation(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_tasks = static_cast<int>(state.range(0));
  params.num_users = 100;
  Rng rng(7);
  const model::World world = sim::generate_world(params, rng);
  const auto indicator = incentive::DemandIndicator::with_paper_defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(indicator.normalized_demands(world, 3));
  }
}

void BM_NeighborCounts(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_users = static_cast<int>(state.range(0));
  Rng rng(7);
  const model::World world = sim::generate_world(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.neighbor_counts());
  }
}

// The neighbor cache's delta sync: every iteration moves a seeded 10% of
// the users to fresh random points, then syncs the counts. The moves are
// drawn up front (kBatches rotating batches) so the timed loop is the
// location writes plus the sync, not the RNG. Args: users, tasks.
void BM_NeighborSync(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_users = static_cast<int>(state.range(0));
  params.num_tasks = static_cast<int>(state.range(1));
  Rng rng(7);
  model::World world = sim::generate_world(params, rng);
  constexpr std::size_t kBatches = 8;
  const std::size_t moved = world.num_users() / 10;
  std::vector<std::vector<std::pair<std::size_t, geo::Point>>> batches(
      kBatches);
  for (auto& batch : batches) {
    for (std::size_t m = 0; m < moved; ++m) {
      const auto who = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(world.num_users()) - 1));
      batch.emplace_back(who, geo::Point{rng.uniform(0.0, params.area_side),
                                         rng.uniform(0.0, params.area_side)});
    }
  }
  benchmark::DoNotOptimize(world.neighbor_counts().data());  // build the grid
  std::size_t next = 0;
  for (auto _ : state) {
    for (const auto& [who, to] : batches[next]) {
      world.users()[who].set_location(to);
    }
    next = (next + 1) % kBatches;
    benchmark::DoNotOptimize(world.neighbor_counts().data());
  }
  state.counters["moved_users"] = static_cast<double>(moved);
}

// Steady-state on-demand repricing across rounds: after the first round
// warms the member buffers (demands, levels, rewards, neighbor cache) the
// per-round update must not touch the heap at all. The allocs_per_iter
// counter is the regression guard — it reads 0.00 when the path is clean.
void BM_UpdateRewardsSteadyState(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_tasks = static_cast<int>(state.range(0));
  params.num_users = 100;
  Rng rng(7);
  const model::World world = sim::generate_world(params, rng);
  // Budget scales with the task set (the stock 1000/400 = $2.5 per
  // required measurement) so Eq. 9 keeps a positive base reward at every
  // panel size.
  const incentive::RewardRule rule = incentive::RewardRule::from_budget(
      2.5 * static_cast<double>(world.total_required()),
      world.total_required(), 0.5, 5);
  incentive::OnDemandMechanism mech(
      incentive::DemandIndicator::with_paper_defaults(),
      incentive::DemandLevelScale(5), rule);
  mech.update_rewards(world, 1);  // warm every buffer
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  std::uint64_t iters = 0;
  for (auto _ : state) {
    mech.update_rewards(world, 2);
    benchmark::DoNotOptimize(mech.rewards().data());
    ++iters;
  }
  const std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  state.counters["allocs_per_iter"] = iters == 0
                                          ? 0.0
                                          : static_cast<double>(after - before) /
                                                static_cast<double>(iters);
}

// Intra-round incremental repricing: steered, the one mechanism that
// reprices between sessions, with one dirty task per session, against the
// full-scan alternative (BM_UpdateRewardsSteadyState above is on-demand's
// per-round scan). The dirty path only rewrites existing reward slots, so
// allocs_per_iter must read 0.00 — the regression guard tier1.sh greps.
void BM_RepriceDirtySession(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_tasks = static_cast<int>(state.range(0));
  params.num_users = 100;
  Rng rng(7);
  model::World world = sim::generate_world(params, rng);
  incentive::SteeredMechanism mech(0.5, 10.0, 0.2);
  mech.update_rewards(world, 1);
  const std::vector<std::size_t> dirty = {0};
  mech.reprice(world, 1, dirty);  // warm
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  std::uint64_t iters = 0;
  for (auto _ : state) {
    mech.reprice(world, 1, dirty);
    benchmark::DoNotOptimize(mech.rewards().data());
    ++iters;
  }
  const std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  state.counters["allocs_per_iter"] =
      iters == 0 ? 0.0
                 : static_cast<double>(after - before) /
                       static_cast<double>(iters);
}

void BM_FullRound(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_users = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    model::World world = sim::generate_world(params, rng);
    Rng mech_rng(1);
    auto mech = incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                          world, {}, mech_rng);
    auto sel = select::make_selector(select::SelectorKind::kDp);
    sim::Simulator s(std::move(world), std::move(mech), std::move(sel), {});
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.step());
  }
}

}  // namespace

BENCHMARK(BM_AhpRowAverage)->Arg(3)->Arg(8)->Arg(15);
BENCHMARK(BM_AhpEigenvector)->Arg(3)->Arg(8)->Arg(15);
BENCHMARK(BM_DemandEvaluation)->Arg(20)->Arg(100)->Arg(500);
BENCHMARK(BM_NeighborCounts)->Arg(40)->Arg(140)->Arg(1000);
BENCHMARK(BM_NeighborSync)
    ->Args({1000, 20})
    ->Args({10000, 200})
    ->Args({100000, 2000});
BENCHMARK(BM_UpdateRewardsSteadyState)->Arg(20)->Arg(100)->Arg(500);
BENCHMARK(BM_RepriceDirtySession)->Arg(20)->Arg(100)->Arg(500);
BENCHMARK(BM_FullRound)->Arg(40)->Arg(100)->Arg(140);
