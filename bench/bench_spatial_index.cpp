// Microbenchmark: neighbor counting backends.
//
// The platform recomputes N_i (users within R of every task) each round.
// Compares the library's frozen uniform grid (build + count, as the neighbor
// cache does) with the naive O(n*m) scan across population sizes, on the
// paper's 3000 m field.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "geo/distance.h"
#include "geo/spatial_grid.h"

namespace {

using namespace mcs;

constexpr double kArea = 3000.0;
constexpr double kRadius = 500.0;
constexpr int kTasks = 20;

struct Layout {
  std::vector<geo::Point> users;
  std::vector<geo::Point> tasks;
};

Layout make_layout(int num_users) {
  Rng rng(static_cast<std::uint64_t>(num_users) * 31 + 7);
  Layout l;
  for (int i = 0; i < num_users; ++i) {
    l.users.push_back({rng.uniform(0, kArea), rng.uniform(0, kArea)});
  }
  for (int i = 0; i < kTasks; ++i) {
    l.tasks.push_back({rng.uniform(0, kArea), rng.uniform(0, kArea)});
  }
  return l;
}

void BM_NeighborsBrute(benchmark::State& state) {
  const Layout l = make_layout(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::size_t total = 0;
    for (const geo::Point t : l.tasks) {
      for (const geo::Point u : l.users) {
        if (geo::euclidean(t, u) <= kRadius) ++total;
      }
    }
    benchmark::DoNotOptimize(total);
  }
}

void BM_NeighborsGrid(benchmark::State& state) {
  const Layout l = make_layout(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const geo::FrozenGrid grid(geo::BoundingBox::square(kArea), kRadius,
                               l.users);
    std::size_t total = 0;
    for (const geo::Point t : l.tasks) total += grid.count_radius(t, kRadius);
    benchmark::DoNotOptimize(total);
  }
}

}  // namespace

BENCHMARK(BM_NeighborsBrute)->Arg(140)->Arg(1000)->Arg(10000);
BENCHMARK(BM_NeighborsGrid)->Arg(140)->Arg(1000)->Arg(10000);
