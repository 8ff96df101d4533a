#include "model/world.h"

#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"

namespace mcs::model {

namespace {

#ifndef NDEBUG
// Debug tripwire for the NOT-thread-safe neighbor cache: claims the flag for
// the guarded scope; a second concurrent claimant fails loudly. Single-
// threaded re-entry cannot happen (no guarded method calls another guarded
// method while holding its guard).
class CacheBusyGuard {
 public:
  explicit CacheBusyGuard(std::atomic<int>& flag) : flag_(flag) {
    MCS_ASSERT(flag_.exchange(1, std::memory_order_acq_rel) == 0,
               "World neighbor cache accessed concurrently — the cache "
               "mutates under const and is documented single-consumer "
               "(world.h); give each thread its own World");
  }
  ~CacheBusyGuard() { flag_.store(0, std::memory_order_release); }

  CacheBusyGuard(const CacheBusyGuard&) = delete;
  CacheBusyGuard& operator=(const CacheBusyGuard&) = delete;

 private:
  std::atomic<int>& flag_;
};
#define MCS_NCACHE_GUARD(flag) const CacheBusyGuard ncache_busy_guard(flag)
#else
#define MCS_NCACHE_GUARD(flag) static_cast<void>(flag)
#endif

}  // namespace

World::World(geo::BoundingBox area, geo::TravelModel travel,
             Meters neighbor_radius)
    : area_(area),
      travel_(travel),
      neighbor_radius_(neighbor_radius),
      tstore_(std::make_unique<TaskStore>()),
      ustore_(std::make_unique<UserStore>()),
      tasks_(tstore_.get()),
      users_(ustore_.get()) {
  MCS_CHECK(neighbor_radius >= 0.0, "neighbor radius must be non-negative");
  MCS_CHECK(travel.speed_mps > 0.0, "travel speed must be positive");
  MCS_CHECK(travel.cost_per_meter >= 0.0, "travel cost must be non-negative");
}

World::World(World&& o) noexcept
    : area_(o.area_),
      travel_(o.travel_),
      neighbor_radius_(o.neighbor_radius_),
      tstore_(std::move(o.tstore_)),
      ustore_(std::move(o.ustore_)),
      tasks_(std::move(o.tasks_)),
      users_(std::move(o.users_)),
      ncache_(std::move(o.ncache_)) {}

World& World::operator=(World&& o) noexcept {
  if (this != &o) {
    area_ = o.area_;
    travel_ = o.travel_;
    neighbor_radius_ = o.neighbor_radius_;
    tstore_ = std::move(o.tstore_);
    ustore_ = std::move(o.ustore_);
    tasks_ = std::move(o.tasks_);
    users_ = std::move(o.users_);
    ncache_ = std::move(o.ncache_);
  }
  return *this;
}

World::World(const World& o)
    : area_(o.area_),
      travel_(o.travel_),
      neighbor_radius_(o.neighbor_radius_),
      tstore_(std::make_unique<TaskStore>(*o.tstore_)),
      ustore_(std::make_unique<UserStore>(*o.ustore_)),
      ncache_(o.ncache_) {
  tasks_.rebind(tstore_.get());
  users_.rebind(ustore_.get());
}

World& World::operator=(const World& o) {
  if (this != &o) {
    area_ = o.area_;
    travel_ = o.travel_;
    neighbor_radius_ = o.neighbor_radius_;
    *tstore_ = *o.tstore_;
    *ustore_ = *o.ustore_;
    tasks_.rebind(tstore_.get());
    users_.rebind(ustore_.get());
    ncache_ = o.ncache_;
  }
  return *this;
}

TaskId World::add_task(geo::Point location, Round deadline, int required) {
  MCS_CHECK(deadline >= 1, "task deadline must be at least round 1");
  MCS_CHECK(required >= 1, "task must require at least one measurement");
  const auto row = static_cast<std::uint32_t>(tstore_->size());
  const auto id = static_cast<TaskId>(row);
  tstore_->id.push_back(id);
  tstore_->location.push_back(location);
  tstore_->deadline.push_back(deadline);
  tstore_->required.push_back(required);
  tstore_->measurements.emplace_back();
  tstore_->contributors.emplace_back();
  tasks_.views_.push_back(Task(tstore_.get(), row));
  return id;
}

UserId World::add_user(geo::Point home, Seconds time_budget) {
  MCS_CHECK(time_budget >= 0.0, "time budget must be non-negative");
  const auto row = static_cast<std::uint32_t>(ustore_->size());
  const auto id = static_cast<UserId>(row);
  ustore_->id.push_back(id);
  ustore_->home.push_back(home);
  ustore_->location.push_back(home);
  ustore_->time_budget.push_back(time_budget);
  ustore_->total_reward.push_back(0.0);
  ustore_->total_cost.push_back(0.0);
  ustore_->contributed.emplace_back();
  users_.views_.push_back(User(ustore_.get(), row));
  return id;
}

// add_task() assigns dense ids (position == id), which the stores' inline
// fast path serves; worlds assembled directly through the mutable tasks()
// accessor may carry arbitrary ids and resolve through the lazily built
// id→row hash index (store.h) — O(1) amortized, never a per-lookup scan.
Task& World::task(TaskId id) {
  const std::uint32_t row = tstore_->row_of(id);
  if (row == kNoRow) throw Error("unknown task id");
  return tasks_[row];
}

const Task& World::task(TaskId id) const {
  return const_cast<World*>(this)->task(id);
}

User& World::user(UserId id) {
  const std::uint32_t row = ustore_->row_of(id);
  if (row == kNoRow) throw Error("unknown user id");
  return users_[row];
}

const User& World::user(UserId id) const {
  return const_cast<World*>(this)->user(id);
}

bool World::neighbor_cache_usable() const {
  if (!ncache_.valid) return false;
  if (ncache_.user_pos.size() != ustore_->size()) return false;
  if (ncache_.task_pos.size() != tstore_->size()) return false;
  // Task locations are immutable on Task, but the mutable tasks() accessor
  // lets tests append tasks later; a cheap point compare catches swaps too.
  for (std::size_t i = 0; i < tstore_->size(); ++i) {
    if (!(tstore_->location[i] == ncache_.task_pos[i])) return false;
  }
  return true;
}

void World::rebuild_neighbor_grids() const {
  // Cell size = query radius keeps the scan at a 3x3 cell neighborhood.
  // Both grids are frozen CSR snapshots of the position columns: the task
  // grid stays exact until the next rebuild (task locations are immutable
  // between rebuilds by the usable() contract), and the user grid is only
  // read by the rebuild count pass below — user movement afterwards makes
  // it stale, which is fine because the delta sync never consults it.
  const double cell =
      neighbor_radius_ > 0.0 ? neighbor_radius_ : area_.diameter();
  ncache_.user_pos.assign(ustore_->location.begin(), ustore_->location.end());
  ncache_.user_grid = geo::FrozenGrid(area_, cell, ncache_.user_pos);
  ncache_.task_pos.assign(tstore_->location.begin(), tstore_->location.end());
  ncache_.task_grid = geo::FrozenGrid(area_, cell, ncache_.task_pos);
  ncache_.counts.resize(tstore_->size());
}

void World::rebuild_neighbor_cache() const {
  rebuild_neighbor_grids();
  for (std::size_t i = 0; i < tstore_->size(); ++i) {
    ncache_.counts[i] = static_cast<int>(
        ncache_.user_grid.count_radius(ncache_.task_pos[i],
                                       neighbor_radius_));
  }
  ncache_.valid = true;
}

void World::warm_neighbor_cache(ThreadPool& pool, int workers) const {
  MCS_NCACHE_GUARD(ncache_busy_);
  if (neighbor_cache_usable()) return;  // delta sync stays lazy and serial
  if (workers <= 1 || tstore_->size() < 2) {
    rebuild_neighbor_cache();
    return;
  }
  // Grid construction is serial (the CSR counting sort is one pass); the
  // per-task counting — the O(T * users-in-3x3-cells) bulk of a rebuild —
  // fans out over disjoint count slots against the frozen user grid, with
  // the exact predicate of the serial rebuild.
  rebuild_neighbor_grids();
  const std::size_t n = tstore_->size();
  const auto w = static_cast<std::size_t>(workers);
  for (std::size_t s = 0; s < w; ++s) {
    pool.submit([this, s, w, n] {
      const std::size_t lo = s * n / w;
      const std::size_t hi = (s + 1) * n / w;
      for (std::size_t i = lo; i < hi; ++i) {
        ncache_.counts[i] = static_cast<int>(
            ncache_.user_grid.count_radius(ncache_.task_pos[i],
                                           neighbor_radius_));
      }
    });
  }
  pool.wait_idle();
  ncache_.valid = true;
}

void World::sync_neighbor_cache() const {
  // Delta update: a user who moved from p0 to p1 leaves the neighborhood of
  // every task within radius of p0 and enters that of every task within
  // radius of p1. The task grid answers both "tasks near p" queries with
  // the exact predicate a full recount uses, so counts stay integer-exact,
  // and integer ±1 adds commute, so the visiting order does not matter.
  // Only the frozen task grid is consulted: the user grid is a rebuild-time
  // artifact nobody reads between rebuilds, so a moved user costs two CSR
  // radius queries and nothing else.
  std::vector<int>& counts = ncache_.counts;
  for (std::size_t i = 0; i < ustore_->size(); ++i) {
    const geo::Point now = ustore_->location[i];
    if (now == ncache_.user_pos[i]) continue;
    ncache_.task_grid.for_each_in_radius(
        ncache_.user_pos[i], neighbor_radius_,
        [&counts](std::int32_t t) { --counts[static_cast<std::size_t>(t)]; });
    ncache_.task_grid.for_each_in_radius(
        now, neighbor_radius_,
        [&counts](std::int32_t t) { ++counts[static_cast<std::size_t>(t)]; });
    ncache_.user_pos[i] = now;
  }
}

const std::vector<int>& World::neighbor_counts() const {
  MCS_NCACHE_GUARD(ncache_busy_);
  if (neighbor_cache_usable()) {
    sync_neighbor_cache();
  } else {
    rebuild_neighbor_cache();
  }
  return ncache_.counts;
}

long long World::total_required() const {
  long long total = 0;
  for (const int r : tstore_->required) total += r;
  return total;
}

long long World::total_received() const {
  long long total = 0;
  for (const auto& m : tstore_->measurements) {
    total += static_cast<long long>(m.size());
  }
  return total;
}

Money World::total_paid() const {
  Money total = 0.0;
  for (const auto& ms : tstore_->measurements) {
    for (const Measurement& m : ms) total += m.reward_paid;
  }
  return total;
}

}  // namespace mcs::model
