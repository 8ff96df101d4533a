#include "sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "geo/distance.h"
#include "geo/spatial_grid.h"
#include "sim/checkpoint.h"
#include "sim/serialize.h"

namespace mcs::sim {

Simulator::Simulator(model::World world,
                     std::unique_ptr<incentive::IncentiveMechanism> mechanism,
                     std::unique_ptr<select::TaskSelector> selector,
                     SimulatorParams params,
                     std::unique_ptr<MobilityModel> mobility)
    : world_(std::move(world)),
      mechanism_(std::move(mechanism)),
      selector_(std::move(selector)),
      params_(params),
      mobility_(mobility ? std::move(mobility)
                         : std::make_unique<StaticHomeMobility>()),
      mobility_rng_(params.order_seed ^ 0xb0b1b2b3b4b5b6b7ULL),
      faults_(params.faults, params.order_seed),
      budget_(params.platform_budget, /*strict=*/false),
      events_(params.record_events) {
  MCS_CHECK(mechanism_ != nullptr, "simulator needs a mechanism");
  MCS_CHECK(selector_ != nullptr, "simulator needs a selector");
  MCS_CHECK(params.max_rounds >= 1, "max_rounds must be at least 1");
}

namespace {

// Monotonic wall clock for the opt-in phase timers.
double mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The price table the mechanism just published, indexed by task row
// (IncentiveMechanism::rewards()). Checked once per publish, so every price
// read in this file can index it by row without a per-read fallback.
const std::vector<Money>& published_rewards(
    const incentive::IncentiveMechanism& mechanism, const model::World& world) {
  const std::vector<Money>& rewards = mechanism.rewards();
  MCS_CHECK(rewards.size() == world.num_tasks(),
            std::string("mechanism '") + mechanism.name() + "' published " +
                std::to_string(rewards.size()) + " rewards for " +
                std::to_string(world.num_tasks()) +
                " tasks; rewards() must hold one price per task row");
  return rewards;
}

std::vector<bool> open_tasks(const model::World& world,
                             const std::vector<Money>& rewards, Round k) {
  std::vector<bool> open(world.num_tasks(), false);
  for (std::size_t i = 0; i < world.num_tasks(); ++i) {
    const model::Task& t = world.tasks()[i];
    open[i] = !t.completed() && !t.expired_at(k) && rewards[i] > 0.0;
  }
  return open;
}

// Every open, priced task the user has not contributed to, in task-row
// order. Prices are read at call time, so intra-round repricing between
// sessions is visible here too.
select::SelectionInstance make_instance(
    const model::World& world, const std::vector<Money>& rewards,
    const model::User& u, const std::vector<bool>& open, geo::Point start,
    Seconds time_budget) {
  select::SelectionInstance inst;
  inst.start = start;
  inst.travel = world.travel();
  inst.time_budget = time_budget;
  for (std::size_t i = 0; i < world.num_tasks(); ++i) {
    if (!open[i]) continue;
    const model::Task& t = world.tasks()[i];
    if (t.has_contributed(u.id())) continue;
    if (rewards[i] <= 0.0) continue;
    inst.candidates.push_back({t.id(), t.location(), rewards[i]});
  }
  return inst;
}

}  // namespace

std::vector<select::SelectionInstance> Simulator::peek_instances() {
  MCS_CHECK(next_round_ <= params_.max_rounds, "campaign already over");
  const Round k = next_round_;
  mechanism_->update_rewards(world_, k);
  const std::vector<Money>& rewards = published_rewards(*mechanism_, world_);
  std::vector<bool> open = open_tasks(world_, rewards, k);
  apply_withdrawals(open, k);
  std::vector<select::SelectionInstance> out;
  out.reserve(world_.num_users());
  for (const model::User& u : world_.users()) {
    out.push_back(make_instance(world_, rewards, u, open, u.home(),
                                u.time_budget()));
  }
  return out;
}

int Simulator::apply_withdrawals(std::vector<bool>& open, Round k) const {
  if (!faults_.enabled()) return 0;
  // Platform glitch: an open task vanishes from this round's published set
  // (users cannot select or deliver it); it returns next round.
  int withdrawn = 0;
  for (std::size_t i = 0; i < open.size(); ++i) {
    if (!open[i]) continue;
    if (faults_.withdraw_task(world_.tasks()[i].id(), k)) {
      open[i] = false;
      ++withdrawn;
    }
  }
  return withdrawn;
}

bool Simulator::all_tasks_closed() const {
  for (const model::Task& t : world_.tasks()) {
    if (!t.completed() && !t.expired_at(next_round_)) return false;
  }
  return true;
}

void Simulator::commit_session(Round k, model::User& u, std::size_t pos,
                               const select::Selection& sel, RoundMetrics& rm,
                               std::vector<std::size_t>* dirty) {
  const UserId uid = u.id();

  // Mid-tour abandonment: the user walks only the first `walked_legs`
  // legs of the planned tour and pays travel for those legs alone.
  const int planned_legs = static_cast<int>(sel.order.size());
  int walked_legs = planned_legs;
  if (faults_.enabled()) {
    walked_legs = faults_.legs_completed(uid, k, planned_legs);
    if (walked_legs < planned_legs) ++rm.abandoned_tours;
  }

  Money reward_earned = 0.0;
  Meters walked = 0.0;
  geo::Point at = u.location();
  for (int li = 0; li < walked_legs; ++li) {
    const TaskId id = sel.order[static_cast<std::size_t>(li)];
    model::Task& t = world_.task(id);
    // The task's row (tasks_ is contiguous): prices and the dirty set
    // speak rows, matching the reprice() contract.
    const auto row = static_cast<std::size_t>(&t - world_.tasks().data());
    const Money reward = mechanism_->rewards()[row];
    const Meters leg = geo::euclidean(at, t.location());
    walked += leg;
    at = t.location();
    if (faults_.enabled() && faults_.lose_upload(uid, id, k)) {
      // The leg was walked but the upload never arrived: no payment, no
      // task progress, and the user is not marked as a contributor — a
      // later round may retry. The demand indicator keeps asking.
      ++rm.lost_measurements;
      rm.wasted_travel += leg;
      events_.record({k, u.id(), id, 0.0, leg, /*accepted=*/false});
      continue;
    }
    const bool corrupted =
        faults_.enabled() && faults_.corrupt_upload(uid, id, k);
    t.add_measurement(u.id(), k, reward);
    u.mark_contributed(id);
    budget_.pay(reward);
    reward_earned += reward;
    if (corrupted) ++rm.corrupted_measurements;
    events_.record({k, u.id(), id, reward, leg, /*accepted=*/true,
                    corrupted});
    if (dirty != nullptr) dirty->push_back(row);
  }
  u.set_location(at);

  // A fully walked tour is charged the selector's own distance (keeps the
  // fault-free path bit-identical whatever accumulation a solver used);
  // an abandoned one pays for the walked prefix only.
  const Money cost = world_.travel().cost_for(
      walked_legs == planned_legs ? sel.distance : walked);
  u.add_earnings(reward_earned, cost);
  // Profit rows are indexed by the user's *position* in world().users(),
  // not by its id — ids need not be dense.
  rm.user_profit[pos] = reward_earned - cost;
  if (walked_legs > 0) ++rm.active_users;
}

void Simulator::commit_sessions(Round k,
                                const std::vector<std::uint32_t>& visit_order,
                                const std::vector<char>& dropped,
                                const std::vector<select::Selection>& plans,
                                const std::vector<char>& feasible,
                                const std::vector<Money>& reward_row,
                                ThreadPool* pool, int workers,
                                RoundMetrics& rm) {
  const std::size_t n = visit_order.size();
  model::UserStore& us = world_.user_store_mut();
  const model::TaskStore& ts = world_.task_store();

  // Sparse-id worlds resolve plan task ids through the store's hash index;
  // warm it here, serially, so the concurrent walkers only ever read a
  // fresh index (IdRowIndex's lazy rebuild is not safe to race).
  bool dense_ids = true;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.id[i] != static_cast<TaskId>(i)) {
      dense_ids = false;
      break;
    }
  }
  if (!dense_ids && ts.row_index.built_size != ts.size()) {
    ts.row_index.rebuild(ts.id);
  }

  const std::size_t n_segs = std::max<std::size_t>(
      1, std::min<std::size_t>(static_cast<std::size_t>(workers), n));
  if (commit_scratch_.segments.size() < n_segs) {
    commit_scratch_.segments.resize(n_segs);
  }
  for (CommitSegment& seg : commit_scratch_.segments) seg.clear();

  // Phase A: walk the tours into per-segment effect buffers. Everything a
  // walker writes is either private to its segment or private to its users'
  // rows (location, contributed set, earnings, profit) — segments hold
  // contiguous visit-order ranges, and a user appears in the visit order
  // exactly once.
  const bool faults_on = faults_.enabled();
  const geo::TravelModel& travel = world_.travel();
  const auto walk_range = [&](CommitSegment& seg, std::size_t lo,
                              std::size_t hi) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      const std::uint32_t pos = visit_order[idx];
      if (dropped[pos] != 0) {
        ++seg.dropped;
        continue;
      }
      MCS_ASSERT(feasible[pos] != 0, "selector returned an infeasible tour");
      const select::Selection& sel = plans[pos];
      const UserId uid = us.id[pos];
      const int planned_legs = static_cast<int>(sel.order.size());
      int walked_legs = planned_legs;
      if (faults_on) {
        walked_legs = faults_.legs_completed(uid, k, planned_legs);
        if (walked_legs < planned_legs) ++seg.abandoned;
      }
      Money reward_earned = 0.0;
      Meters walked = 0.0;
      geo::Point at = us.location[pos];
      for (int li = 0; li < walked_legs; ++li) {
        const TaskId id = sel.order[static_cast<std::size_t>(li)];
        const std::uint32_t row =
            dense_ids ? static_cast<std::uint32_t>(id) : ts.row_of(id);
        MCS_ASSERT(row != model::kNoRow &&
                       static_cast<std::size_t>(row) < ts.size(),
                   "planned task id unknown to the world");
        const Meters leg = geo::euclidean(at, ts.location[row]);
        walked += leg;
        at = ts.location[row];
        if (faults_on && faults_.lose_upload(uid, id, k)) {
          ++seg.lost;
          seg.legs.push_back({row, uid, 0.0, leg, 0, 0});
          continue;
        }
        const bool corrupted = faults_on && faults_.corrupt_upload(uid, id, k);
        const Money reward = reward_row[row];
        us.contributed[pos].set(id);
        reward_earned += reward;
        seg.paid.add(reward);
        if (corrupted) ++seg.corrupted;
        seg.legs.push_back({row, uid, reward, leg, 1,
                            static_cast<std::uint8_t>(corrupted ? 1 : 0)});
        seg.dirty_rows.set(row);
      }
      us.location[pos] = at;
      const Money cost = travel.cost_for(
          walked_legs == planned_legs ? sel.distance : walked);
      us.total_reward[pos] += reward_earned;
      us.total_cost[pos] += cost;
      rm.user_profit[pos] = reward_earned - cost;
      if (walked_legs > 0) ++seg.active;
    }
  };

  if (n_segs <= 1 || pool == nullptr) {
    walk_range(commit_scratch_.segments[0], 0, n);
  } else {
    const std::size_t chunk = (n + n_segs - 1) / n_segs;
    for (std::size_t s = 0; s < n_segs; ++s) {
      const std::size_t lo = std::min(n, s * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      if (lo < hi) {
        pool->submit([&walk_range, &seg = commit_scratch_.segments[s], lo, hi] {
          walk_range(seg, lo, hi);
        });
      }
    }
    pool->wait_idle();
  }

  // Phase B: ordered merge — payments, events, wasted travel and fault
  // counters replay in global visit order, bit-identical to the serial
  // interleaving.
  const Money paid_before = budget_.spent();
  merge_commit_segments(commit_scratch_.segments, k, ts, budget_, events_, rm);
  Money sub_total = 0.0;
  for (const CommitSegment& seg : commit_scratch_.segments) {
    sub_total += seg.paid.total();
  }
  const Money paid_delta = budget_.spent() - paid_before;
  MCS_ASSERT(std::abs(paid_delta - sub_total) <=
                 1e-6 * std::max(1.0, std::abs(paid_delta)),
             "commit merge payment replay deviates from the sub-accounts");

  // Phase C: task-grouped delivery apply.
  apply_commit_deliveries(commit_scratch_.segments, k, world_.task_store_mut(),
                          commit_scratch_, pool, workers);
}

void Simulator::run_sessions_serial(
    Round k, const std::vector<bool>& open,
    const std::vector<std::uint32_t>& visit_order, RoundMetrics& rm,
    double& session_mean_sum, int& priced_sessions) {
  // Task positions the previous session touched: between two sessions of
  // one round only those tasks gained measurements, so an intra-round
  // mechanism can reprice incrementally instead of rescanning the task set.
  // Round-granularity mechanisms (the legacy_commit reference) keep the
  // round-start prices and skip the reprice entirely.
  const bool intra_round = mechanism_->updates_within_round();
  const bool timed = params_.phase_timers;
  double t0 = 0.0;
  std::vector<std::size_t> dirty;
  for (const std::uint32_t pos : visit_order) {
    if (timed) t0 = mono_seconds();
    model::User& u = world_.users()[pos];
    // Mobility advances for every user, dropped or not (the worker is
    // somewhere that round; they just do not work) — fault draws therefore
    // never shift the mobility stream.
    u.set_location(
        mobility_->start_of_round(u, k, world_.area(), mobility_rng_));

    const bool drop = faults_.enabled() && faults_.drop_user(u.id(), k);
    if (timed) phase_.prepass += mono_seconds() - t0;
    if (drop) {
      // Offline this round: no session (so intra-round mechanisms see no
      // repricing event either), no travel, zero profit. The dirty set
      // carries over to the next surviving session.
      ++rm.dropped_users;
      continue;
    }

    if (intra_round) {
      if (timed) t0 = mono_seconds();
      mechanism_->reprice(world_, k, dirty);
      const std::vector<Money>& rewards =
          published_rewards(*mechanism_, world_);
      dirty.clear();
      // What this session was actually offered: the round's open tasks at
      // their freshly published prices (price 0 = withdrawn, not published).
      double session_sum = 0.0;
      int session_open = 0;
      for (std::size_t i = 0; i < world_.num_tasks(); ++i) {
        if (!open[i] || rewards[i] <= 0.0) continue;
        session_sum += rewards[i];
        ++session_open;
      }
      if (session_open > 0) {
        session_mean_sum += session_sum / session_open;
        ++priced_sessions;
      }
      if (timed) phase_.reprice += mono_seconds() - t0;
    }

    if (timed) t0 = mono_seconds();
    const select::SelectionInstance inst =
        make_instance(world_, mechanism_->rewards(), u, open, u.location(),
                      u.time_budget());
    const select::Selection sel = selector_->select(inst);
    MCS_ASSERT(select::is_feasible(inst, sel),
               "selector returned an infeasible tour");
    if (timed) {
      phase_.plan += mono_seconds() - t0;
      t0 = mono_seconds();
    }
    commit_session(k, u, pos, sel, rm, intra_round ? &dirty : nullptr);
    if (timed) phase_.commit += mono_seconds() - t0;
  }
}

ThreadPool* Simulator::worker_pool(int workers) {
  if (workers <= 1) return nullptr;
  if (pool_ == nullptr || pool_->size() != workers) {
    pool_ = std::make_unique<ThreadPool>(workers);
    plan_selectors_.clear();
    for (int i = 0; i < workers; ++i) {
      std::unique_ptr<select::TaskSelector> c = selector_->clone();
      if (c == nullptr) {
        // Selector predates the clone() hook: plan serially.
        plan_selectors_.clear();
        break;
      }
      plan_selectors_.push_back(std::move(c));
    }
  }
  return pool_.get();
}

Meters Simulator::cell_size() const {
  // About one user (or task) per cell along each side, capped at 64 cells:
  // small worlds would otherwise pay for thousands of empty cells every
  // round in the bucketing, the task grid and the plan sweep.
  const double points = static_cast<double>(
      std::max(world_.num_users(), world_.num_tasks()));
  const double side = std::clamp(std::ceil(std::sqrt(points)), 1.0, 64.0);
  const geo::BoundingBox& a = world_.area();
  return std::max(std::max(a.width(), a.height()) / side, 1e-3);
}

void Simulator::run_round(Round k, const std::vector<bool>& open,
                          const std::vector<std::uint32_t>& visit_order,
                          ThreadPool* pool, int workers, RoundMetrics& rm) {
  const std::size_t n_users = world_.num_users();
  const std::size_t n_tasks = world_.num_tasks();
  const model::UserStore& us = world_.user_store();
  const model::TaskStore& ts = world_.task_store();
  const bool timed = params_.phase_timers;
  double t0 = timed ? mono_seconds() : 0.0;

  // --- Pre-pass: mobility and dropout over disjoint position ranges. Each
  // user's draws come from a private counter-based substream seeded from
  // (order_seed, round, position), so the result is a pure per-user
  // function — independent of execution order and worker count. Static
  // models (static-home, commute) draw nothing and land exactly where the
  // serial reference's stream puts them; stochastic models follow a
  // different but equally valid trajectory. Mobility models must be
  // stateless under concurrent calls (all shipped ones are); dropout draws
  // are stateless hashes already.
  dropped_.assign(n_users, 0);
  const std::uint64_t round_base =
      hash_combine(mix64(params_.order_seed ^ 0x5ba9d0c4f1e2a687ULL),
                   static_cast<std::uint64_t>(k));
  parallel_ranges(pool, workers, n_users,
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t pos = lo; pos < hi; ++pos) {
                      model::User& u = world_.users()[pos];
                      Rng rng(hash_combine(round_base,
                                           static_cast<std::uint64_t>(pos)));
                      u.set_location(mobility_->start_of_round(
                          u, k, world_.area(), rng));
                      if (faults_.enabled() && faults_.drop_user(u.id(), k)) {
                        dropped_[pos] = 1;
                      }
                    }
                  });

  // --- Bucket users by the grid cell of their round-start location (CSR
  // layout; within a cell users keep ascending position, so per-cell
  // processing order is worker-count-invariant).
  const Meters cell = cell_size();
  const geo::BoundingBox& area = world_.area();
  const int nx = std::max(1, static_cast<int>(std::ceil(area.width() / cell)));
  const int ny = std::max(1, static_cast<int>(std::ceil(area.height() / cell)));
  const std::size_t n_cells =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  const auto cell_of = [&](geo::Point p) {
    const int cx = std::clamp(static_cast<int>((p.x - area.lo.x) / cell), 0,
                              nx - 1);
    const int cy = std::clamp(static_cast<int>((p.y - area.lo.y) / cell), 0,
                              ny - 1);
    return static_cast<std::uint32_t>(cy) * static_cast<std::uint32_t>(nx) +
           static_cast<std::uint32_t>(cx);
  };
  cell_of_.resize(n_users);
  cell_start_.assign(n_cells + 1, 0);
  cell_users_.resize(n_users);
  // Two-pass bucketing: per-range cell histograms, one serial exclusive
  // prefix over (cell-major, range-minor), then a scatter from per-range
  // cursors. Ranges are contiguous position runs in ascending order and,
  // within a cell, the ranges' slots follow ascending range index — so
  // every cell's users land in ascending position order at any range
  // count. Small rounds (and the serial path) run it as one range.
  // (At >= 4096 users a round has at most users / 256 workers, so
  // parallel_ranges splits into exactly bucket_workers ranges.)
  const int bucket_workers = pool != nullptr && n_users >= 4096 ? workers : 1;
  const auto n_ranges = static_cast<std::size_t>(bucket_workers);
  bucket_counts_.assign(n_ranges * n_cells, 0);
  parallel_ranges(pool, bucket_workers, n_users,
                  [&](std::size_t r, std::size_t lo, std::size_t hi) {
                    std::uint32_t* counts = bucket_counts_.data() + r * n_cells;
                    for (std::size_t pos = lo; pos < hi; ++pos) {
                      const std::uint32_t c = cell_of(us.location[pos]);
                      cell_of_[pos] = c;
                      ++counts[c];
                    }
                  });
  std::uint32_t run = 0;
  for (std::size_t c = 0; c < n_cells; ++c) {
    cell_start_[c] = run;
    for (std::size_t r = 0; r < n_ranges; ++r) {
      std::uint32_t& slot = bucket_counts_[r * n_cells + c];
      const std::uint32_t cnt = slot;
      slot = run;  // becomes range r's scatter cursor for cell c
      run += cnt;
    }
  }
  cell_start_[n_cells] = run;
  parallel_ranges(pool, bucket_workers, n_users,
                  [&](std::size_t r, std::size_t lo, std::size_t hi) {
                    std::uint32_t* cursor = bucket_counts_.data() + r * n_cells;
                    for (std::size_t pos = lo; pos < hi; ++pos) {
                      cell_users_[cursor[cell_of_[pos]]++] =
                          static_cast<std::uint32_t>(pos);
                    }
                  });

  // --- Frozen round state: prices cached per task row (one price read per
  // open task instead of one per candidate per user) and a CSR grid over
  // the open priced tasks for reach-local candidate gathering. Grid ids
  // index priced_rows_, which ascends with the task row.
  const std::vector<Money>& rewards = mechanism_->rewards();
  round_reward_.assign(n_tasks, 0.0);
  priced_rows_.clear();
  priced_points_.clear();
  for (std::size_t i = 0; i < n_tasks; ++i) {
    if (!open[i]) continue;
    const Money r = rewards[i];
    if (r <= 0.0) continue;
    round_reward_[i] = r;
    priced_rows_.push_back(static_cast<std::uint32_t>(i));
    priced_points_.push_back(ts.location[i]);
  }
  const geo::FrozenGrid task_grid(area, cell, priced_points_);
  if (timed) {
    phase_.prepass += mono_seconds() - t0;
    t0 = mono_seconds();
  }

  // --- Plan phase: contiguous cell ranges per worker. Every candidate list
  // is the serial reference's (open, not contributed, priced, ascending
  // task row) minus the tasks beyond the user's travel-distance budget —
  // filtered with the exact predicate the DP front-end prunes with, after
  // an inflated-radius grid query that can only over-collect. The grid's
  // squared-distance hit test and the sqrt-based predicate round
  // differently within an ulp, hence the slack; the exact filter then
  // decides membership.
  plans_.assign(n_users, select::Selection{});
  feasible_.assign(n_users, 1);
  const bool memo_on = params_.memo.enabled;
  const std::size_t n_memos = static_cast<std::size_t>(std::max(workers, 1));
  if (memo_on && cell_memos_.size() != n_memos) {
    cell_memos_.clear();
    for (std::size_t w = 0; w < n_memos; ++w) {
      cell_memos_.push_back(std::make_unique<select::PlanMemo>(params_.memo));
    }
  }
  const int exact_limit = selector_->exact_candidate_limit();
  const bool cloned = !plan_selectors_.empty() && pool != nullptr;

  const auto plan_cells = [&](std::size_t w, std::size_t c_lo,
                              std::size_t c_hi) {
    const select::TaskSelector& solver =
        cloned ? *plan_selectors_[w] : *selector_;
    select::PlanMemo* memo = memo_on ? cell_memos_[w].get() : nullptr;
    std::vector<std::int32_t> hits;
    select::SelectionInstance inst;
    inst.travel = world_.travel();
    for (std::size_t c = c_lo; c < c_hi; ++c) {
      const std::uint32_t u_lo = cell_start_[c];
      const std::uint32_t u_hi = cell_start_[c + 1];
      if (u_lo == u_hi) continue;
      // One memo table per cell: the table contents depend only on the
      // cell's users (processed in position order), never on which worker
      // owns the cell — hits, misses and plans are worker-count-invariant.
      if (memo != nullptr) memo->begin_cell();
      for (std::uint32_t idx = u_lo; idx < u_hi; ++idx) {
        const std::uint32_t pos = cell_users_[idx];
        if (dropped_[pos] != 0) continue;
        const model::User& u = world_.users()[pos];
        inst.start = us.location[pos];
        inst.time_budget = us.time_budget[pos];
        inst.candidates.clear();
        const Meters reach = inst.distance_budget();
        hits.clear();
        task_grid.for_each_in_radius(
            inst.start, reach * (1.0 + 1e-12) + 1e-9,
            [&hits](std::int32_t j) { hits.push_back(j); });
        std::sort(hits.begin(), hits.end());
        for (const std::int32_t j : hits) {
          const std::size_t ti = priced_rows_[static_cast<std::size_t>(j)];
          if (geo::euclidean(inst.start, ts.location[ti]) > reach) continue;
          if (u.has_contributed(ts.id[ti])) continue;
          inst.candidates.push_back(
              {ts.id[ti], ts.location[ti], round_reward_[ti]});
        }
        if (memo == nullptr) {
          plans_[pos] = solver.select(inst);
          feasible_[pos] = select::is_feasible(inst, plans_[pos]) ? 1 : 0;
          continue;
        }
        // Single-pass memo: the owner of every class precedes its hits in
        // position order within the cell, so classify/solve/publish
        // interleave without phase barriers.
        const select::PlanMemo::Ticket ticket =
            memo->classify(inst, exact_limit);
        switch (ticket.outcome) {
          case select::PlanMemo::Outcome::kOwner: {
            plans_[pos] = solver.select(inst);
            feasible_[pos] = select::is_feasible(inst, plans_[pos]) ? 1 : 0;
            memo->publish(ticket, plans_[pos], feasible_[pos] != 0);
            break;
          }
          case select::PlanMemo::Outcome::kExactHit:
            plans_[pos] = memo->cached_plan(ticket);
            feasible_[pos] = memo->cached_feasible(ticket) ? 1 : 0;
            break;
          case select::PlanMemo::Outcome::kPending: {
            const select::Selection* cached = nullptr;
            if (memo->resolve(ticket, &cached)) {
              plans_[pos] = *cached;  // the proven empty tour
              feasible_[pos] = 1;
            } else {
              plans_[pos] = solver.select(inst);
              feasible_[pos] = select::is_feasible(inst, plans_[pos]) ? 1 : 0;
            }
            break;
          }
        }
      }
    }
  };

  if (cloned) {
    // Chunks of contiguous cells with about equal user counts, several per
    // worker, claimed in turn: a user's solve cost depends on how many tasks
    // are in reach, so fixed per-worker ranges leave workers idle. Any
    // assignment yields the same campaign — plans are per-user pure
    // functions and every cell restarts its memo table.
    const std::size_t n_chunks = static_cast<std::size_t>(workers) * 8;
    std::atomic<std::size_t> next_chunk{0};
    const auto chunk_start = [&](std::size_t j) {
      if (j >= n_chunks) return n_cells;
      const std::size_t target = j * n_users / n_chunks;
      return static_cast<std::size_t>(
          std::lower_bound(cell_start_.begin(), cell_start_.end() - 1,
                           target) -
          cell_start_.begin());
    };
    for (int w = 0; w < workers; ++w) {
      pool->submit([&, w] {
        for (std::size_t j = next_chunk++; j < n_chunks; j = next_chunk++) {
          plan_cells(static_cast<std::size_t>(w), chunk_start(j),
                     chunk_start(j + 1));
        }
      });
    }
    pool->wait_idle();
  } else {
    plan_cells(0, 0, n_cells);
  }

  if (memo_on) {
    // Harvest the workers' counters into the campaign aggregate. Counts are
    // summed, so the result does not depend on which worker owned which
    // cell; rounds advances once per round.
    ++memo_stats_.rounds;
    for (const auto& m : cell_memos_) {
      const select::PlanMemoStats& st = m->stats();
      memo_stats_.exact_hits += st.exact_hits;
      memo_stats_.fixup_hits += st.fixup_hits;
      memo_stats_.misses += st.misses;
      memo_stats_.fallbacks += st.fallbacks;
      m->reset_stats();
    }
  }
  if (timed) {
    phase_.plan += mono_seconds() - t0;
    t0 = mono_seconds();
  }

  // --- Commit: the buffered walk/merge/apply pipeline (sim/commit.h).
  // round_reward_ holds the frozen per-row prices every plan of this round
  // was computed against.
  commit_sessions(k, visit_order, dropped_, plans_, feasible_, round_reward_,
                  pool, workers, rm);
  if (timed) phase_.commit += mono_seconds() - t0;
}

const RoundMetrics& Simulator::step() {
  MCS_CHECK(next_round_ <= params_.max_rounds, "campaign already over");
  const Round k = next_round_;
  const bool intra_round = mechanism_->updates_within_round();
  const bool timed = params_.phase_timers;
  // At most one worker per kUsersPerWorker users: a smaller round cannot
  // amortize the hand-off of its five fanned-out phases.
  constexpr std::size_t kUsersPerWorker = 256;
  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolve_threads(params_.plan_threads)),
      std::max<std::size_t>(1, world_.num_users() / kUsersPerWorker)));
  ThreadPool* pool = worker_pool(workers);

  // (1)+(2) Platform updates and publishes rewards for round k. With
  // workers, a due neighbor-cache rebuild fans its count pass over the
  // round's pool (a no-op unless a rebuild is due, and integer-exact either
  // way) and the mechanism's sweep shards over the same workers — both are
  // reprice work, so both sit inside the reprice timer.
  double t0 = timed ? mono_seconds() : 0.0;
  if (pool != nullptr) world_.warm_neighbor_cache(*pool, workers);
  mechanism_->set_reprice_workers(pool, workers);
  mechanism_->update_rewards(world_, k);
  const std::vector<Money>& rewards = published_rewards(*mechanism_, world_);
  if (timed) phase_.reprice += mono_seconds() - t0;

  // Which tasks are open when the round begins. For round-granularity
  // mechanisms, selections are made against this snapshot and every
  // delivery within the round is honored; intra-round mechanisms reprice
  // before each user session, but a task that completes mid-round likewise
  // stays deliverable for the users of this round. Glitched tasks leave the
  // set before anything is published.
  std::vector<bool> open = open_tasks(world_, rewards, k);

  RoundMetrics rm;
  rm.round = k;
  rm.withdrawn_tasks = apply_withdrawals(open, k);
  rm.user_profit.assign(world_.num_users(), 0.0);
  // Round-start snapshot of the published prices. For round-granularity
  // mechanisms these are exactly the prices every user of the round faces;
  // intra-round mechanisms reprice before each session, so their published
  // mean is re-recorded from the session prices below.
  for (std::size_t i = 0; i < world_.num_tasks(); ++i) {
    if (!open[i]) continue;
    rm.mean_open_reward += rewards[i];
    ++rm.open_tasks;
  }
  if (rm.open_tasks > 0) rm.mean_open_reward /= rm.open_tasks;

  // Intra-round price recording: mean published price per user session,
  // averaged over the sessions that had at least one priced task.
  double session_mean_sum = 0.0;
  int priced_sessions = 0;

  const long long before = world_.total_received();
  const Money paid_before = budget_.spent();

  // Users take their sessions in a shuffled order each round. The order
  // holds positions into world().users() (iota over 0..U-1 and the
  // Fisher–Yates swaps are value-independent, so for dense ids this is the
  // same permutation the id-typed order produced).
  std::vector<std::uint32_t> visit_order(world_.num_users());
  std::iota(visit_order.begin(), visit_order.end(), std::uint32_t{0});
  Rng order_rng(params_.order_seed +
                0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k));
  order_rng.shuffle(visit_order);

  // (3)+(4) Every user selects and performs a task set. The serial loop
  // offers every open task; the round loop gathers the tasks within each
  // user's reach from a spatial index.
  if (!intra_round && !params_.legacy_commit) {
    run_round(k, open, visit_order, pool, workers, rm);
  } else {
    run_sessions_serial(k, open, visit_order, rm, session_mean_sum,
                        priced_sessions);
  }

  // For intra-round mechanisms the round-start snapshot is not what users
  // were offered; replace it with the mean over the session prices.
  if (intra_round && priced_sessions > 0) {
    rm.mean_open_reward = session_mean_sum / priced_sessions;
  }

  // (5) Round bookkeeping; the next update_rewards() call recomputes
  // demands from this new state.
  rm.new_measurements = static_cast<int>(world_.total_received() - before);
  rm.total_measurements = world_.total_received();
  rm.coverage_pct = coverage_pct(world_);
  rm.completeness_pct = completeness_pct(world_);
  rm.payout = budget_.spent() - paid_before;
  rm.mean_user_profit = mean_of(rm.user_profit);

  history_.push_back(std::move(rm));
  ++next_round_;
  return history_.back();
}

CampaignMetrics Simulator::run() {
  while (next_round_ <= params_.max_rounds && !all_tasks_closed()) {
    step();
  }
  return summary();
}

CampaignMetrics Simulator::summary() const {
  CampaignMetrics m = summarize(world_, budget_.spent(), budget_.overdraft());
  // Fault accounting lives in the round history (the world only ever sees
  // accepted measurements); fold it into the campaign totals here.
  for (const RoundMetrics& rm : history_) {
    m.dropped_user_rounds += rm.dropped_users;
    m.abandoned_tours += rm.abandoned_tours;
    m.lost_measurements += rm.lost_measurements;
    m.corrupted_measurements += rm.corrupted_measurements;
    m.withdrawn_task_rounds += rm.withdrawn_tasks;
    m.wasted_travel += rm.wasted_travel;
  }
  const select::PlanMemoStats& memo = memo_stats_;
  m.plan_exact_hits = memo.exact_hits;
  m.plan_fixup_hits = memo.fixup_hits;
  m.plan_misses = memo.misses;
  m.plan_fallbacks = memo.fallbacks;
  m.phase_prepass_s = phase_.prepass;
  m.phase_plan_s = phase_.plan;
  m.phase_reprice_s = phase_.reprice;
  m.phase_commit_s = phase_.commit;
  return m;
}

CampaignCheckpoint Simulator::checkpoint() const {
  CampaignCheckpoint c;
  c.params = params_;
  c.next_round = next_round_;
  c.world = world_to_json(world_);
  c.mobility_rng = mobility_rng_.state();
  c.mechanism = mechanism_->name();
  c.mechanism_state = mechanism_->state_to_json();
  c.selector = selector_->name();
  c.mobility = mobility_->name();
  c.budget_spent = budget_.spent_raw();
  c.budget_comp = budget_.compensation();
  c.history = history_;
  c.events = events_.events();
  c.memo_stats = memo_stats_;
  c.phase_prepass_s = phase_.prepass;
  c.phase_plan_s = phase_.plan;
  c.phase_reprice_s = phase_.reprice;
  c.phase_commit_s = phase_.commit;
  return c;
}

Simulator Simulator::resume(
    const CampaignCheckpoint& ckpt,
    std::unique_ptr<incentive::IncentiveMechanism> mechanism,
    std::unique_ptr<select::TaskSelector> selector,
    std::unique_ptr<MobilityModel> mobility) {
  MCS_CHECK(ckpt.version == kCheckpointFormatVersion,
            "unsupported checkpoint format version");
  MCS_CHECK(mechanism != nullptr, "resume needs a mechanism");
  MCS_CHECK(selector != nullptr, "resume needs a selector");
  MCS_CHECK(ckpt.mechanism == mechanism->name(),
            "checkpoint was written by mechanism '" + ckpt.mechanism +
                "', not '" + mechanism->name() + "'");
  MCS_CHECK(ckpt.selector.empty() || ckpt.selector == selector->name(),
            "checkpoint was written with selector '" + ckpt.selector +
                "', not '" + selector->name() + "'");
  // Overlay the serialized pricing state before the first update: a
  // resumed round-granularity mechanism starts the next round exactly
  // where the original's last publish left it.
  mechanism->restore_state(ckpt.mechanism_state);

  Simulator s(world_from_json(ckpt.world), std::move(mechanism),
              std::move(selector), ckpt.params, std::move(mobility));
  MCS_CHECK(ckpt.mobility.empty() || ckpt.mobility == s.mobility_->name(),
            "checkpoint was written with mobility '" + ckpt.mobility +
                "', not '" + std::string(s.mobility_->name()) + "'");
  MCS_CHECK(ckpt.next_round >= 1 &&
                ckpt.next_round <= ckpt.params.max_rounds + 1,
            "checkpoint round cursor out of range");
  MCS_CHECK(ckpt.history.size() ==
                static_cast<std::size_t>(ckpt.next_round - 1),
            "checkpoint history length does not match its round cursor");
  s.mobility_rng_.restore_state(ckpt.mobility_rng);
  s.budget_.restore(ckpt.budget_spent, ckpt.budget_comp);
  s.events_.restore(ckpt.events);
  s.history_ = ckpt.history;
  s.next_round_ = ckpt.next_round;
  s.memo_stats_ = ckpt.memo_stats;
  s.phase_.prepass = ckpt.phase_prepass_s;
  s.phase_.plan = ckpt.phase_plan_s;
  s.phase_.reprice = ckpt.phase_reprice_s;
  s.phase_.commit = ckpt.phase_commit_s;
  return s;
}

}  // namespace mcs::sim
