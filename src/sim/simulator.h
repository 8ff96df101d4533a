// The round-based crowdsensing campaign of Fig. 1.
//
// Each sensing round k:
//   (1) the platform updates rewards from the previous round's demands,
//   (2) tasks (with rewards) are published,
//   (3) every user solves its task-selection problem (Eq. 1),
//   (4) users walk their tours and upload measurements, earning the round's
//       published reward per accepted measurement and paying travel cost,
//   (5) the platform recomputes task demands for the next round.
// Completed and expired tasks are withdrawn at round boundaries. The loop
// runs until `max_rounds` or until no open task remains.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "incentive/budget.h"
#include "incentive/mechanism.h"
#include "model/world.h"
#include "select/plan_memo.h"
#include "select/selector.h"
#include "sim/commit.h"
#include "sim/event_log.h"
#include "sim/faults.h"
#include "sim/metrics.h"
#include "sim/mobility.h"

namespace mcs::sim {

struct CampaignCheckpoint;  // sim/checkpoint.h

struct SimulatorParams {
  Round max_rounds = 15;
  Money platform_budget = 1000.0;  // B
  bool record_events = false;      // keep a full per-measurement trace
  // Users act in a freshly shuffled order each round (only observable with
  // mechanisms that reprice within a round); the shuffle derives from this
  // seed, keeping campaigns bit-reproducible.
  std::uint64_t order_seed = 1;
  // Fault injection (sim/faults.h). The default plan injects nothing and
  // leaves the campaign bit-identical to a fault-free run; fault draws come
  // from their own hash-based stream (mixed from faults.seed and
  // order_seed), so they never perturb mobility or ordering draws.
  FaultPlan faults;
  // Worker threads for the round: 1 = serial (default); 0 = one worker per
  // hardware thread; n = up to n. A round gets at most one worker per 256
  // users (smaller rounds run serially). Round-granularity mechanisms
  // (updates_within_round() == false) run the round loop, whose pre-pass,
  // user bucketing, plan, commit, neighbor-cache warm and reprice sweep all
  // share one pool of this size (the phases never overlap). Campaigns are
  // bit-identical at any value, pinned by the round-loop suite under TSan.
  // Intra-round mechanisms plan and commit serially; only their round-start
  // reprice sweep uses the workers. Selectors without clone() plan serially
  // while the other phases still fan out.
  int plan_threads = 1;
  // Accepted and ignored. Earlier versions chose between round loops and
  // sized a separate reprice pool with these; both fields (and their config
  // keys) stay parsed so existing configs and callers keep working.
  int shards = 0;
  int reprice_threads = 1;
  // Record cumulative wall-clock seconds of the round phases (pre-pass /
  // plan / reprice / commit) into CampaignMetrics. Off by default: the
  // timer reads are cheap but nonzero, and the fields are diagnostics.
  bool phase_timers = false;
  // Reference oracle: run round-granularity mechanisms through the serial
  // session loop instead of the round loop. There every open task is a
  // candidate (no reach filter), users plan and commit one at a time in
  // visit order, mobility draws from the serial stream and the plan memo is
  // not consulted. On deterministic mobility (static-home, commute) it is
  // bit-identical to the round loop; it exists so tests and
  // BM_CampaignCommit can compare against it. Intra-round mechanisms always
  // take this loop.
  bool legacy_commit = false;
  // Cross-user plan memoization for the planning phase (select/plan_memo.h):
  // users of one round whose selection instances are provably equivalent
  // share one solve. Off by default; when memo.enabled the campaign stays
  // bit-identical to the memo-free run (pinned by the round-loop suite) at
  // any plan_threads value: tables are per spatial cell and
  // filled in user-position order, whichever worker owns the cell.
  // Intra-round mechanisms reprice between sessions, so the memo does not
  // apply to them, nor to the legacy_commit reference.
  select::PlanMemoParams memo;
};

class Simulator {
 public:
  /// Owns the world, the mechanism and the selector for the campaign.
  /// `mobility` defaults to the paper's static-home model when null.
  Simulator(model::World world,
            std::unique_ptr<incentive::IncentiveMechanism> mechanism,
            std::unique_ptr<select::TaskSelector> selector,
            SimulatorParams params,
            std::unique_ptr<MobilityModel> mobility = nullptr);

  /// Execute one sensing round; returns its metrics. Rounds are numbered
  /// from 1. Calling past max_rounds is an error.
  const RoundMetrics& step();

  /// Run rounds until max_rounds (or until every task is closed); returns
  /// the end-of-campaign summary.
  CampaignMetrics run();

  /// True when every task is either completed or past its deadline at the
  /// *next* round, i.e. there is nothing left to sense.
  bool all_tasks_closed() const;

  Round current_round() const { return next_round_ - 1; }
  const model::World& world() const { return world_; }
  const incentive::IncentiveMechanism& mechanism() const { return *mechanism_; }
  const select::TaskSelector& selector() const { return *selector_; }
  const MobilityModel& mobility() const { return *mobility_; }
  const FaultInjector& faults() const { return faults_; }
  const std::vector<RoundMetrics>& history() const { return history_; }
  const incentive::BudgetTracker& budget() const { return budget_; }
  const EventLog& events() const { return events_; }
  /// Cumulative plan-memo accounting (all zero unless params.memo.enabled).
  const select::PlanMemoStats& plan_memo_stats() const { return memo_stats_; }

  /// Summary of the current state (usable mid-campaign too).
  CampaignMetrics summary() const;

  /// Snapshot the complete resumable campaign state (sim/checkpoint.h).
  /// Only meaningful at a round boundary — between step() calls — which is
  /// the only time this class can be observed from outside anyway. The
  /// returned checkpoint's `scenario` is left null; callers that generated
  /// the world from a ScenarioParams attach it for provenance.
  CampaignCheckpoint checkpoint() const;

  /// Rebuild a simulator from a checkpoint so that every subsequent
  /// step()/run() is bit-identical to the uninterrupted campaign. The
  /// caller supplies a mechanism/selector/mobility constructed with the
  /// same parameters as the original (the experiment config owns those);
  /// their names are validated against the checkpoint, then the
  /// mechanism's serialized state is overlaid via restore_state(). Throws
  /// mcs::Error on version, name, round-cursor or history mismatches.
  static Simulator resume(const CampaignCheckpoint& ckpt,
                          std::unique_ptr<incentive::IncentiveMechanism> mechanism,
                          std::unique_ptr<select::TaskSelector> selector,
                          std::unique_ptr<MobilityModel> mobility = nullptr);

  /// The mobility draw stream's full state (the simulator's only sequential
  /// RNG; fault draws are stateless hashes and the per-round visit shuffle
  /// re-derives its generator from order_seed and the round number).
  Rng::State mobility_rng_state() const { return mobility_rng_.state(); }

  /// Publish rewards for the upcoming round exactly as step() would and
  /// return the selection instance each user (indexed by id) would face —
  /// without performing the round. Used for paired selector comparisons
  /// (Fig. 5): different solvers can be evaluated on identical instances.
  /// For intra-round mechanisms this reflects the round-start prices.
  std::vector<select::SelectionInstance> peek_instances();

 private:
  /// Glitch fault: clears open-set entries withdrawn from round k; returns
  /// how many were withdrawn. No-op without faults.
  int apply_withdrawals(std::vector<bool>& open, Round k) const;

  /// Serial session loop: mobility, dropout, plan and commit, one user at a
  /// time in visit order. Intra-round mechanisms also reprice before every
  /// session (dirty set = tasks the previous session touched) and record
  /// the session prices. Serves intra-round mechanisms and the
  /// legacy_commit reference.
  void run_sessions_serial(Round k, const std::vector<bool>& open,
                           const std::vector<std::uint32_t>& visit_order,
                           RoundMetrics& rm, double& session_mean_sum,
                           int& priced_sessions);

  /// The round loop for round-granularity mechanisms: a parallel pre-pass
  /// (mobility from per-user substreams, dropout), users bucketed by spatial
  /// cell, per-cell planning against a frozen index of the open priced
  /// tasks, then the buffered commit. Every phase fans out over `pool`
  /// (null = serial); the campaign is bit-identical at any worker count.
  void run_round(Round k, const std::vector<bool>& open,
                 const std::vector<std::uint32_t>& visit_order,
                 ThreadPool* pool, int workers, RoundMetrics& rm);

  /// Side length of the round loop's spatial cells: the longest area side
  /// over min(64, ceil(sqrt(max(users, tasks)))), so the partition — and
  /// with it every per-cell memo table — is a pure function of the world,
  /// never of the worker count.
  Meters cell_size() const;

  /// Walk user `pos`'s planned tour: abandonment/upload fault draws,
  /// deliveries, payments, event records and the user's profit row. When
  /// `dirty` is non-null, the positions of tasks that gained a measurement
  /// are appended (feeds the next session's incremental reprice).
  void commit_session(Round k, model::User& u, std::size_t pos,
                      const select::Selection& sel, RoundMetrics& rm,
                      std::vector<std::size_t>* dirty);

  /// Buffered commit (sim/commit.h): walk every surviving user's tour into
  /// per-segment effect buffers (fanned over `pool` when present), replay
  /// payments/events/wasted-travel in global visit order, then apply
  /// deliveries grouped by task row. `reward_row` is the frozen round price
  /// per task row (plans only reference rows it covers). Bit-identical to
  /// committing one user at a time via commit_session at any worker count.
  void commit_sessions(Round k, const std::vector<std::uint32_t>& visit_order,
                       const std::vector<char>& dropped,
                       const std::vector<select::Selection>& plans,
                       const std::vector<char>& feasible,
                       const std::vector<Money>& reward_row, ThreadPool* pool,
                       int workers, RoundMetrics& rm);

  /// The round's worker pool for `workers` (created on first use and kept
  /// across rounds; null when workers <= 1), plus one selector clone per
  /// worker when the selector supports clone() — selectors' scratch arenas
  /// are not reentrant (DESIGN.md §7).
  ThreadPool* worker_pool(int workers);

  model::World world_;
  std::unique_ptr<incentive::IncentiveMechanism> mechanism_;
  std::unique_ptr<select::TaskSelector> selector_;
  SimulatorParams params_;
  std::unique_ptr<MobilityModel> mobility_;
  Rng mobility_rng_;
  FaultInjector faults_;
  incentive::BudgetTracker budget_;
  EventLog events_;
  Round next_round_ = 1;
  std::vector<RoundMetrics> history_;
  // Round workers (params_.plan_threads > 1 after resolution), created on
  // first use and reused across rounds; plan_selectors_ stays empty when
  // the selector cannot clone().
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<select::TaskSelector>> plan_selectors_;
  // Campaign-cumulative plan-memo stats, harvested from the per-worker cell
  // tables each round.
  select::PlanMemoStats memo_stats_;
  // Round-loop state: one PlanMemo per worker (tables are per-cell) plus
  // persistent scratch so the steady state stays allocation-free.
  std::vector<std::unique_ptr<select::PlanMemo>> cell_memos_;
  std::vector<char> dropped_;             // per user position, per round
  std::vector<std::uint32_t> cell_of_;    // cell id per user position
  std::vector<std::uint32_t> cell_start_; // CSR offsets, n_cells + 1
  std::vector<std::uint32_t> cell_users_; // positions grouped by cell
  std::vector<Money> round_reward_;       // round-start price per task row
  std::vector<std::uint32_t> priced_rows_;  // open priced task rows
  std::vector<geo::Point> priced_points_;   // their locations, same order
  std::vector<select::Selection> plans_;
  std::vector<char> feasible_;
  // Per-worker cell histograms for the two-pass parallel bucketing
  // (workers × n_cells, count pass then scatter cursors).
  std::vector<std::uint32_t> bucket_counts_;
  // Buffered-commit scratch (sim/commit.h).
  CommitScratch commit_scratch_;
  // Cumulative phase timers (params_.phase_timers; see CampaignMetrics).
  struct PhaseSeconds {
    double prepass = 0.0;
    double plan = 0.0;
    double reprice = 0.0;
    double commit = 0.0;
  };
  PhaseSeconds phase_;
};

}  // namespace mcs::sim
