// Benchmark driver: runs one workload in this process and prints every
// metric by name with its unit and sample count, then one JSON result line.
//
//   perfbench_driver --workload <paper-sweep|metro|plaza|durable>
//                    --seed <n> --seconds <s> --trace <0|1> --dir <scratch>
//
// It links the mcs_* libraries and calls only their public functions. All
// timings are wall clock (steady_clock). --trace 0 measures the end-to-end
// metrics with every diagnostic off; --trace 1 is the separate traced run
// that yields the per-layer metrics. Spans are taken here, around the calls
// the driver makes, never inside the program. See README.md for the
// workloads, the metric map and the baseline.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exp/figures.h"
#include "exp/runner.h"
#include "geo/spatial_grid.h"
#include "incentive/mechanism.h"
#include "metrics.h"
#include "model/world.h"
#include "select/selector.h"
#include "sim/checkpoint.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "sim/serialize.h"
#include "sim/simulator.h"

namespace {

using namespace mcs;
using perfbench::CheckLog;
using perfbench::Ratio;
using perfbench::Samples;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// ---------------------------------------------------------------------------
// Machine fingerprint: nproc, CPU model and cache sizes, read with cpuid so
// the driver touches no file outside its checkout.

std::string machine_fingerprint() {
  std::string model = "unknown";
  std::string caches;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(0x80000000u, &a, &b, &c, &d) && a >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &a, &b, &c, &d);
      std::memcpy(brand + 16 * leaf + 0, &a, 4);
      std::memcpy(brand + 16 * leaf + 4, &b, 4);
      std::memcpy(brand + 16 * leaf + 8, &c, 4);
      std::memcpy(brand + 16 * leaf + 12, &d, 4);
    }
    model = brand;
    while (!model.empty() && model.front() == ' ') model.erase(0, 1);
  }
  // Deterministic cache parameters (leaf 4; Intel and recent AMD).
  for (unsigned i = 0; i < 8; ++i) {
    __cpuid_count(4, i, a, b, c, d);
    const unsigned type = a & 0x1f;
    if (type == 0) break;
    const unsigned level = (a >> 5) & 0x7;
    const unsigned long long ways = ((b >> 22) & 0x3ff) + 1;
    const unsigned long long parts = ((b >> 12) & 0x3ff) + 1;
    const unsigned long long line = (b & 0xfff) + 1;
    const unsigned long long sets = static_cast<unsigned long long>(c) + 1;
    const unsigned long long kib = ways * parts * line * sets / 1024;
    const char* t = type == 1 ? "d" : type == 2 ? "i" : "";
    caches += " L" + std::to_string(level) + t + "=" + std::to_string(kib) +
              "K";
  }
#endif
  return "nproc=" + std::to_string(nproc()) + " cpu=\"" + model +
         "\" caches=" + (caches.empty() ? std::string(" unknown") : caches);
}

// ---------------------------------------------------------------------------
// Result reporting.

struct Metric {
  double value;
  std::string unit;
  std::size_t samples;
  std::string note;
};

class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& note = "") {
    order_.push_back(name);
    metrics_[name] = {value, unit, samples, note};
  }
  void put(const std::string& name, const Samples& s, const std::string& unit,
           const std::string& note = "median") {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " [q1 %.4g, q3 %.4g, max %.4g]",
                  s.quantile(0.25), s.quantile(0.75), s.max());
    put(name, s.median(), unit, s.count(), note + buf);
  }
  void put(const std::string& name, const Ratio& r, const std::string& unit,
           const std::string& base) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.6g / %.6g %s", r.num, r.den,
                  base.c_str());
    put(name, r.value(), unit, 1, buf);
  }

  bool all_finite(std::string* bad) const {
    for (const auto& n : order_) {
      if (!std::isfinite(metrics_.at(n).value)) {
        *bad = n;
        return false;
      }
    }
    return true;
  }

  void print(const CheckLog& log) const {
    std::printf("%-34s %16s %-7s %8s  %s\n", "metric", "value", "unit", "n",
                "summary");
    for (const auto& n : order_) {
      const Metric& m = metrics_.at(n);
      std::printf("%-34s %16.6g %-7s %8zu  %s\n", n.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.c_str());
    }
    const Ratio ff = log.failed_frac();
    std::printf("%-34s %16.6g %-7s %8lld  %lld failed of %lld attempted\n",
                "failed_frac", ff.den > 0 ? ff.value() : 0.0, "ratio",
                log.attempted(), log.failed(), log.attempted());
    for (const auto& f : log.failures()) {
      std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                log.failed() == 0 ? "true" : "false", log.attempted(),
                log.failed());
    bool first = true;
    for (const auto& n : order_) {
      const Metric& m = metrics_.at(n);
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", n.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Workload configuration. Every key of exp::experiment_from_config is set
// explicitly; the MCS_* environment defaults are cleared before parsing, so
// no stray variable can change the measured program.

const char* const kEngineEnv[] = {"MCS_THREADS", "MCS_PLAN_THREADS",
                                  "MCS_REPRICE_THREADS", "MCS_SHARDS",
                                  "MCS_PLAN_MEMO"};

struct Engine {
  int threads = 1;          // repetition fan-out
  int campaign_workers = 1; // plan / reprice / shard workers per campaign
  bool sharded = false;
  bool phase_timers = false;
};

Config base_keys(std::uint64_t seed) {
  Config c;
  const std::map<std::string, std::string> keys = {
      {"area", "3000"}, {"tasks", "20"}, {"users", "100"},
      {"required", "20"}, {"required-spread", "0"},
      {"deadline-min", "5"}, {"deadline-max", "15"}, {"speed", "2"},
      {"cost-per-meter", "0.002"}, {"user-budget-min", "300"},
      {"user-budget-max", "600"}, {"radius", "500"}, {"home-sites", "0"},
      {"budget-quantum", "0"}, {"budget", "1000"}, {"lambda", "0.5"},
      {"levels", "5"}, {"steered-rc", "0.5"}, {"steered-mu", "10"},
      {"steered-delta", "0.2"}, {"mechanism", "on-demand"},
      {"selector", "dp"}, {"dp-cap", "14"}, {"mobility", "static-home"},
      {"drift-sigma", "300"}, {"rounds", "15"}, {"reps", "1"},
      {"dropout", "0"}, {"abandon", "0"}, {"loss", "0"}, {"corrupt", "0"},
      {"corrupt-noise", "0.1"}, {"withdraw", "0"}, {"fault-seed", "0"},
      {"max-attempts", "2"}, {"checkpoint-every", "0"},
      {"checkpoint-dir", ""}};
  for (const auto& [k, v] : keys) c.set(k, v);
  c.set("seed", std::to_string(seed));
  return c;
}

exp::ExperimentConfig make_config(Config c, const Engine& e) {
  const int w = e.campaign_workers;
  c.set("threads", std::to_string(e.threads));
  c.set("plan-threads", std::to_string(w));
  c.set("reprice-threads", std::to_string(w));
  c.set("shards", e.sharded ? std::to_string(w) : "0");
  c.set("plan-memo", "true");
  c.set("phase-timers", e.phase_timers ? "true" : "false");
  exp::ExperimentConfig cfg = exp::experiment_from_config(c);
  const auto stray = c.unconsumed_keys();
  MCS_CHECK(stray.empty(), "unknown engine key: " +
                               (stray.empty() ? std::string() : stray[0]));
  // Options without a config key, pinned at their defaults.
  cfg.legacy_commit = false;
  cfg.repetition_probe = nullptr;
  cfg.retry_backoff = nullptr;
  return cfg;
}

// The user-count axis and mechanisms of Figs. 6–9.
const int kSweepUsers[] = {40, 60, 80, 100, 120, 140};
const char* const kSweepMechanisms[] = {"on-demand", "fixed", "steered"};
constexpr int kSweepReps = 100;  // the paper averages 100 scenarios

// The end-to-end (untraced) runs time one worker: one repetition thread
// for the sweep, one shard / plan / reprice worker for a single campaign.
// On a few cores of a shared host, n busy threads wait on whichever core
// the host takes away, so wall times at n workers measure the host's
// scheduler more than the program. The traced run measures the n-worker
// engine and its speedup over one worker.
constexpr int kTimedWorkers = 1;
// Repetitions per cell of the end-to-end sweep: a fifth of the paper's,
// so every cell is timed several times within one run.
constexpr int kTimedSweepReps = 20;
// Resumes of each durability campaign of the sweep (each takes a few ms).
constexpr std::size_t kSweepResumes = 3;

// Large single-campaign shapes. Tasks and area scale with the population at
// the density of the ROADMAP's large-world runs (100k users on a 30 km side,
// one task per ten users); B = 60 * T holds the Eq. 9 base reward at 1.0.
struct Shape {
  int users;
  int rounds;
  const char* selector;
  int home_sites;        // 0 = uniform homes
  double budget_quantum; // seconds, 0 = continuous budgets
};

Config shape_keys(const Shape& s, int users, std::uint64_t seed) {
  Config c = base_keys(seed);
  const int tasks = users / 10;
  c.set("users", std::to_string(users));
  c.set("tasks", std::to_string(tasks));
  char area[32];
  std::snprintf(area, sizeof(area), "%.3f",
                30000.0 * std::sqrt(users / 100000.0));
  c.set("area", area);
  c.set("budget", std::to_string(60.0 * tasks));
  c.set("rounds", std::to_string(s.rounds));
  c.set("selector", s.selector);
  c.set("home-sites", std::to_string(s.home_sites));
  char q[32];
  std::snprintf(q, sizeof(q), "%g", s.budget_quantum);
  c.set("budget-quantum", q);
  return c;
}

// ---------------------------------------------------------------------------
// Campaign construction, mirroring exp::run_repetition's simulator build so
// the driver can time every step() (run_repetition only returns the
// result). The traced run checks the two agree bit for bit.

sim::SimulatorParams simulator_params(const exp::ExperimentConfig& cfg,
                                      std::uint64_t seed) {
  sim::SimulatorParams sp;
  sp.max_rounds = cfg.max_rounds;
  sp.platform_budget = cfg.mech_params.platform_budget;
  sp.record_events = false;
  sp.order_seed = seed ^ 0x5bd1e995;
  sp.faults = cfg.faults;
  sp.plan_threads = cfg.plan_threads;
  sp.reprice_threads = cfg.reprice_threads;
  sp.shards = cfg.shards;
  sp.phase_timers = cfg.phase_timers;
  sp.legacy_commit = cfg.legacy_commit;
  sp.memo.enabled = cfg.plan_memo;
  return sp;
}

struct Built {
  std::unique_ptr<sim::Simulator> sim;
  // Filled only on request: the freshly generated world (neighbor cache
  // never built) and spare mechanisms constructed exactly like the
  // simulator's own (same kind, parameters and rng state).
  std::optional<model::World> pristine;
  std::vector<std::unique_ptr<incentive::IncentiveMechanism>> spare_mechs;
};

Built build_campaign(const exp::ExperimentConfig& cfg, std::uint64_t seed,
                     bool keep_pristine = false, int spare_mechs = 0) {
  Built b;
  Rng rng(seed);
  model::World world = sim::generate_world(cfg.scenario, rng);
  Rng mech_rng = rng.split(0xfeed);
  for (int i = 0; i < spare_mechs; ++i) {
    Rng r = mech_rng;
    b.spare_mechs.push_back(incentive::make_mechanism(
        cfg.mechanism, world, cfg.mech_params, r));
  }
  auto mechanism = incentive::make_mechanism(cfg.mechanism, world,
                                             cfg.mech_params, mech_rng);
  if (keep_pristine) b.pristine.emplace(world);
  b.sim = std::make_unique<sim::Simulator>(
      std::move(world), std::move(mechanism),
      select::make_selector(cfg.selector, cfg.dp_candidate_cap),
      simulator_params(cfg, seed),
      sim::make_mobility(cfg.mobility, cfg.drift_sigma));
  return b;
}

struct CampaignRun {
  double campaign_s = 0.0;  // sum of step() (+ checkpoint writes if any)
  Samples step_s;
  // The latency of each round as a platform publishes it: step(), plus
  // checkpoint() + CheckpointWriter::write() of that round's generation
  // when the campaign is durable (the next prices cannot go out before the
  // state is on disk). Equal to step_s otherwise.
  Samples round_s;
  long long user_rounds = 0;
  sim::CampaignMetrics metrics;
  Samples checkpoint_s;     // per generation: snapshot + encode
  Samples resume_s;
};

// Optional per-round observers of the traced run; their own time is never
// part of campaign_s.
struct Hooks {
  std::function<void(const sim::Simulator&, Round next)> before_step;
  std::function<void(const sim::Simulator&, Round done)> after_step;
};

// Checkpoint sub-spans, filled by the traced run only.
struct CkptSpans {
  Samples snapshot_s, encode_s, write_s, bytes, decode_s;
};

struct RunOpts {
  // Checkpoint directory: non-empty writes a generation after every round
  // but the last, then resumes from the newest one `resumes` times.
  std::string ckpt_dir;
  int resumes = 1;
  CkptSpans* spans = nullptr;
  bool keep_pristine = false;
  int spare_mechs = 0;
  std::function<void(Built&, Hooks&)> on_built;  // attach traced probes
};

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

// One durable generation of `s`. Returns the seconds of producing it in
// memory (snapshot + encode, the checkpoint_s sample) and of the program's
// own write path (snapshot + CheckpointWriter::write, which encodes again
// and then waits for the disk). The fsync waits are storage latency that
// swings by tens of percent between runs on shared disks, so they stay out
// of checkpoint_s; durable's campaign_s and ckpt.write_s include them.
struct Generation {
  double produce_s = 0.0;
  double durable_s = 0.0;
};

Generation write_generation(const sim::Simulator& s, const Json& scenario,
                            sim::CheckpointWriter& writer, CkptSpans* spans,
                            CheckLog& log, const std::string& label) {
  double t0 = now_s();
  sim::CampaignCheckpoint ckpt = s.checkpoint();
  const double snap = now_s() - t0;
  ckpt.scenario = scenario;
  t0 = now_s();
  const std::string bytes = sim::encode_checkpoint(ckpt);
  const double encode = now_s() - t0;
  if (spans != nullptr) {
    spans->snapshot_s.add(snap);
    spans->encode_s.add(encode);
    spans->bytes.add(static_cast<double>(bytes.size()));
    t0 = now_s();
    const sim::CampaignCheckpoint back = sim::decode_checkpoint(bytes);
    spans->decode_s.add(now_s() - t0);
    log.expect(back.next_round == ckpt.next_round,
               label + ": decoded checkpoint round mismatch");
  }
  t0 = now_s();
  log.expect(writer.write(ckpt), label + ": checkpoint write failed");
  const double write = now_s() - t0;
  if (spans != nullptr) spans->write_s.add(write);
  return {snap + encode, snap + write};
}

// Resume from the newest generation in `dir` once per mechanism in `mechs`
// (each built like the original), timing each; the first resumed campaign
// is finished and must give the straight run's result.
Samples resume_and_check(
    const exp::ExperimentConfig& cfg,
    std::vector<std::unique_ptr<incentive::IncentiveMechanism>> mechs,
    const std::string& dir, const sim::CampaignMetrics& expect, CheckLog& log,
    const std::string& label) {
  Samples resume_s;
  for (std::size_t i = 0; i < mechs.size(); ++i) {
    auto selector = select::make_selector(cfg.selector, cfg.dp_candidate_cap);
    auto mobility = sim::make_mobility(cfg.mobility, cfg.drift_sigma);
    const double t0 = now_s();
    const sim::LoadedCheckpoint loaded = sim::load_latest_checkpoint(dir);
    sim::Simulator resumed = sim::Simulator::resume(
        loaded.checkpoint, std::move(mechs[i]), std::move(selector),
        std::move(mobility));
    resume_s.add(now_s() - t0);
    if (i == 0) {
      perfbench::check_same_campaign(log, label + " resumed", resumed.run(),
                                     expect);
    }
  }
  std::filesystem::remove_all(dir);
  return resume_s;
}

CampaignRun run_campaign(const exp::ExperimentConfig& cfg, std::uint64_t seed,
                         CheckLog& log, const std::string& label,
                         const RunOpts& opts = {}) {
  CampaignRun out;
  const bool durable = !opts.ckpt_dir.empty();
  Built b = build_campaign(cfg, seed, opts.keep_pristine,
                           opts.spare_mechs + (durable ? opts.resumes : 0));
  Hooks hooks;
  if (opts.on_built) opts.on_built(b, hooks);
  sim::Simulator& s = *b.sim;

  std::optional<sim::CheckpointWriter> writer;
  const Json scenario = sim::scenario_to_json(cfg.scenario);
  if (durable) {
    reset_dir(opts.ckpt_dir);
    writer.emplace(opts.ckpt_dir);
  }
  while (s.current_round() < cfg.max_rounds && !s.all_tasks_closed()) {
    const Round next = s.current_round() + 1;
    if (hooks.before_step) hooks.before_step(s, next);
    const double t0 = now_s();
    s.step();
    const double dt = now_s() - t0;
    out.step_s.add(dt);
    out.campaign_s += dt;
    if (hooks.after_step) hooks.after_step(s, next);
    double round = dt;
    if (writer && next < cfg.max_rounds && !s.all_tasks_closed()) {
      const Generation g =
          write_generation(s, scenario, *writer, opts.spans, log, label);
      out.checkpoint_s.add(g.produce_s);
      out.campaign_s += g.durable_s;
      round += g.durable_s;
    }
    out.round_s.add(round);
  }
  out.user_rounds = static_cast<long long>(s.world().num_users()) *
                    static_cast<long long>(s.history().size());
  out.metrics = s.summary();
  perfbench::check_campaign(log, label, out.metrics, s.history(),
                            s.budget().spent());
  if (durable && !out.checkpoint_s.empty()) {
    std::vector<std::unique_ptr<incentive::IncentiveMechanism>> mechs(
        std::make_move_iterator(b.spare_mechs.end() - opts.resumes),
        std::make_move_iterator(b.spare_mechs.end()));
    b.spare_mechs.resize(b.spare_mechs.size() - opts.resumes);
    out.resume_s = resume_and_check(cfg, std::move(mechs), opts.ckpt_dir,
                                    out.metrics, log, label);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared argument block.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir = ".";
};

// ---------------------------------------------------------------------------
// paper-sweep: the Figs. 6-9 grid through exp::run_experiment.

struct SweepResult {
  double wall_s = 0.0;
  long long campaigns = 0;
  long long user_rounds = 0;
  double coverage = 0.0;      // mean over cells of the per-cell mean
  double completeness = 0.0;
  double paid = 0.0;          // sum over campaigns
  double overdraft = 0.0;     // sum over campaigns
  double budget = 0.0;        // sum over campaigns of B
  long long reps_failed = 0;
  long long attempts = 0;
  std::vector<double> cell_s;       // wall time of each cell
  std::vector<double> fingerprint;  // per-cell means, for equality checks
};

std::vector<exp::ExperimentConfig> sweep_cells(std::uint64_t seed,
                                               const Engine& e, int reps) {
  std::vector<exp::ExperimentConfig> cells;
  for (const char* mech : kSweepMechanisms) {
    for (int users : kSweepUsers) {
      Config c = base_keys(seed);
      c.set("mechanism", mech);
      c.set("users", std::to_string(users));
      c.set("reps", std::to_string(reps));
      cells.push_back(make_config(c, e));
    }
  }
  return cells;
}

// `before_cell(i)` runs untimed before cell i is timed.
SweepResult run_sweep(
    const std::vector<exp::ExperimentConfig>& cells, CheckLog& log,
    const std::function<void(std::size_t)>& before_cell = nullptr) {
  SweepResult r;
  std::vector<exp::AggregateResult> aggs;
  aggs.reserve(cells.size());
  for (const auto& cfg : cells) {
    if (before_cell) before_cell(aggs.size());
    const double t0 = now_s();
    aggs.push_back(exp::run_experiment(cfg));
    r.cell_s.push_back(now_s() - t0);
    r.wall_s += r.cell_s.back();
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cfg = cells[i];
    const auto& a = aggs[i];
    const long long ok = static_cast<long long>(a.coverage.count());
    r.campaigns += cfg.repetitions;
    long long live_rounds = 0;
    for (const auto& rs : a.round_mean_reward) live_rounds += rs.count();
    r.user_rounds += live_rounds * cfg.scenario.num_users;
    r.coverage += a.coverage.mean() / static_cast<double>(cells.size());
    r.completeness +=
        a.completeness.mean() / static_cast<double>(cells.size());
    r.paid += a.total_paid.sum();
    r.overdraft += a.overdraft.sum();
    r.budget += cfg.mech_params.platform_budget * static_cast<double>(ok);
    r.reps_failed += static_cast<long long>(a.failed_reps.size());
    for (int att : a.rep_attempts) r.attempts += att;
    log.tally(cfg.repetitions, static_cast<long long>(a.failed_reps.size()),
              "paper-sweep: failed repetitions");
    log.expect(a.coverage.min() >= 0.0 && a.coverage.max() <= 100.0,
               "paper-sweep: coverage outside [0, 100]");
    log.expect(a.completeness.min() >= 0.0 && a.completeness.max() <= 100.0,
               "paper-sweep: completeness outside [0, 100]");
    for (const auto* s : {&a.coverage, &a.completeness, &a.total_paid,
                          &a.overdraft, &a.avg_measurements}) {
      r.fingerprint.push_back(s->mean());
    }
  }
  return r;
}

// The traced run's seeded sample of paper-sweep campaigns, driven round by
// round: the first two repetitions of every (mechanism, users) cell.
std::vector<std::pair<exp::ExperimentConfig, std::uint64_t>> sweep_sample(
    std::uint64_t seed, const Engine& e) {
  std::vector<std::pair<exp::ExperimentConfig, std::uint64_t>> out;
  for (const auto& cfg : sweep_cells(seed, e, kSweepReps)) {
    for (int rep = 0; rep < 2; ++rep) {
      out.emplace_back(cfg, exp::repetition_seed(cfg, rep));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

struct LayerTimes {
  double prepass = 0, plan = 0, reprice = 0, commit = 0, steps = 0;
  void add(const CampaignRun& r) {
    prepass += r.metrics.phase_prepass_s;
    plan += r.metrics.phase_plan_s;
    reprice += r.metrics.phase_reprice_s;
    commit += r.metrics.phase_commit_s;
    steps += r.step_s.sum();
  }
  double untimed() const { return steps - prepass - plan - reprice - commit; }
};

void put_phase_metrics(Report& rep, const LayerTimes& nw, const LayerTimes& w1,
                       std::size_t n, int workers) {
  const std::string base = "(1 worker / " + std::to_string(workers) +
                           " workers, s)";
  rep.put("sim.prepass_s", nw.prepass, "s", n, "sum over rounds");
  rep.put("sim.plan_s", nw.plan, "s", n, "sum over rounds");
  rep.put("sim.reprice_s", nw.reprice, "s", n, "sum over rounds");
  rep.put("sim.commit_s", nw.commit, "s", n, "sum over rounds");
  rep.put("sim.untimed_s", nw.untimed(), "s", n,
          "sum of step() minus the four phases");
  rep.put("sim.speedup_4w", Ratio{w1.steps, nw.steps}, "x", base);
  rep.put("sim.prepass_speedup_4w", Ratio{w1.prepass, nw.prepass}, "x", base);
  rep.put("sim.plan_speedup_4w", Ratio{w1.plan, nw.plan}, "x", base);
  rep.put("sim.reprice_speedup_4w", Ratio{w1.reprice, nw.reprice}, "x", base);
  rep.put("sim.commit_speedup_4w", Ratio{w1.commit, nw.commit}, "x", base);
}

void put_memo_metrics(Report& rep, const sim::CampaignMetrics& m) {
  const long long hits = m.plan_exact_hits + m.plan_fixup_hits;
  const long long lookups = hits + m.plan_misses;
  rep.put("select.solves", static_cast<double>(m.plan_misses), "count", 1,
          "full solves (memo misses)");
  rep.put("select.memo_lookups", static_cast<double>(lookups), "count", 1);
  rep.put("select.memo_hit_rate",
          Ratio{static_cast<double>(hits), static_cast<double>(lookups)},
          "ratio", "hits / lookups");
}

// select.*: DP and greedy timed on identical round-1 instances. Two
// simulators with the same seed publish the instances (the Fig. 5
// pairing); the driver requires them equal, then times each selector on
// the first `limit` users' instances.
void measure_selectors(Report& rep, CheckLog& log,
                       const std::vector<std::pair<exp::ExperimentConfig,
                                                   std::uint64_t>>& campaigns,
                       std::size_t limit) {
  auto dp = select::make_selector(select::SelectorKind::kDp, 14);
  auto greedy = select::make_selector(select::SelectorKind::kGreedy, 14);
  Samples dp_us, greedy_us;
  Samples candidates;
  std::size_t taken = 0;
  for (const auto& [cfg, seed] : campaigns) {
    if (taken >= limit) break;
    Built a = build_campaign(cfg, seed);
    Built b = build_campaign(cfg, seed);
    const auto ia = a.sim->peek_instances();
    const auto ib = b.sim->peek_instances();
    bool same = ia.size() == ib.size();
    for (std::size_t i = 0; same && i < ia.size(); ++i) {
      same = ia[i].candidates.size() == ib[i].candidates.size() &&
             ia[i].time_budget == ib[i].time_budget;
    }
    log.expect(same, "select: same-seed simulators published different "
                     "instances");
    for (std::size_t i = 0; i < ia.size() && taken < limit; ++i, ++taken) {
      candidates.add(static_cast<double>(ia[i].candidates.size()));
      double t0 = now_s();
      const select::Selection sd = dp->select(ia[i]);
      dp_us.add((now_s() - t0) * 1e6);
      t0 = now_s();
      const select::Selection sg = greedy->select(ib[i]);
      greedy_us.add((now_s() - t0) * 1e6);
      // DP is optimal (Eq. 12) when the candidate cap does not bind.
      if (ia[i].candidates.size() <= 14) {
        log.expect(sd.profit() >= sg.profit() - 1e-9,
                   "select: DP profit below greedy on an exact instance");
      }
    }
  }
  rep.put("select.dp_select_us", dp_us, "us");
  rep.put("select.greedy_select_us", greedy_us, "us");
  rep.put("select.candidates_mean", candidates.mean(), "count",
          candidates.count(), "mean");
}

// geo.*: FrozenGrid build over the user homes (cell = neighbor radius) and
// count_radius at every task location.
void measure_geo(Report& rep, const model::World& w) {
  std::vector<geo::Point> pts;
  pts.reserve(w.num_users());
  for (const auto& p : w.user_store().location) pts.push_back(p);
  Samples build_s;
  std::optional<geo::FrozenGrid> grid;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    grid.emplace(w.area(), w.neighbor_radius(), pts);
    build_s.add(now_s() - t0);
  }
  Samples query_ns;
  std::size_t hits = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = now_s();
    for (const auto& t : w.task_store().location) {
      hits += grid->count_radius(t, w.neighbor_radius());
    }
    query_ns.add((now_s() - t0) * 1e9 /
                 static_cast<double>(w.num_tasks()));
  }
  rep.put("geo.grid_build_s", build_s, "s");
  rep.put("geo.count_radius_ns", query_ns, "ns", "median of passes over "
          "every task");
  (void)hits;
}

void put_ckpt_spans(Report& rep, const CkptSpans& spans) {
  rep.put("ckpt.snapshot_s", spans.snapshot_s, "s");
  rep.put("ckpt.encode_s", spans.encode_s, "s");
  rep.put("ckpt.write_s", spans.write_s, "s");
  rep.put("ckpt.bytes", spans.bytes, "bytes");
  rep.put("ckpt.decode_s", spans.decode_s, "s");
}

// ---------------------------------------------------------------------------
// The layer probes of the traced single-campaign run: update_rewards on
// world copies at 1 and n workers, and the neighbor cache rebuild / delta
// on a mirror world.

struct LayerProbes {
  Samples update_1w, update_nw;
  Samples rebuild_s, delta_s, moved;
  std::unique_ptr<ThreadPool> pool;
  int workers = 1;
  std::optional<model::World> mirror;
  std::optional<model::World> pristine_copy;

  void attach(Built& b, CheckLog& log, Hooks& hooks, int w) {
    workers = w;
    pool = std::make_unique<ThreadPool>(w);
    // Rebuild: neighbor_counts() on a copy of the freshly generated world.
    for (int i = 0; i < 3; ++i) {
      model::World fresh(*b.pristine);
      const double t0 = now_s();
      (void)fresh.neighbor_counts();
      rebuild_s.add(now_s() - t0);
    }
    mirror.emplace(*b.pristine);
    (void)mirror->neighbor_counts();
    pristine_copy = std::move(b.pristine);
    b.pristine.reset();
    auto* m1 = b.spare_mechs.at(0).get();
    auto* mn = b.spare_mechs.at(1).get();
    hooks.before_step = [this, m1, mn, &log](const sim::Simulator& s,
                                            Round k) {
      {
        model::World c1(s.world());
        m1->set_reprice_workers(nullptr, 1);
        const double t0 = now_s();
        m1->update_rewards(c1, k);
        update_1w.add(now_s() - t0);
      }
      {
        model::World cn(s.world());
        const double t0 = now_s();
        cn.warm_neighbor_cache(*pool, workers);
        mn->set_reprice_workers(pool.get(), workers);
        mn->update_rewards(cn, k);
        update_nw.add(now_s() - t0);
      }
      log.expect(m1->rewards() == mn->rewards(),
                 "incentive: rewards differ between 1 and n workers");
    };
    hooks.after_step = [this, &log](const sim::Simulator& s, Round done) {
      const auto& now_loc = s.world().user_store().location;
      model::World& m = *mirror;
      long long n_moved = 0;
      for (std::size_t i = 0; i < now_loc.size(); ++i) {
        const geo::Point p = m.user_store().location[i];
        if (p.x != now_loc[i].x || p.y != now_loc[i].y) {
          m.users()[i].set_location(now_loc[i]);
          ++n_moved;
        }
      }
      const double t0 = now_s();
      const std::vector<int>& counts = m.neighbor_counts();
      delta_s.add(now_s() - t0);
      moved.add(static_cast<double>(n_moved));
      // The delta-synced mirror must agree with a from-scratch recount
      // (checked once: a copy of the pristine world has no cache yet).
      if (done == 1) {
        model::World fresh(*pristine_copy);
        for (std::size_t i = 0; i < now_loc.size(); ++i) {
          fresh.users()[i].set_location(now_loc[i]);
        }
        log.expect(counts == fresh.neighbor_counts(),
                   "model: delta-synced neighbor counts differ from a "
                   "rebuild");
        pristine_copy.reset();
      }
    };
  }

  void put(Report& rep) const {
    const std::string per = "median per round";
    rep.put("incentive.update_rewards_s_1w", update_1w, "s", per);
    rep.put("incentive.update_rewards_s_4w", update_nw, "s", per);
    rep.put("model.neighbor_rebuild_s", rebuild_s, "s");
    rep.put("model.neighbor_delta_s", delta_s, "s", per);
    rep.put("model.moved_users", moved, "count", per);
  }
};

// ---------------------------------------------------------------------------
// Repeats in fresh child processes. Each untraced repeat runs in its own
// fork, so its peak RSS is its own and no heap state carries over from the
// repeat before. The parent holds no threads when it forks. The child sends
// named value lists back as text lines "name v1 v2 ..." (hex floats, so
// values travel bit-exactly) followed by its check ledger.

class Wire {
 public:
  void put(const std::string& name, const std::vector<double>& vs) {
    text_ += name;
    for (double v : vs) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), " %a", v);
      text_ += buf;
    }
    text_ += '\n';
  }
  void put(const std::string& name, double v) {
    put(name, std::vector<double>{v});
  }
  void put(const std::string& name, const Samples& s) { put(name, s.values()); }
  void fail(const std::string& msg) { text_ += "!" + msg + "\n"; }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

struct ChildOut {
  std::map<std::string, std::vector<double>> values;
  double rss_mb = std::nan("");

  // Missing values (a failed child) read as NaN / empty, which the final
  // finiteness check reports.
  double one(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() || it->second.empty() ? std::nan("")
                                                    : it->second[0];
  }
  std::vector<double> all(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? std::vector<double>{} : it->second;
  }
};

ChildOut in_child(CheckLog& log, const std::string& label,
                  const std::function<void(Wire&, CheckLog&)>& body) {
  int fds[2];
  MCS_CHECK(::pipe(fds) == 0, "pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  MCS_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    Wire w;
    CheckLog clog;
    int code = 0;
    try {
      body(w, clog);
    } catch (const std::exception& e) {
      clog.expect(false, label + ": " + e.what());
      code = 2;
    }
    w.put("check.attempted", static_cast<double>(clog.attempted()));
    w.put("check.failed", static_cast<double>(clog.failed()));
    for (const auto& f : clog.failures()) w.fail(f);
    const std::string& t = w.text();
    std::size_t off = 0;
    while (off < t.size()) {
      const ssize_t n = ::write(fds[1], t.data() + off, t.size() - off);
      if (n <= 0) ::_exit(4);
      off += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage ru;
  const pid_t waited = ::wait4(pid, &status, 0, &ru);
  ChildOut out;
  std::vector<std::string> failures;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (line[0] == '!') {
      failures.push_back(line.substr(1));
      continue;
    }
    const std::size_t sp = line.find(' ');
    std::vector<double>& vs = out.values[line.substr(0, sp)];
    const char* p = sp == std::string::npos ? "" : line.c_str() + sp;
    for (;;) {
      char* end = nullptr;
      const double v = std::strtod(p, &end);
      if (end == p) break;
      vs.push_back(v);
      p = end;
    }
  }
  const bool exited = waited == pid && WIFEXITED(status);
  if (!exited || out.values.count("check.attempted") == 0) {
    log.expect(false, label + ": child process failed");
    return out;
  }
  log.absorb(static_cast<long long>(out.one("check.attempted")),
             static_cast<long long>(out.one("check.failed")), failures);
  out.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return out;
}

void add_all(Samples& s, const std::vector<double>& vs) {
  for (double v : vs) s.add(v);
}

// ---------------------------------------------------------------------------
// End-to-end metrics shared by every workload.

struct EndToEnd {
  // setup_s and campaign_s are the sum over parts of each part's median,
  // divided by `worlds`. On paper-sweep the parts are the sweep's cells
  // and worlds = 1 (the whole grid, the whole sweep); elsewhere each part
  // is one world's campaign, so the result is the mean over the worlds.
  std::vector<Samples> setup_parts, campaign_parts;
  int worlds = 1;
  Samples rss_mb;               // peak RSS of each measured process
  // Slots: rounds (`round_group` slots per campaign, `cell_campaigns`
  // campaigns per sweep cell or world), checkpoint generations, resumes.
  perfbench::SlotSamples rounds, checkpoint_s, resume_s;
  std::size_t round_group = 1;
  std::size_t cell_campaigns = 1;
  long long campaigns = 0;      // per campaign_s
  long long user_rounds = 0;    // per campaign_s
  double coverage = 0.0, completeness = 0.0;
  double paid = 0.0, overdraft = 0.0, budget = 0.0;

  void put(Report& rep) const {
    const double t = perfbench::sum_of_medians(campaign_parts) / worlds;
    const std::size_t n = perfbench::min_count(campaign_parts);
    const std::string parts = std::to_string(campaign_parts.size()) +
                              " part(s), each the median of >= " +
                              std::to_string(n) + " repeats";
    rep.put("setup_s", perfbench::sum_of_medians(setup_parts) / worlds, "s",
            perfbench::min_count(setup_parts),
            std::to_string(setup_parts.size()) +
                " part(s), each the median of its set-ups");
    rep.put("campaign_s", t, "s", n,
            (worlds > 1 ? "mean over worlds of the median, "
                        : "sum of part medians, ") +
                parts);
    rep.put("campaigns_per_s", static_cast<double>(campaigns) / t, "1/s", n,
            std::to_string(campaigns) + " campaigns / campaign_s");
    rep.put("user_rounds_per_s", static_cast<double>(user_rounds) / t, "1/s",
            n, std::to_string(user_rounds) + " user-rounds / campaign_s");
    const std::string slots = std::to_string(rounds.slots()) +
                              " rounds, each the median of its repeats";
    rep.put("round_p50_s", rounds.p50(), "s", rounds.samples(),
            "median round of " + slots);
    rep.put("round_max_s", rounds.slowest_round(round_group, cell_campaigns),
            "s", rounds.samples(),
            "a campaign's slowest round: median over a cell's campaigns, "
            "mean over cells; " + slots);
    rep.put("peak_rss_mb", rss_mb, "MB",
            "median over repeat processes of ru_maxrss");
    rep.put("coverage_pct", coverage, "%", 1);
    rep.put("completeness_pct", completeness, "%", 1);
    rep.put("payout_frac", Ratio{paid, budget}, "ratio",
            "($ paid / $ B; above 1 breaks Eq. 8)");
    rep.put("checkpoint_s", checkpoint_s.mean(), "s", checkpoint_s.samples(),
            "snapshot + encode: mean over " +
                std::to_string(checkpoint_s.slots()) +
                " generations of the median of its repeats");
    rep.put("resume_s", resume_s.mean(), "s", resume_s.samples(),
            "mean over " + std::to_string(resume_s.slots()) +
                " resumes of the median of its repeats");
  }

  // Eq. 8 overdraft is often exactly 0 at paper scale, so it is printed
  // here but is not one of the benchmark's bounded metrics.
  void print_overdraft() const {
    std::printf("overdraft_frac = %.6g (%.6g $ over B / %.6g $ B)\n",
                overdraft / budget, overdraft, budget);
  }
};

bool time_left(double start, double seconds, int done, int min_done) {
  return done < min_done || now_s() - start < seconds;
}

// ---------------------------------------------------------------------------
// paper-sweep

// Set-up of every campaign of `cells`, serially: world generation +
// mechanism + simulator construction. Returns the seconds it took.
double build_cell(const std::vector<exp::ExperimentConfig>& cells) {
  const double t0 = now_s();
  for (const auto& cfg : cells) {
    for (int rep_i = 0; rep_i < cfg.repetitions; ++rep_i) {
      (void)build_campaign(cfg, exp::repetition_seed(cfg, rep_i));
    }
  }
  return now_s() - t0;
}

void paper_sweep(const Args& a, Report& rep, CheckLog& log) {
  const int nw = nproc();
  const Engine sweep_engine{nw, 1, false, false};
  const auto cells = sweep_cells(a.seed, sweep_engine, kSweepReps);
  const auto sample = sweep_sample(a.seed, Engine{1, 1, false, false});
  const std::string ckdir = a.dir + "/ckpt-paper-sweep";

  if (!a.trace) {
    const auto timed = sweep_cells(
        a.seed, Engine{kTimedWorkers, 1, false, false}, kTimedSweepReps);
    const std::size_t stride = static_cast<std::size_t>(timed[0].max_rounds);
    EndToEnd e;
    e.campaign_parts.resize(timed.size());
    e.setup_parts.resize(timed.size());
    e.round_group = stride;
    e.cell_campaigns = static_cast<std::size_t>(kTimedSweepReps);
    // Warm-up, untimed: the paper's full grid (100 repetitions per cell) at
    // n threads, as reproducing the paper runs it. Its aggregates are the
    // quality metrics and its peak RSS is peak_rss_mb: the peak rests on
    // the largest DP tables of 1,800 campaigns, where the timed sweep's
    // 360 do not always reach the candidate cap.
    {
      const ChildOut c = in_child(log, "sweep", [&](Wire& w, CheckLog& clog) {
        const SweepResult r = run_sweep(cells, clog);
        w.put("summary", {r.coverage, r.completeness, r.paid, r.overdraft,
                          r.budget});
      });
      e.rss_mb.add(c.rss_mb);
      const std::vector<double> sm = c.all("summary");
      if (sm.size() == 5) {
        e.coverage = sm[0];
        e.completeness = sm[1];
        e.paid = sm[2];
        e.overdraft = sm[3];
        e.budget = sm[4];
      }
    }
    // Each pass is two child processes, each of which first builds the
    // paper's grid once, untimed, to fault the heap in. The first times the
    // sweep cell by cell, each cell after a timed set-up of the same cell's
    // 100 campaigns, so set-ups are spread over the pass like the cells.
    // The second times those set-ups again, each followed by every campaign
    // of the cell's timed sweep run one by one with every step() timed;
    // then it runs the first campaign of each on-demand cell with a
    // checkpoint every round for durability (last, so no timed round
    // follows an fsync wait). A 100-user step takes about 0.15 ms, where
    // one interrupt would dominate a single sample; each round's median
    // over the passes does not see it.
    const double start = now_s();
    std::vector<double> first;
    for (int i = 0; time_left(start, a.seconds, i, 3); ++i) {
      const ChildOut c = in_child(log, "sweep", [&](Wire& w, CheckLog& clog) {
        build_cell(cells);  // untimed: faults the heap in
        std::vector<double> setup_s;
        const SweepResult r = run_sweep(timed, clog, [&](std::size_t ci) {
          setup_s.push_back(build_cell({cells[ci]}));
        });
        w.put("setup_s", setup_s);
        w.put("cell_s", r.cell_s);
        w.put("count", {static_cast<double>(r.campaigns),
                        static_cast<double>(r.user_rounds)});
        w.put("fingerprint", r.fingerprint);
      });
      const ChildOut d = in_child(log, "cells", [&](Wire& w, CheckLog& clog) {
        std::vector<double> slot, round_s, ck_slot, ck_s, resume_slot,
            resume_s, setup_s;
        build_cell(cells);  // untimed: faults the heap in
        for (std::size_t ci = 0; ci < timed.size(); ++ci) {
          setup_s.push_back(build_cell({cells[ci]}));
          const int reps = timed[ci].repetitions;
          for (int k = 0; k < reps; ++k) {
            const CampaignRun r = run_campaign(
                timed[ci], exp::repetition_seed(timed[ci], k), clog,
                "paper-sweep");
            const std::size_t group = ci * static_cast<std::size_t>(reps) +
                                      static_cast<std::size_t>(k);
            for (std::size_t j = 0; j < r.round_s.count(); ++j) {
              slot.push_back(static_cast<double>(group * stride + j));
              round_s.push_back(r.round_s.values()[j]);
            }
          }
        }
        for (std::size_t ci = 0; ci < timed.size(); ++ci) {
          if (timed[ci].mechanism != incentive::MechanismKind::kOnDemand) {
            continue;
          }
          RunOpts o;
          o.ckpt_dir = ckdir;
          o.resumes = kSweepResumes;
          const CampaignRun r =
              run_campaign(timed[ci], exp::repetition_seed(timed[ci], 0),
                           clog, "paper-sweep durable", o);
          for (std::size_t j = 0; j < r.checkpoint_s.count(); ++j) {
            ck_slot.push_back(static_cast<double>(ci * stride + j));
            ck_s.push_back(r.checkpoint_s.values()[j]);
          }
          // A campaign that closed in round 1 has nothing to resume.
          for (std::size_t j = 0; j < r.resume_s.count(); ++j) {
            resume_slot.push_back(static_cast<double>(ci * kSweepResumes + j));
            resume_s.push_back(r.resume_s.values()[j]);
          }
        }
        w.put("slot", slot);
        w.put("round_s", round_s);
        w.put("ck_slot", ck_slot);
        w.put("checkpoint_s", ck_s);
        w.put("resume_slot", resume_slot);
        w.put("resume_s", resume_s);
        w.put("setup_s", setup_s);
      });
      if (i == 0) {
        first = c.all("fingerprint");
        const std::vector<double> n = c.all("count");
        if (n.size() == 2) {
          e.campaigns = static_cast<long long>(n[0]);
          e.user_rounds = static_cast<long long>(n[1]);
        }
      } else {
        log.expect(c.all("fingerprint") == first,
                   "paper-sweep: repeated sweep gave different aggregates");
      }
      for (const ChildOut* o : {&c, &d}) {
        const std::vector<double> setup_s = o->all("setup_s");
        for (std::size_t ci = 0; ci < setup_s.size() && ci < timed.size();
             ++ci) {
          e.setup_parts[ci].add(setup_s[ci]);
        }
      }
      const std::vector<double> cell_s = c.all("cell_s");
      log.expect(cell_s.size() == timed.size(),
                 "paper-sweep: a pass timed the wrong number of cells");
      for (std::size_t ci = 0; ci < cell_s.size() && ci < timed.size(); ++ci) {
        e.campaign_parts[ci].add(cell_s[ci]);
      }
      const std::vector<double> slot = d.all("slot");
      const std::vector<double> round_s = d.all("round_s");
      for (std::size_t j = 0; j < slot.size() && j < round_s.size(); ++j) {
        e.rounds.add(static_cast<std::size_t>(slot[j]), round_s[j]);
      }
      const std::vector<double> ck_slot = d.all("ck_slot");
      const std::vector<double> ck_s = d.all("checkpoint_s");
      for (std::size_t j = 0; j < ck_slot.size() && j < ck_s.size(); ++j) {
        e.checkpoint_s.add(static_cast<std::size_t>(ck_slot[j]), ck_s[j]);
      }
      const std::vector<double> resume_slot = d.all("resume_slot");
      const std::vector<double> resume_s = d.all("resume_s");
      for (std::size_t j = 0; j < resume_slot.size() && j < resume_s.size();
           ++j) {
        e.resume_s.add(static_cast<std::size_t>(resume_slot[j]), resume_s[j]);
      }
    }
    e.put(rep);
    e.print_overdraft();
    return;
  }

  // Traced run. Sweeps: untraced vs phase-timed (trace overhead), and the
  // fan-out at 1 vs n threads on a quarter of the repetitions.
  const Engine timed_engine{nw, 1, false, true};
  const SweepResult plain = run_sweep(cells, log);
  const SweepResult traced =
      run_sweep(sweep_cells(a.seed, timed_engine, kSweepReps), log);
  log.expect(plain.fingerprint == traced.fingerprint,
             "paper-sweep: traced sweep differs from the untraced one");
  const SweepResult fan_n =
      run_sweep(sweep_cells(a.seed, sweep_engine, kSweepReps / 4), log);
  const SweepResult fan_1 = run_sweep(
      sweep_cells(a.seed, Engine{1, 1, false, false}, kSweepReps / 4), log);
  log.expect(fan_n.fingerprint == fan_1.fingerprint,
             "paper-sweep: sweep differs between 1 and n threads");

  // Sample campaigns: phase timers at n and 1 campaign workers, sharded
  // rerun of the round-granularity ones, layer probes on the n-worker run.
  LayerTimes t_nw, t_1w;
  double plan_legacy = 0.0, plan_sharded = 0.0;
  sim::CampaignMetrics memo_total;
  LayerProbes probes;
  CkptSpans spans;
  bool geo_done = false;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto& [cfg0, seed] = sample[i];
    exp::ExperimentConfig cfg_nw = cfg0, cfg_1w = cfg0;
    cfg_nw.plan_threads = cfg_nw.reprice_threads = nw;
    cfg_nw.phase_timers = cfg_1w.phase_timers = true;
    RunOpts o;
    o.keep_pristine = true;
    o.spare_mechs = 2;
    if (i % 2 == 0) {
      o.ckpt_dir = ckdir;
      o.spans = &spans;
    }
    o.on_built = [&](Built& b, Hooks& h) {
      if (!geo_done) {
        measure_geo(rep, *b.pristine);
        geo_done = true;
      }
      probes.attach(b, log, h, nw);
    };
    const CampaignRun rn = run_campaign(cfg_nw, seed, log, "sample", o);
    const CampaignRun r1 = run_campaign(cfg_1w, seed, log, "sample 1w");
    const exp::RepetitionResult via_runner = exp::run_repetition(cfg0, seed);
    perfbench::check_same_campaign(log, "sample vs runner", rn.metrics,
                                   via_runner.campaign);
    perfbench::check_same_campaign(log, "sample 1w", r1.metrics, rn.metrics);
    t_nw.add(rn);
    t_1w.add(r1);
    memo_total.plan_exact_hits += rn.metrics.plan_exact_hits;
    memo_total.plan_fixup_hits += rn.metrics.plan_fixup_hits;
    memo_total.plan_misses += rn.metrics.plan_misses;
    if (cfg0.mechanism != incentive::MechanismKind::kSteered) {
      exp::ExperimentConfig cfg_sh = cfg_1w;
      cfg_sh.shards = 1;
      const CampaignRun rs = run_campaign(cfg_sh, seed, log, "sample sharded");
      perfbench::check_same_campaign(log, "sample sharded", rs.metrics,
                                     r1.metrics, /*memo_counters=*/false);
      plan_legacy += r1.metrics.phase_plan_s;
      plan_sharded += rs.metrics.phase_plan_s;
    }
  }
  measure_selectors(rep, log, sample, 4000);
  put_phase_metrics(rep, t_nw, t_1w, sample.size(), nw);
  rep.put("sim.sharded_over_legacy", Ratio{plan_sharded, plan_legacy}, "x",
          "(plan s, sharded / legacy loop)");
  put_memo_metrics(rep, memo_total);
  probes.put(rep);
  rep.put("exp.reps_attempted", static_cast<double>(traced.campaigns),
          "count", 1);
  rep.put("exp.reps_failed", static_cast<double>(traced.reps_failed),
          "count", 1);
  rep.put("exp.retries",
          static_cast<double>(traced.attempts - traced.campaigns), "count",
          1);
  rep.put("exp.speedup_4w", Ratio{fan_1.wall_s, fan_n.wall_s}, "x",
          "(sweep s, 1 thread / n threads)");
  put_ckpt_spans(rep, spans);
  rep.put("incentive.overdraft_frac", Ratio{traced.overdraft, traced.budget},
          "ratio", "($ over B / $ B, Eq. 8)");
  rep.put("trace.overhead_frac",
          Ratio{traced.wall_s - plain.wall_s, plain.wall_s}, "ratio",
          "((traced - untraced) / untraced sweep s)");
}

// ---------------------------------------------------------------------------
// metro / plaza / durable: one large campaign each.

struct SingleWorkload {
  const char* name;
  Shape shape;
  int slice_users;  // the small same-density campaign of the layer probes
  bool durable;     // checkpoint every round, resume at the end
  // Worlds the untraced run measures, each from its own seed. Where one
  // world's layout moves the work by more than the machine's noise (a few
  // hundred shared sites), the run averages over several.
  int worlds;
};

// Uniform homes at city scale, greedy, sharded loop: the scale path.
const SingleWorkload kMetro{"metro", {100000, 5, "greedy", 0, 0.0},
                            5000, false, 1};
// Homes at shared sites with bucketed budgets, DP: skewed input, memo hits.
const SingleWorkload kPlaza{"plaza", {60000, 15, "dp", 600, 150.0},
                            5000, false, 3};
// A metro-shaped campaign that checkpoints every round.
const SingleWorkload kDurable{"durable", {25000, 15, "greedy", 0, 0.0},
                              5000, true, 1};

// The seed of world k of a run with seed `seed`; world 0 is the run's seed.
std::uint64_t world_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed
                : seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k));
}

// Durability on the workloads that do not checkpoint their own campaign:
// the slice campaign writes a generation every round and resumes at the
// end (a full-size generation costs tens of seconds and gigabytes there).
CampaignRun slice_durability(const SingleWorkload& w, const Args& a,
                             const std::string& dir, CkptSpans* spans,
                             CheckLog& log) {
  const exp::ExperimentConfig cfg =
      make_config(shape_keys(w.shape, w.slice_users, a.seed),
                  Engine{1, nproc(), true, false});
  RunOpts o;
  o.ckpt_dir = dir;
  o.spans = spans;
  o.resumes = 3;
  return run_campaign(cfg, a.seed, log, "slice durable", o);
}

void single_campaign(const SingleWorkload& w, const Args& a, Report& rep,
                     CheckLog& log) {
  const int nw = nproc();
  const Config keys = shape_keys(w.shape, w.shape.users, a.seed);
  const exp::ExperimentConfig cfg = make_config(keys, Engine{1, nw, true, false});
  const std::uint64_t seed = a.seed;
  const std::string ckdir = a.dir + "/ckpt-" + w.name;
  const std::string label = w.name;

  if (!a.trace) {
    const int nworlds = w.worlds;
    std::vector<exp::ExperimentConfig> timed;
    for (int k = 0; k < nworlds; ++k) {
      timed.push_back(make_config(
          shape_keys(w.shape, w.shape.users, world_seed(seed, k)),
          Engine{1, kTimedWorkers, true, false}));
    }
    const std::size_t stride = static_cast<std::size_t>(cfg.max_rounds);
    EndToEnd e;
    e.worlds = nworlds;
    e.campaign_parts.resize(static_cast<std::size_t>(nworlds));
    e.setup_parts.resize(static_cast<std::size_t>(nworlds));
    e.round_group = stride;
    e.campaigns = 1;
    const double start = now_s();
    std::vector<std::vector<double>> first(static_cast<std::size_t>(nworlds));
    // Repeat i runs world i % worlds. The first repeat warms up: it is
    // checked but not timed. Each world's first repeat is its reference.
    for (int i = 0; time_left(start, a.seconds, i, 1 + 2 * nworlds); ++i) {
      const int k = i % nworlds;
      const std::size_t ku = static_cast<std::size_t>(k);
      const std::uint64_t ws = world_seed(seed, k);
      // One child per repeat: five set-ups (after an untimed one that
      // faults the heap in), the measured campaign, then - where the
      // campaign itself does not checkpoint - the slice's durability, on
      // the repeats of world 0.
      const ChildOut c = in_child(log, label, [&](Wire& out, CheckLog& clog) {
        Samples setup_s;
        for (int n = 0; n < 6; ++n) {
          const double t0 = now_s();
          (void)build_campaign(timed[ku], ws);
          if (n > 0) setup_s.add(now_s() - t0);
        }
        RunOpts o;
        if (w.durable) {
          o.ckpt_dir = ckdir;
          o.resumes = 1;
        }
        const CampaignRun r = run_campaign(timed[ku], ws, clog, label, o);
        out.put("setup_s", setup_s);
        const sim::CampaignMetrics& m = r.metrics;
        out.put("campaign_s", r.campaign_s);
        out.put("round_s", r.round_s);
        if (w.durable) {
          out.put("checkpoint_s", r.checkpoint_s);
          out.put("resume_s", r.resume_s);
        } else if (k == 0) {
          const CampaignRun d = slice_durability(w, a, ckdir, nullptr, clog);
          out.put("checkpoint_s", d.checkpoint_s);
          out.put("resume_s", d.resume_s);
        }
        out.put("user_rounds", static_cast<double>(r.user_rounds));
        out.put("summary", {m.coverage_pct, m.completeness_pct, m.total_paid,
                            m.budget_overdraft});
        // Everything the repeat-equality check compares, bit-exactly.
        std::vector<double> fp = {m.tasks_completed_pct, m.avg_measurements,
                                  m.measurement_variance, m.reward_gini,
                                  m.reward_jain, m.active_user_fraction,
                                  static_cast<double>(m.total_measurements),
                                  static_cast<double>(m.plan_misses),
                                  m.coverage_pct, m.total_paid};
        for (int c : m.per_task_received) fp.push_back(c);
        out.put("fingerprint", fp);
      });
      const std::vector<double> sm = c.all("summary");
      if (i < nworlds) {
        first[ku] = c.all("fingerprint");
        if (sm.size() == 4) {
          e.coverage += sm[0] / nworlds;
          e.completeness += sm[1] / nworlds;
          e.paid += sm[2];
          e.overdraft += sm[3];
        }
        e.budget += timed[ku].mech_params.platform_budget;
        e.user_rounds += static_cast<long long>(c.one("user_rounds")) /
                         nworlds;
      } else {
        log.expect(c.all("fingerprint") == first[ku],
                   label + ": repeated campaign gave a different result");
      }
      if (i == 0) continue;
      add_all(e.setup_parts[ku], c.all("setup_s"));
      e.campaign_parts[ku].add(c.one("campaign_s"));
      e.rss_mb.add(c.rss_mb);
      const std::vector<double> round_s = c.all("round_s");
      for (std::size_t j = 0; j < round_s.size(); ++j) {
        e.rounds.add(ku * stride + j, round_s[j]);
      }
      const std::vector<double> ck_s = c.all("checkpoint_s");
      for (std::size_t j = 0; j < ck_s.size(); ++j) {
        e.checkpoint_s.add(j, ck_s[j]);
      }
      const std::vector<double> resume_s = c.all("resume_s");
      for (std::size_t j = 0; j < resume_s.size(); ++j) {
        e.resume_s.add(j, resume_s[j]);
      }
    }
    e.put(rep);
    e.print_overdraft();
    return;
  }

  // Traced run: untraced reference, traced n-worker run with the layer
  // probes, and the 1-worker baseline; all three must agree.
  exp::ExperimentConfig timed = cfg;
  timed.phase_timers = true;
  exp::ExperimentConfig one = timed;
  one.shards = one.plan_threads = one.reprice_threads = 1;

  RunOpts po;
  if (w.durable) po.ckpt_dir = ckdir;
  const CampaignRun plain = run_campaign(cfg, seed, log, label, po);
  LayerProbes probes;
  CkptSpans spans;
  RunOpts o;
  o.keep_pristine = true;
  o.spare_mechs = 2;
  if (w.durable) {
    o.ckpt_dir = ckdir;
    o.spans = &spans;
  }
  o.on_built = [&](Built& b, Hooks& h) {
    measure_geo(rep, *b.pristine);
    probes.attach(b, log, h, nw);
  };
  const CampaignRun traced = run_campaign(timed, seed, log, label, o);
  if (!w.durable) slice_durability(w, a, ckdir, &spans, log);
  const CampaignRun single = run_campaign(one, seed, log, label + " 1w");
  perfbench::check_same_campaign(log, label + " traced", traced.metrics,
                                 plain.metrics);
  perfbench::check_same_campaign(log, label + " 1w", single.metrics,
                                 plain.metrics);
  LayerTimes t_nw, t_1w;
  t_nw.add(traced);
  t_1w.add(single);
  put_phase_metrics(rep, t_nw, t_1w, traced.step_s.count(), nw);

  // The slice: the same shape at slice_users, for the loop comparison, the
  // selector kernels and the repetition runner.
  const Config skeys = shape_keys(w.shape, w.slice_users, a.seed);
  const exp::ExperimentConfig slice_legacy =
      make_config(skeys, Engine{1, nw, false, true});
  const exp::ExperimentConfig slice_sharded =
      make_config(skeys, Engine{1, nw, true, true});
  const CampaignRun sl = run_campaign(slice_legacy, seed, log, "slice legacy");
  const CampaignRun ss =
      run_campaign(slice_sharded, seed, log, "slice sharded");
  perfbench::check_same_campaign(log, "slice sharded", ss.metrics, sl.metrics,
                                 /*memo_counters=*/false);
  perfbench::check_same_campaign(
      log, "slice vs runner", exp::run_repetition(slice_sharded, seed).campaign,
      ss.metrics);
  rep.put("sim.sharded_over_legacy",
          Ratio{ss.metrics.phase_plan_s, sl.metrics.phase_plan_s}, "x",
          "(plan s, sharded / legacy loop, " +
              std::to_string(w.slice_users) + "-user slice)");
  put_memo_metrics(rep, traced.metrics);
  measure_selectors(rep, log, {{slice_sharded, seed}}, 400);
  probes.put(rep);

  Config fan = skeys;
  fan.set("reps", std::to_string(2 * nw));
  const exp::ExperimentConfig fan_n =
      make_config(fan, Engine{nw, 1, true, false});
  const exp::ExperimentConfig fan_1 =
      make_config(fan, Engine{1, 1, true, false});
  double t0 = now_s();
  const exp::AggregateResult agg_n = exp::run_experiment(fan_n);
  const double wall_n = now_s() - t0;
  t0 = now_s();
  const exp::AggregateResult agg_1 = exp::run_experiment(fan_1);
  const double wall_1 = now_s() - t0;
  log.expect(agg_n.coverage.mean() == agg_1.coverage.mean() &&
                 agg_n.total_paid.mean() == agg_1.total_paid.mean(),
             label + ": slice sweep differs between 1 and n threads");
  long long attempts = 0;
  for (int att : agg_n.rep_attempts) attempts += att;
  log.tally(fan_n.repetitions,
            static_cast<long long>(agg_n.failed_reps.size()),
            label + ": failed slice repetitions");
  rep.put("exp.reps_attempted", fan_n.repetitions, "count", 1);
  rep.put("exp.reps_failed", static_cast<double>(agg_n.failed_reps.size()),
          "count", 1);
  rep.put("exp.retries", static_cast<double>(attempts - fan_n.repetitions),
          "count", 1);
  rep.put("exp.speedup_4w", Ratio{wall_1, wall_n}, "x",
          "(slice sweep s, 1 thread / n threads)");
  put_ckpt_spans(rep, spans);
  rep.put("incentive.overdraft_frac",
          Ratio{traced.metrics.budget_overdraft,
                cfg.mech_params.platform_budget},
          "ratio", "($ over B / $ B, Eq. 8)");
  rep.put("trace.overhead_frac",
          Ratio{traced.campaign_s - plain.campaign_s, plain.campaign_s},
          "ratio", "((traced - untraced) / untraced campaign_s)");
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--dir") {
      a.dir = v;
    } else {
      throw Error("unknown argument " + k);
    }
  }
  if (argc % 2 == 0) throw Error("arguments come in --key value pairs");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kEngineEnv) ::unsetenv(name);
  try {
    const Args a = parse_args(argc, argv);
    std::printf("machine: %s\n", machine_fingerprint().c_str());
    std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0);
    std::fflush(stdout);
    Report rep;
    CheckLog log;
    if (a.workload == "paper-sweep") {
      paper_sweep(a, rep, log);
    } else if (a.workload == "metro") {
      single_campaign(kMetro, a, rep, log);
    } else if (a.workload == "plaza") {
      single_campaign(kPlaza, a, rep, log);
    } else if (a.workload == "durable") {
      single_campaign(kDurable, a, rep, log);
    } else {
      throw Error("unknown workload '" + a.workload + "'");
    }
    std::string bad;
    log.expect(rep.all_finite(&bad), "metric " + bad + " is not finite");
    rep.print(log);
    return log.failed() == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
