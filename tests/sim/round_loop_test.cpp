// The round loop's contract. Round-granularity mechanisms run through one
// loop: a parallel pre-pass, per-cell planning against a frozen spatial
// index of the open tasks, and the buffered commit (sim/commit.h).
// SimulatorParams::plan_threads is its only worker count. The suites:
//
//  * RoundLoop — golden CRC-32 digests of the world JSON, event trace and
//    round metrics, recorded from the previous sharded loop, at every
//    worker count (this is the only reference for stochastic mobility);
//  * CommitEquivalence, ShardEquivalence — bit-identity with the serial
//    reference (legacy_commit = true: every open task a candidate, one user
//    at a time) on deterministic mobility, whatever the ignored `shards`
//    knob says; sparse ids, a selector without clone(), checkpoint resume;
//  * PlanEquivalence, RepriceEquivalence — worker-count invariance of the
//    plan and reprice phases, and steered's incremental reprice against a
//    full recompute;
//  * PlanMemoEquivalence — memo on/off equivalence, hit accounting
//    included.
//
// A round takes at most one worker per 256 users, so the 30-user worlds
// run serially whatever plan_threads says; the large-world cases (2,100
// users, up to 8 workers) are where the pre-pass, plan, commit and reprice
// phases fan out. Runs under TSan and at -O3 in tier-1.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "incentive/adaptive_budget_mechanism.h"
#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/mechanism.h"
#include "incentive/steered_mechanism.h"
#include "model/world.h"
#include "select/plan_memo.h"
#include "select/selector.h"
#include "sim/checkpoint.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "sim/serialize.h"
#include "sim/simulator.h"

namespace mcs::sim {
namespace {

enum class Mech { kFixed, kOnDemand, kSteered, kAdaptive };

const char* mech_name(Mech m) {
  switch (m) {
    case Mech::kFixed: return "fixed";
    case Mech::kOnDemand: return "on-demand";
    case Mech::kSteered: return "steered";
    case Mech::kAdaptive: return "adaptive";
  }
  return "?";
}

FaultPlan stress_faults() {
  FaultPlan f;
  f.dropout_prob = 0.15;
  f.abandon_prob = 0.2;
  f.upload_loss_prob = 0.1;
  f.corruption_prob = 0.1;
  f.seed = 7;
  return f;
}

struct RunKnobs {
  Mech mech = Mech::kOnDemand;
  select::SelectorKind selector = select::SelectorKind::kDp;
  MobilityKind mobility = MobilityKind::kStaticHome;
  bool faults = false;
  bool memo = false;
  bool legacy_commit = false;
  int plan_threads = 1;
  // Accepted for compatibility and ignored: set to odd values below to pin
  // that they change nothing.
  int shards = 0;
  int reprice_threads = 1;
  // Shared home sites and quantized budgets: many users start a round
  // bit-equal, the regime the plan memo is built for.
  bool dense = false;
};

ScenarioParams scenario(const RunKnobs& k) {
  ScenarioParams p;
  p.num_users = k.dense ? 40 : 30;
  p.num_tasks = 12;
  p.required_measurements = 6;
  if (k.dense) {
    p.home_sites = 4;
    p.user_budget_quantum_s = 150.0;
  }
  return p;
}

// The adaptive-budget mechanism is not a MechanismKind (it is built
// directly from the same B and lambda).
std::unique_ptr<incentive::IncentiveMechanism> make_mech(
    Mech m, const model::World& world, Rng& rng,
    const incentive::MechanismParams& mp = {}) {
  switch (m) {
    case Mech::kFixed:
      return incentive::make_mechanism(incentive::MechanismKind::kFixed, world,
                                       mp, rng);
    case Mech::kOnDemand:
      return incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                       world, mp, rng);
    case Mech::kSteered:
      return incentive::make_mechanism(incentive::MechanismKind::kSteered,
                                       world, mp, rng);
    case Mech::kAdaptive:
      return std::make_unique<incentive::AdaptiveBudgetMechanism>(
          incentive::DemandIndicator::with_paper_defaults(),
          incentive::DemandLevelScale(mp.demand_levels), mp.platform_budget,
          mp.lambda);
  }
  return nullptr;
}

SimulatorParams params(const RunKnobs& k) {
  SimulatorParams sp;
  sp.max_rounds = 8;
  sp.record_events = true;  // pins the event-trace order, not just totals
  sp.plan_threads = k.plan_threads;
  sp.shards = k.shards;
  sp.reprice_threads = k.reprice_threads;
  sp.legacy_commit = k.legacy_commit;
  sp.memo.enabled = k.memo;
  if (k.faults) sp.faults = stress_faults();
  return sp;
}

Simulator make_simulator(const RunKnobs& k) {
  Rng rng(4242);
  model::World world = generate_world(scenario(k), rng);
  Rng mech_rng = rng.split(0xfeed);
  auto mechanism = make_mech(k.mech, world, mech_rng);
  return Simulator(std::move(world), std::move(mechanism),
                   select::make_selector(k.selector, 14), params(k),
                   make_mobility(k.mobility, /*drift_sigma=*/150.0));
}

struct CampaignRun {
  std::string world_json;
  std::string events_json;
  std::string rounds_json;
  // The raw Neumaier words, not just their sum: the commit must reproduce
  // the exact accumulation order, and these two words are its witnesses.
  Money spent_raw = 0.0;
  Money spent_comp = 0.0;
  select::PlanMemoStats memo;
  CampaignMetrics summary;
};

CampaignRun finish(const Simulator& s) {
  CampaignRun out;
  out.world_json = world_to_json(s.world()).dump(2);
  out.events_json = events_to_json(s.events()).dump();
  out.rounds_json = rounds_to_json(s.history()).dump();
  out.spent_raw = s.budget().spent_raw();
  out.spent_comp = s.budget().compensation();
  out.memo = s.plan_memo_stats();
  out.summary = s.summary();
  return out;
}

CampaignRun run_campaign(const RunKnobs& k) {
  Simulator s = make_simulator(k);
  s.run();
  return finish(s);
}

// Compared with operator== rather than EXPECT_EQ: on a mismatch gtest
// diffs the two strings, which for the large world's megabytes of JSON
// costs more memory than the test machine has.
void expect_bit_identical(const CampaignRun& a, const CampaignRun& b) {
  EXPECT_TRUE(a.world_json == b.world_json) << "end worlds differ";
  EXPECT_TRUE(a.events_json == b.events_json) << "event traces differ";
  EXPECT_TRUE(a.rounds_json == b.rounds_json) << "round metrics differ";
  EXPECT_EQ(a.spent_raw, b.spent_raw);
  EXPECT_EQ(a.spent_comp, b.spent_comp);
}

void expect_same_memo_stats(const select::PlanMemoStats& a,
                            const select::PlanMemoStats& b) {
  EXPECT_EQ(a.exact_hits, b.exact_hits);
  EXPECT_EQ(a.fixup_hits, b.fixup_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.rounds, b.rounds);
}

std::uint32_t digest(const std::string& s) { return crc32(s.data(), s.size()); }

std::string trace_of(const RunKnobs& k) {
  return std::string(mech_name(k.mech)) + "/" +
         select::selector_name(k.selector) + "/" + mobility_name(k.mobility) +
         (k.faults ? "/faults" : "/clean") + (k.memo ? "/memo" : "") +
         (k.legacy_commit ? "/reference" : "") +
         "/plan_threads=" + std::to_string(k.plan_threads);
}

// Worker counts the invariance cases sweep: serial, two, eight (more than
// the cores) and one per core.
constexpr int kWorkerCounts[] = {1, 2, 8, 0};

// CRC-32 digests of {world JSON, event trace, round metrics} for the
// {fixed, on-demand, adaptive} x {clean, faults} x {static-home, commute,
// gaussian-drift} x {dp, greedy} matrix, recorded from the sharded loop
// (shards = 1) before the legacy planned loop was deleted.
struct Golden {
  Mech mech;
  bool faults;
  MobilityKind mobility;
  select::SelectorKind selector;
  std::uint32_t world, events, rounds;
};

using MK = MobilityKind;
using SK = select::SelectorKind;
const Golden kGolden[] = {
    {Mech::kFixed, false, MK::kStaticHome, SK::kDp,
     0x4042e071u, 0xba336296u, 0x104f6d5au},
    {Mech::kFixed, false, MK::kStaticHome, SK::kGreedy,
     0x27ecd772u, 0x4c3cb146u, 0xbed6bcacu},
    {Mech::kFixed, false, MK::kCommute, SK::kDp,
     0x5032c0e1u, 0xc2402812u, 0xdb58f032u},
    {Mech::kFixed, false, MK::kCommute, SK::kGreedy,
     0x9a9be867u, 0xfaaa14dfu, 0xce260ff0u},
    {Mech::kFixed, false, MK::kGaussianDrift, SK::kDp,
     0x9f9825a6u, 0x86eb3d3fu, 0x63c47972u},
    {Mech::kFixed, false, MK::kGaussianDrift, SK::kGreedy,
     0x0f9a304bu, 0xead6bfabu, 0x3f9f17c3u},
    {Mech::kFixed, true, MK::kStaticHome, SK::kDp,
     0x9bf4b602u, 0x76b3b5c8u, 0xde3dedb7u},
    {Mech::kFixed, true, MK::kStaticHome, SK::kGreedy,
     0x632fa818u, 0x9907b4e2u, 0x559e70ecu},
    {Mech::kFixed, true, MK::kCommute, SK::kDp,
     0x7441d5bbu, 0xf61ee65du, 0xb8115ae1u},
    {Mech::kFixed, true, MK::kCommute, SK::kGreedy,
     0x4d5b442bu, 0xf7cc4c11u, 0x4faaa8e1u},
    {Mech::kFixed, true, MK::kGaussianDrift, SK::kDp,
     0x7b3f9fecu, 0x3e1441e9u, 0x9c591244u},
    {Mech::kFixed, true, MK::kGaussianDrift, SK::kGreedy,
     0x855011fau, 0xab8bdd09u, 0xaf8fb6c9u},
    {Mech::kOnDemand, false, MK::kStaticHome, SK::kDp,
     0x7eaface4u, 0x9270ae9au, 0xfcec4ea6u},
    {Mech::kOnDemand, false, MK::kStaticHome, SK::kGreedy,
     0xfc63d539u, 0x278fdf74u, 0xb581ad1au},
    {Mech::kOnDemand, false, MK::kCommute, SK::kDp,
     0xb99a9246u, 0x9adb946au, 0x3243b839u},
    {Mech::kOnDemand, false, MK::kCommute, SK::kGreedy,
     0x96e583d7u, 0x9d267e7bu, 0x3cb4bf48u},
    {Mech::kOnDemand, false, MK::kGaussianDrift, SK::kDp,
     0x6f4a11adu, 0xa605c5d0u, 0xcf6e11a2u},
    {Mech::kOnDemand, false, MK::kGaussianDrift, SK::kGreedy,
     0x24e44930u, 0xb867c4bcu, 0xe319e2edu},
    {Mech::kOnDemand, true, MK::kStaticHome, SK::kDp,
     0x2d12ce65u, 0xb43001c8u, 0x5da90d8cu},
    {Mech::kOnDemand, true, MK::kStaticHome, SK::kGreedy,
     0xeb867bcbu, 0x5e98af7cu, 0x61f1a449u},
    {Mech::kOnDemand, true, MK::kCommute, SK::kDp,
     0xe2dc02a8u, 0x3aafef38u, 0x1a04ca87u},
    {Mech::kOnDemand, true, MK::kCommute, SK::kGreedy,
     0x2611ad07u, 0x6943a056u, 0x81da2c9du},
    {Mech::kOnDemand, true, MK::kGaussianDrift, SK::kDp,
     0xc36d7e46u, 0xcdb04009u, 0x96eccdbeu},
    {Mech::kOnDemand, true, MK::kGaussianDrift, SK::kGreedy,
     0xb65b3be2u, 0xb6efa6c2u, 0xe48acd58u},
    {Mech::kAdaptive, false, MK::kStaticHome, SK::kDp,
     0xb4b090f2u, 0x21b17bf3u, 0x57fa3ec0u},
    {Mech::kAdaptive, false, MK::kStaticHome, SK::kGreedy,
     0xdbdb13f9u, 0xdd546ce5u, 0x3c556f4du},
    {Mech::kAdaptive, false, MK::kCommute, SK::kDp,
     0xb3b6bf6eu, 0x30ea4a13u, 0xa36fb48bu},
    {Mech::kAdaptive, false, MK::kCommute, SK::kGreedy,
     0xda77fa77u, 0x5d5c3ac7u, 0xabd7fb6du},
    {Mech::kAdaptive, false, MK::kGaussianDrift, SK::kDp,
     0xb98d7e14u, 0xc120cf2au, 0x10bb3bd4u},
    {Mech::kAdaptive, false, MK::kGaussianDrift, SK::kGreedy,
     0x34940741u, 0x9fd6c5d1u, 0x30379127u},
    {Mech::kAdaptive, true, MK::kStaticHome, SK::kDp,
     0x22721e1au, 0x1ee934f5u, 0x6b45fcc4u},
    {Mech::kAdaptive, true, MK::kStaticHome, SK::kGreedy,
     0x8a0778dcu, 0x70234008u, 0xb902d952u},
    {Mech::kAdaptive, true, MK::kCommute, SK::kDp,
     0xa258a617u, 0x11edc5a1u, 0x0366f2feu},
    {Mech::kAdaptive, true, MK::kCommute, SK::kGreedy,
     0x92ef8d60u, 0x8933faaau, 0x2d50e52cu},
    {Mech::kAdaptive, true, MK::kGaussianDrift, SK::kDp,
     0x3f6fb7d8u, 0x994f8b12u, 0x739bfa02u},
    {Mech::kAdaptive, true, MK::kGaussianDrift, SK::kGreedy,
     0x393fd2d2u, 0xe2106dd9u, 0x12fc99c4u},
};

// A 30-user round runs serially at any plan_threads (one worker per 256
// users), so this pins that neither the setting nor the ignored
// compatibility knobs change a result.
TEST(RoundLoop, ReproducesGoldenDigestsAtAnyWorkerCount) {
  ASSERT_EQ(std::size(kGolden), 36u);
  for (const Golden& g : kGolden) {
    for (const int workers : kWorkerCounts) {
      RunKnobs k;
      k.mech = g.mech;
      k.faults = g.faults;
      k.mobility = g.mobility;
      k.selector = g.selector;
      k.plan_threads = workers;
      // Ignored compatibility knobs, set to values the old loops read.
      k.shards = workers == 2 ? 0 : 3;
      k.reprice_threads = workers == 8 ? 0 : 2;
      SCOPED_TRACE(trace_of(k));
      const CampaignRun r = run_campaign(k);
      EXPECT_EQ(digest(r.world_json), g.world);
      EXPECT_EQ(digest(r.events_json), g.events);
      EXPECT_EQ(digest(r.rounds_json), g.rounds);
    }
  }
}

// --- The serial reference on deterministic mobility -----------------------

// Runs k through the serial reference, then through the round loop at every
// worker count, and compares them bit for bit: spend down to the budget
// tracker's compensation word, the event trace and every round metric. DP
// drops nothing the reach filter drops by construction, greedy by the
// triangle inequality.
void expect_matches_reference(RunKnobs k) {
  k.legacy_commit = true;
  const CampaignRun reference = run_campaign(k);
  k.legacy_commit = false;
  for (const int workers : kWorkerCounts) {
    k.plan_threads = workers;
    k.shards = workers == 1 ? 0 : workers;  // ignored
    SCOPED_TRACE(trace_of(k));
    expect_bit_identical(reference, run_campaign(k));
  }
}

// {fixed, on-demand, adaptive, steered} x {clean, faults} for one mobility
// model and selector. Steered is intra-round: both settings take the serial
// loop, pinning that legacy_commit is a no-op there.
void expect_matrix_matches_reference(MobilityKind mobility,
                                     select::SelectorKind selector) {
  for (const Mech mech :
       {Mech::kFixed, Mech::kOnDemand, Mech::kAdaptive, Mech::kSteered}) {
    for (const bool faults : {false, true}) {
      RunKnobs k;
      k.mech = mech;
      k.faults = faults;
      k.mobility = mobility;
      k.selector = selector;
      expect_matches_reference(k);
    }
  }
}

TEST(CommitEquivalence, BufferedCommitMatchesLegacySerialBitIdentical) {
  expect_matrix_matches_reference(MobilityKind::kStaticHome,
                                  select::SelectorKind::kDp);
}

// Greedy: a different plan shape, and thus a different leg stream, through
// the same buffered commit.
TEST(CommitEquivalence, GreedySelectorBufferedMatchesLegacy) {
  expect_matrix_matches_reference(MobilityKind::kStaticHome,
                                  select::SelectorKind::kGreedy);
}

// Commute mobility is deterministic (no draws), so the per-user substream
// seeding is bit-invisible and the round loop must match the reference.
TEST(ShardEquivalence, CommuteMobilityShardedMatchesLegacy) {
  expect_matrix_matches_reference(MobilityKind::kCommute,
                                  select::SelectorKind::kDp);
}

// Greedy never picks a candidate beyond the travel-distance budget (the
// first leg is checked directly, later legs by the triangle inequality), so
// the round's reach filter is invisible to it too — here on commute, whose
// users start each round away from home.
TEST(ShardEquivalence, GreedySelectorShardedMatchesLegacy) {
  expect_matrix_matches_reference(MobilityKind::kCommute,
                                  select::SelectorKind::kGreedy);
}

// --- Worker-count invariance on the small world ---------------------------

// {fixed, on-demand, steered} x {clean, faults} x plan_threads {2, 8}
// against the serial run. Steered is intra-round and pins that the setting
// only reaches its round-start publish.
TEST(PlanEquivalence, SerialAndParallelCampaignsBitIdentical) {
  for (const Mech mech : {Mech::kFixed, Mech::kOnDemand, Mech::kSteered}) {
    for (const bool faults : {false, true}) {
      RunKnobs k;
      k.mech = mech;
      k.faults = faults;
      const CampaignRun serial = run_campaign(k);
      for (const int workers : {2, 8}) {
        k.plan_threads = workers;
        SCOPED_TRACE(trace_of(k));
        expect_bit_identical(serial, run_campaign(k));
      }
    }
  }
}

TEST(PlanEquivalence, AutoThreadCountBitIdentical) {
  RunKnobs k;
  k.faults = true;
  const CampaignRun serial = run_campaign(k);
  k.plan_threads = 0;
  expect_bit_identical(serial, run_campaign(k));
}

// The adaptive-budget mechanism rides the round loop like on-demand does,
// and its reprice consumes the commit journal.
TEST(PlanEquivalence, AdaptiveBudgetCampaignsBitIdentical) {
  for (const bool faults : {false, true}) {
    RunKnobs k;
    k.mech = Mech::kAdaptive;
    k.faults = faults;
    const CampaignRun serial = run_campaign(k);
    for (const int workers : {2, 8, 0}) {
      k.plan_threads = workers;
      SCOPED_TRACE(trace_of(k));
      expect_bit_identical(serial, run_campaign(k));
    }
  }
}

// --- The plan memo ---------------------------------------------------------

void expect_accounting_sane(const select::PlanMemoStats& s) {
  EXPECT_GE(s.exact_hits, 0);
  EXPECT_GE(s.fixup_hits, 0);
  EXPECT_GE(s.misses, 0);
  EXPECT_LE(s.fallbacks, s.misses);
  EXPECT_EQ(s.lookups(), s.hits() + s.misses);
}

// {uniform, dense} x {fixed, on-demand, steered} x {clean, faults} x
// plan_threads {1, 2, 8}: the memoized campaign equals the memo-free serial
// baseline bit for bit.
TEST(PlanMemoEquivalence, MemoOnMatchesMemoOffEverywhere) {
  for (const bool dense : {false, true}) {
    for (const Mech mech : {Mech::kFixed, Mech::kOnDemand, Mech::kSteered}) {
      for (const bool faults : {false, true}) {
        RunKnobs k;
        k.mech = mech;
        k.faults = faults;
        k.dense = dense;
        const CampaignRun baseline = run_campaign(k);
        k.memo = true;
        for (const int workers : {1, 2, 8}) {
          k.plan_threads = workers;
          SCOPED_TRACE(trace_of(k) + (dense ? "/dense" : "/uniform"));
          const CampaignRun memo = run_campaign(k);
          expect_bit_identical(baseline, memo);
          expect_accounting_sane(memo.memo);
        }
      }
    }
  }
}

TEST(PlanMemoEquivalence, AutoThreadCountBitIdentical) {
  RunKnobs k;
  k.faults = true;
  k.dense = true;
  k.memo = true;
  const CampaignRun serial = run_campaign(k);
  k.plan_threads = 0;
  const CampaignRun automatic = run_campaign(k);
  expect_bit_identical(serial, automatic);
  expect_same_memo_stats(serial.memo, automatic.memo);
}

// The dense-POI scenario must actually share solves — otherwise the memo is
// dead weight — and the campaign summary must surface the same numbers the
// simulator accessor reports. The serial reference never consults it.
TEST(PlanMemoEquivalence, DensePoiScenarioProducesExactHits) {
  RunKnobs k;
  k.dense = true;
  k.memo = true;
  const CampaignRun r = run_campaign(k);
  EXPECT_GT(r.memo.exact_hits, 0);
  EXPECT_GT(r.memo.rounds, 0);
  expect_accounting_sane(r.memo);
  EXPECT_EQ(r.summary.plan_exact_hits, r.memo.exact_hits);
  EXPECT_EQ(r.summary.plan_fixup_hits, r.memo.fixup_hits);
  EXPECT_EQ(r.summary.plan_misses, r.memo.misses);
  EXPECT_EQ(r.summary.plan_fallbacks, r.memo.fallbacks);

  k.legacy_commit = true;
  const CampaignRun reference = run_campaign(k);
  EXPECT_EQ(reference.memo.lookups(), 0);
  expect_bit_identical(reference, r);
}

TEST(PlanMemoEquivalence, MemoOffReportsZeroActivity) {
  RunKnobs k;
  k.dense = true;
  const CampaignRun r = run_campaign(k);
  EXPECT_EQ(r.memo.exact_hits, 0);
  EXPECT_EQ(r.memo.fixup_hits, 0);
  EXPECT_EQ(r.memo.misses, 0);
  EXPECT_EQ(r.memo.fallbacks, 0);
  EXPECT_EQ(r.memo.rounds, 0);
  EXPECT_EQ(r.summary.plan_exact_hits, 0);
  EXPECT_EQ(r.summary.plan_misses, 0);
}

// Steered reprices within the round, so the memo must stay inert there —
// zero lookups, not merely zero hits — and change nothing.
TEST(PlanMemoEquivalence, IntraRoundMechanismIgnoresTheMemo) {
  RunKnobs k;
  k.mech = Mech::kSteered;
  k.dense = true;
  const CampaignRun baseline = run_campaign(k);
  k.memo = true;
  const CampaignRun r = run_campaign(k);
  EXPECT_EQ(r.memo.lookups(), 0);
  EXPECT_EQ(r.memo.rounds, 0);
  expect_bit_identical(baseline, r);
}

// --- The large world: where the phases fan out -----------------------------

// A selector that predates the clone() hook: the round cannot give each
// worker its own solver, so the plan phase runs serially on the one selector
// while the other phases still fan out.
class UncloneableSelector final : public select::TaskSelector {
 public:
  UncloneableSelector()
      : inner_(select::make_selector(select::SelectorKind::kGreedy, 14)) {}
  const char* name() const override { return "uncloneable"; }
  select::Selection select(
      const select::SelectionInstance& instance) const override {
    return inner_->select(instance);
  }
  // clone() intentionally not overridden: the base returns nullptr.

 private:
  std::unique_ptr<select::TaskSelector> inner_;
};

// A world large enough for the round to fan out — one worker per 256
// users, so 2,100 users take up to 8 — in the benchmark's large-world shape
// (area scaled to the population, B = 60 per task so Eq. 9's base reward
// stays positive). Shared home sites and quantized budgets give the memo
// real classes; greedy keeps the suite quick under TSan.
struct LargeKnobs {
  Mech mech = Mech::kOnDemand;
  MobilityKind mobility = MobilityKind::kStaticHome;
  bool memo = false;
  bool legacy_commit = false;
  int plan_threads = 1;
  // Ignored compatibility knobs.
  int shards = 0;
  int reprice_threads = 1;
  bool uncloneable = false;
  int num_users = 2100;
};

std::string trace_of(const LargeKnobs& k) {
  return std::string(mech_name(k.mech)) + "/" + mobility_name(k.mobility) +
         (k.memo ? "/memo" : "") + (k.legacy_commit ? "/reference" : "") +
         "/plan_threads=" + std::to_string(k.plan_threads);
}

CampaignRun run_large(const LargeKnobs& k) {
  ScenarioParams p;
  p.num_users = k.num_users;
  p.num_tasks = 150;
  p.area_side = 4400.0;
  p.required_measurements = 6;
  p.home_sites = 60;
  p.user_budget_quantum_s = 150.0;
  Rng rng(777);
  model::World world = generate_world(p, rng);
  Rng mech_rng = rng.split(0xfeed);
  incentive::MechanismParams mp;
  mp.platform_budget = 60.0 * p.num_tasks;
  auto mech = make_mech(k.mech, world, mech_rng, mp);
  SimulatorParams sp;
  sp.max_rounds = 4;
  sp.platform_budget = mp.platform_budget;
  sp.record_events = true;
  sp.faults = stress_faults();
  sp.plan_threads = k.plan_threads;
  sp.shards = k.shards;
  sp.reprice_threads = k.reprice_threads;
  sp.legacy_commit = k.legacy_commit;
  sp.memo.enabled = k.memo;
  std::unique_ptr<select::TaskSelector> selector =
      k.uncloneable
          ? std::make_unique<UncloneableSelector>()
          : select::make_selector(select::SelectorKind::kGreedy, 14);
  Simulator s(std::move(world), std::move(mech), std::move(selector), sp,
              make_mobility(k.mobility, /*drift_sigma=*/150.0));
  s.run();
  return finish(s);
}

// CRC-32 digests of {world JSON, event trace, round metrics} for the large
// world ({fixed, on-demand, adaptive} x {static-home, gaussian-drift}),
// recorded like kGolden.
struct LargeGolden {
  Mech mech;
  MobilityKind mobility;
  std::uint32_t world, events, rounds;
};

const LargeGolden kLargeGolden[] = {
    {Mech::kFixed, MK::kStaticHome,
     0xd9a34bbeu, 0x98b3a2ccu, 0x6907c6cau},
    {Mech::kFixed, MK::kGaussianDrift,
     0xf6584056u, 0xaa7b8c08u, 0x91a6b5aeu},
    {Mech::kOnDemand, MK::kStaticHome,
     0x527ec801u, 0x837d907eu, 0xec0f614au},
    {Mech::kOnDemand, MK::kGaussianDrift,
     0xaee1f121u, 0x8d44fdbbu, 0x20fe44eeu},
    {Mech::kAdaptive, MK::kStaticHome,
     0xdfead735u, 0x93774c3cu, 0xd56b9d96u},
    {Mech::kAdaptive, MK::kGaussianDrift,
     0xa0d0ba64u, 0x63fd7c53u, 0x11393926u},
};

// Runs the large-world entries on `mobility` at every worker count and
// checks each run against its recorded digests. With the memo on, the hit
// accounting must not depend on the worker count either, and the memo must
// find real hits.
void expect_large_golden(MobilityKind mobility, bool memo) {
  ASSERT_EQ(std::size(kLargeGolden), 6u);
  for (const LargeGolden& g : kLargeGolden) {
    if (g.mobility != mobility) continue;
    std::optional<select::PlanMemoStats> memo_stats;
    for (const int workers : kWorkerCounts) {
      LargeKnobs k;
      k.mech = g.mech;
      k.mobility = g.mobility;
      k.memo = memo;
      k.plan_threads = workers;
      k.shards = 3;  // ignored
      SCOPED_TRACE(trace_of(k));
      const CampaignRun r = run_large(k);
      EXPECT_EQ(digest(r.world_json), g.world);
      EXPECT_EQ(digest(r.events_json), g.events);
      EXPECT_EQ(digest(r.rounds_json), g.rounds);
      if (!memo) continue;
      if (memo_stats) {
        expect_same_memo_stats(*memo_stats, r.memo);
      } else {
        EXPECT_GT(r.memo.exact_hits, 0);
        memo_stats = r.memo;
      }
    }
  }
}

// The concurrency cases: the large world fans every phase out, so this is
// where TSan sees the round loop's pre-pass, plan, commit and reprice
// workers.
TEST(RoundLoop, LargeWorldReproducesGoldenDigestsAtAnyWorkerCount) {
  for (const auto mobility :
       {MobilityKind::kStaticHome, MobilityKind::kGaussianDrift}) {
    expect_large_golden(mobility, /*memo=*/false);
  }
}

// From 4,096 users on, the round's CSR bucketing splits over the workers
// (per-range cell histograms, a cell-major prefix, per-range scatter);
// smaller rounds run the same passes as one range. Either way every cell
// must list its users in ascending position, so a campaign above the
// threshold is bit-identical at any worker count.
TEST(ShardEquivalence, ParallelBucketingMatchesSingleRange) {
  LargeKnobs k;
  k.num_users = 4200;
  k.mech = Mech::kFixed;
  k.mobility = MobilityKind::kGaussianDrift;
  const CampaignRun serial = run_large(k);
  for (const int workers : {2, 8}) {
    k.plan_threads = workers;
    SCOPED_TRACE(trace_of(k));
    expect_bit_identical(serial, run_large(k));
  }
}

// Classification and publication are serial phases in per-cell position
// order, so the hit/miss counts cannot depend on how the owner solves were
// spread over workers.
TEST(PlanMemoEquivalence, HitAccountingIdenticalAcrossThreadCounts) {
  expect_large_golden(MobilityKind::kStaticHome, /*memo=*/true);
}

// The per-cell memo tables depend only on the cell partition and per-cell
// position order — under stochastic mobility too — so plans and the hit
// accounting are invariant in the worker count.
TEST(ShardEquivalence, MemoShardCountInvariantIncludingStats) {
  expect_large_golden(MobilityKind::kGaussianDrift, /*memo=*/true);
}

// The large world against the serial reference at the worker counts that
// fan out, with the ignored shards knob set to what the old loop read.
void expect_large_matches_reference(LargeKnobs k) {
  k.legacy_commit = true;
  const CampaignRun reference = run_large(k);
  EXPECT_GT(reference.spent_raw, 0.0);
  k.legacy_commit = false;
  for (const int workers : {2, 8, 0}) {
    k.plan_threads = workers;
    k.shards = workers == 0 ? 1 : workers;
    k.reprice_threads = workers == 2 ? 0 : 2;
    SCOPED_TRACE(trace_of(k));
    expect_bit_identical(reference, run_large(k));
  }
}

TEST(ShardEquivalence, ShardCountsMatchLegacyLoopBitIdentical) {
  for (const Mech mech : {Mech::kFixed, Mech::kOnDemand}) {
    LargeKnobs k;
    k.mech = mech;
    expect_large_matches_reference(k);
  }
}

// Plan, then commit: with workers the buffered commit's segment walk fans
// over the pool, and with the memo on most plans are copied from a class
// owner. The merged result must still equal the serial reference.
TEST(CommitEquivalence, PlannedPathParallelWalkMatchesLegacy) {
  LargeKnobs k;
  k.memo = true;
  expect_large_matches_reference(k);
}

// The reprice sweep shares the round's pool. Adaptive reprices through the
// commit journal; steered is intra-round, so only its round-start publish
// sees the workers while the per-session reprices stay serial.
TEST(RepriceEquivalence, CampaignsBitIdenticalAtAnyWorkerCount) {
  for (const Mech mech : {Mech::kAdaptive, Mech::kSteered}) {
    LargeKnobs k;
    k.mech = mech;
    expect_large_matches_reference(k);
  }
}

// Stochastic mobility draws per-user substreams seeded from (order_seed,
// round, position): a pure per-user function, so every worker count walks
// the same campaign. Random waypoint is outside the golden matrix and
// pinned here.
TEST(ShardEquivalence, StochasticMobilityShardCountInvariant) {
  LargeKnobs k;
  k.mobility = MobilityKind::kRandomWaypoint;
  const CampaignRun serial = run_large(k);
  for (const int workers : {2, 8, 0}) {
    k.plan_threads = workers;
    SCOPED_TRACE(trace_of(k));
    expect_bit_identical(serial, run_large(k));
  }
}

// Without clone() the plan phase runs serially while the other phases fan
// out; the worker count changes nothing.
TEST(PlanEquivalence, SelectorWithoutCloneFallsBackToSerial) {
  LargeKnobs k;
  k.uncloneable = true;
  const CampaignRun serial = run_large(k);
  k.plan_threads = 4;
  expect_bit_identical(serial, run_large(k));
}

// ... and the campaign equals the serial reference.
TEST(ShardEquivalence, SelectorWithoutCloneFallsBackToLegacyLoop) {
  LargeKnobs k;
  k.uncloneable = true;
  k.legacy_commit = true;
  const CampaignRun reference = run_large(k);
  k.legacy_commit = false;
  k.plan_threads = 4;
  expect_bit_identical(reference, run_large(k));
}

// --- Sparse ids ------------------------------------------------------------

// Sparse task ids {10, 20, 31} and user ids {70, 10, 55}: every piece of
// round bookkeeping (cell scatter, substream seeding, profit rows, dropped
// flags, the buffered walk) must index by *position*, and every price read
// (open-task scan, instances, session commit, round metrics) must go by
// task row, never by id.
Simulator make_sparse_simulator(
    bool legacy_commit, int plan_threads, bool faults,
    incentive::MechanismKind kind = incentive::MechanismKind::kOnDemand) {
  geo::BoundingBox area{{0.0, 0.0}, {1000.0, 1000.0}};
  model::World world(area, geo::TravelModel{2.0, 0.002}, 500.0);
  world.tasks().emplace_back(TaskId{10}, geo::Point{100.0, 100.0},
                             /*deadline=*/5, /*required=*/2);
  world.tasks().emplace_back(TaskId{20}, geo::Point{900.0, 900.0}, 5, 2);
  world.tasks().emplace_back(TaskId{31}, geo::Point{500.0, 480.0}, 5, 2);
  world.users().emplace_back(UserId{70}, geo::Point{120.0, 120.0}, 900.0);
  world.users().emplace_back(UserId{10}, geo::Point{880.0, 880.0}, 900.0);
  world.users().emplace_back(UserId{55}, geo::Point{500.0, 500.0}, 900.0);
  for (model::User& u : world.users()) u.return_home();
  Rng mech_rng(1);
  auto mech = incentive::make_mechanism(kind, world, {}, mech_rng);
  SimulatorParams sp;
  sp.max_rounds = 4;
  sp.legacy_commit = legacy_commit;
  sp.plan_threads = plan_threads;
  sp.record_events = true;
  if (faults) sp.faults = stress_faults();
  return Simulator(std::move(world), std::move(mech),
                   select::make_selector(select::SelectorKind::kDp, 14), sp);
}

// Round 1 profit == lifetime profit after one round: each profit row belongs
// to its position's user, not its id — in the round loop and the reference.
TEST(PlanEquivalence, NonDenseUserIdsProfitRowsByPosition) {
  for (const bool legacy_commit : {false, true}) {
    SCOPED_TRACE(legacy_commit ? "reference" : "round loop");
    Simulator s = make_sparse_simulator(legacy_commit, 1, false);
    const RoundMetrics& rm = s.step();
    ASSERT_EQ(rm.user_profit.size(), 3u);
    for (std::size_t pos = 0; pos < rm.user_profit.size(); ++pos) {
      EXPECT_DOUBLE_EQ(rm.user_profit[pos],
                       s.world().users()[pos].total_profit())
          << "position " << pos;
    }
    EXPECT_GT(rm.active_users, 0);
  }
}

CampaignRun run_sparse(bool legacy_commit, int plan_threads, bool faults) {
  Simulator s = make_sparse_simulator(legacy_commit, plan_threads, faults);
  s.run();
  return finish(s);
}

TEST(ShardEquivalence, SparseUserIdsShardedMatchesLegacy) {
  const CampaignRun reference = run_sparse(true, 1, false);
  EXPECT_GT(reference.spent_raw, 0.0);
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE("plan_threads=" + std::to_string(workers));
    expect_bit_identical(reference, run_sparse(false, workers, false));
  }
}

// With faults the buffered walk also skips dropped users and lost uploads,
// both flagged by position.
TEST(CommitEquivalence, SparseUserIdsBufferedMatchesLegacy) {
  const CampaignRun reference = run_sparse(true, 1, true);
  EXPECT_GT(reference.spent_raw, 0.0);
  expect_bit_identical(reference, run_sparse(false, 1, true));
}

// Steered reprices between sessions in the serial loop, whose session
// commit and session-price mean read prices per task: on sparse task ids
// the campaign must run to completion and pay exactly what the world
// recorded as delivered.
TEST(CommitEquivalence, SteeredSparseIdsRunToCompletion) {
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults" : "clean");
    Simulator s = make_sparse_simulator(false, 1, faults,
                                        incentive::MechanismKind::kSteered);
    s.run();
    EXPECT_GT(s.world().total_received(), 0);
    EXPECT_DOUBLE_EQ(s.budget().spent(), s.world().total_paid());
    for (const RoundMetrics& rm : s.history()) {
      EXPECT_GT(rm.mean_open_reward, 0.0) << "round " << rm.round;
    }
  }
}

// Sparse task AND user ids through the SoA stores and the checkpoint's
// world payload: task ids {10, 20, 31} / user ids {70, 10, 55} with
// contributions recorded into the chunked bitsets must survive
// world_to_json -> world_from_json byte for byte, with membership intact.
TEST(ShardEquivalence, SparseIdsSoAStorageSerializationRoundTrip) {
  geo::BoundingBox area{{0.0, 0.0}, {1000.0, 1000.0}};
  model::World world(area, geo::TravelModel{2.0, 0.002}, 500.0);
  world.tasks().emplace_back(TaskId{10}, geo::Point{100.0, 100.0},
                             /*deadline=*/5, /*required=*/2);
  world.tasks().emplace_back(TaskId{20}, geo::Point{900.0, 900.0}, 5, 2);
  world.tasks().emplace_back(TaskId{31}, geo::Point{500.0, 480.0}, 5, 2);
  world.users().emplace_back(UserId{70}, geo::Point{120.0, 120.0}, 900.0);
  world.users().emplace_back(UserId{10}, geo::Point{880.0, 880.0}, 900.0);
  world.users().emplace_back(UserId{55}, geo::Point{500.0, 500.0}, 900.0);
  for (model::User& u : world.users()) u.return_home();
  // The snapshot format derives contributed sets from the task measurement
  // lists, so marks and measurements must agree.
  world.users()[0].mark_contributed(TaskId{31});
  world.tasks()[2].add_measurement(UserId{70}, /*round=*/1,
                                   /*reward_paid=*/3.0);
  world.users()[2].mark_contributed(TaskId{10});
  world.tasks()[0].add_measurement(UserId{55}, 1, 2.5);
  world.users()[2].mark_contributed(TaskId{20});
  world.tasks()[1].add_measurement(UserId{55}, 1, 2.0);

  const std::string before = world_to_json(world).dump(2);
  model::World back = world_from_json(world_to_json(world));
  EXPECT_EQ(world_to_json(back).dump(2), before);
  EXPECT_TRUE(back.users()[0].has_contributed(TaskId{31}));
  EXPECT_FALSE(back.users()[0].has_contributed(TaskId{10}));
  EXPECT_TRUE(back.users()[2].has_contributed(TaskId{10}));
  EXPECT_TRUE(back.users()[2].has_contributed(TaskId{20}));
  EXPECT_EQ(back.users()[2].tasks_contributed(), 2u);
}

// --- Checkpoint resume and steered's reprice --------------------------------

// A campaign torn down mid-flight through the checkpoint envelope bytes
// resumes bit-identically, memo stats included — under stochastic mobility,
// whose per-user substreams carry no state across rounds — and the decoded
// params keep their worker count.
TEST(ShardEquivalence, CheckpointResumeMidCampaignSharded) {
  RunKnobs k;
  k.faults = true;
  k.memo = true;
  k.dense = true;
  k.mobility = MobilityKind::kGaussianDrift;
  k.plan_threads = 2;  // serial at this size, but carried in the params
  const CampaignRun straight = run_campaign(k);

  std::optional<Simulator> s(make_simulator(k));
  const Round max_rounds = params(k).max_rounds;
  while (s->current_round() < max_rounds && !s->all_tasks_closed()) {
    s->step();
    const Round done = s->current_round();
    if (done % 2 == 0 && done < max_rounds) {
      const std::string bytes = encode_checkpoint(s->checkpoint());
      s.reset();  // the original campaign is gone, bytes are all that's left
      const CampaignCheckpoint back = decode_checkpoint(bytes);
      EXPECT_EQ(back.params.plan_threads, 2);
      // Replay the construction-time draws exactly as the runner does.
      Rng rng(4242);
      model::World fresh = generate_world(scenario(k), rng);
      Rng mech_rng = rng.split(0xfeed);
      s.emplace(Simulator::resume(back, make_mech(k.mech, fresh, mech_rng),
                                  select::make_selector(k.selector, 14),
                                  make_mobility(k.mobility, 150.0)));
    }
  }
  const CampaignRun resumed = finish(*s);
  expect_bit_identical(straight, resumed);
  expect_same_memo_stats(straight.memo, resumed.memo);
}

// Reference oracle: steered with the incremental path disabled — reprice
// always recomputes in full, what the simulator did before every session
// before the incremental path existed.
class FullRepriceSteered final : public incentive::SteeredMechanism {
 public:
  using incentive::SteeredMechanism::SteeredMechanism;
  void reprice(const model::World& world, Round k,
               const std::vector<std::size_t>& dirty_tasks) override {
    (void)dirty_tasks;
    update_rewards(world, k);
  }
};

TEST(RepriceEquivalence, SteeredIncrementalMatchesFullRecompute) {
  const auto run = [](bool faults, bool full) {
    RunKnobs k;
    k.mech = Mech::kSteered;
    k.faults = faults;
    Rng rng(4242);
    model::World world = generate_world(scenario(k), rng);
    std::unique_ptr<incentive::IncentiveMechanism> mech;
    if (full) {
      mech = std::make_unique<FullRepriceSteered>(0.5, 10.0, 0.2);
    } else {
      mech = std::make_unique<incentive::SteeredMechanism>(0.5, 10.0, 0.2);
    }
    Simulator s(std::move(world), std::move(mech),
                select::make_selector(k.selector, 14), params(k));
    s.run();
    return finish(s);
  };
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults" : "clean");
    expect_bit_identical(run(faults, true), run(faults, false));
  }
}

}  // namespace
}  // namespace mcs::sim
