// Self-test of the benchmark's own metric math and output checks
// (metrics.h), on hand-built inputs. Exits non-zero on the first failure;
// run.py runs it after every build, before any measurement.
#include <cmath>
#include <cstdio>
#include <string>

#include "metrics.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_quantiles() {
  perfbench::Samples s;
  expect(std::isnan(s.median()), "median of no samples is NaN");
  for (double v : {5.0, 1.0, 4.0, 2.0, 3.0}) s.add(v);
  expect(s.count() == 5, "sample count");
  expect(near(s.median(), 3.0), "odd-count median");
  expect(near(s.quantile(0.25), 2.0), "first quartile, odd count");
  expect(near(s.max(), 5.0), "max");
  expect(near(s.quantile(0.0), 1.0), "min");
  s.add(10.0);
  expect(s.count() == 6, "sample count after add");
  expect(near(s.median(), 3.5), "even-count median interpolates");
  expect(near(s.quantile(0.9), 7.5), "p90 interpolates between ranks");
  expect(near(s.mean(), 25.0 / 6.0), "mean");
  expect(near(s.sum(), 25.0), "sum");
  perfbench::Samples one;
  one.add(7.0);
  expect(near(one.median(), 7.0) && near(one.max(), 7.0),
         "single sample is every quantile");
}

void test_round_summaries() {
  std::vector<perfbench::Samples> parts(2);
  for (double v : {1.0, 9.0, 2.0}) parts[0].add(v);
  for (double v : {10.0, 30.0, 20.0, 1000.0}) parts[1].add(v);
  expect(near(perfbench::sum_of_medians(parts), 2.0 + 25.0),
         "sum of medians: one slow repeat moves neither part");
  expect(perfbench::min_count(parts) == 3, "min_count is the thinnest part");
  expect(std::isnan(perfbench::sum_of_medians({})),
         "sum of medians of no parts is NaN");

  perfbench::SlotSamples r;
  expect(r.slots() == 0 && std::isnan(r.p50()) && std::isnan(r.mean()),
         "empty slots");
  // Three repeats of a three-round campaign; repeat 2 is preempted in
  // round 1, and slot 4 (a fifth round) only exists in one repeat.
  for (double v : {0.7, 5.0, 0.8}) r.add(0, v);
  for (double v : {0.5, 0.6, 0.4}) r.add(1, v);
  for (double v : {0.2, 0.1, 0.3}) r.add(2, v);
  r.add(4, 0.05);
  expect(r.slots() == 4, "slots counts only slots with samples");
  expect(r.samples() == 10, "samples counts every sample");
  expect(near(r.p50(), (0.5 + 0.2) / 2.0),
         "p50 is the median over slot medians");
  expect(near(r.mean(), (0.8 + 0.5 + 0.2 + 0.05) / 4.0),
         "mean is the mean over slot medians");
  // Campaigns of three rounds: {0, 1, 2} and {3, 4, 5}, one per cell.
  expect(near(r.slowest_round(3, 1), (0.8 + 0.05) / 2.0),
         "slowest_round: the mean over cells of each one's slowest round");
  expect(near(r.slowest_round(100, 1), 0.8),
         "one campaign: slowest_round is its largest slot median");
  // Two cells of three one-round campaigns; the last campaign of cell 0
  // has a very slow round.
  perfbench::SlotSamples g;
  for (double v : {1.0, 2.0, 100.0, 10.0, 30.0, 20.0}) {
    g.add(g.samples(), v);
  }
  expect(near(g.slowest_round(1, 3), (2.0 + 20.0) / 2.0),
         "slowest_round: median within a cell, mean over cells");
}

void test_ratios() {
  const perfbench::Ratio r{3.0, 4.0};
  expect(near(r.value(), 0.75), "ratio value");
  expect(near(r.num, 3.0) && near(r.den, 4.0), "ratio keeps its base");
  expect(std::isnan(perfbench::Ratio{1.0, 0.0}.value()),
         "ratio over a zero base is NaN, not inf");
}

mcs::sim::CampaignMetrics good_campaign(
    std::vector<mcs::sim::RoundMetrics>& rounds) {
  mcs::sim::CampaignMetrics m;
  m.per_task_received = {3, 0, 5};
  m.total_measurements = 8;
  m.total_paid = 0.1 + 0.2 + 0.3;
  m.coverage_pct = 66.7;
  m.completeness_pct = 100.0;
  rounds.assign(3, {});
  rounds[0].payout = 0.1;
  rounds[1].payout = 0.2;
  rounds[2].payout = 0.3;
  return m;
}

void test_checks() {
  std::vector<mcs::sim::RoundMetrics> rounds;
  const mcs::sim::CampaignMetrics m = good_campaign(rounds);
  {
    perfbench::CheckLog log;
    perfbench::check_campaign(log, "good", m, rounds, 0.6);
    expect(log.failed() == 0 && log.attempted() == 5,
           "a consistent campaign passes all five checks");
  }
  {
    perfbench::CheckLog log;
    perfbench::check_campaign(log, "tracker", m, rounds, 0.61);
    expect(log.failed() == 2, "tracker off by a cent fails both money checks");
  }
  {
    perfbench::CheckLog log;
    mcs::sim::CampaignMetrics bad = m;
    bad.total_measurements = 9;
    bad.coverage_pct = 100.5;
    bad.completeness_pct = -1.0;
    perfbench::check_campaign(log, "bad", bad, rounds, 0.6);
    expect(log.failed() == 3, "count and range checks fail");
    expect(log.failures().size() == 3, "each failure keeps its message");
    const perfbench::Ratio ff = log.failed_frac();
    expect(near(ff.value(), 3.0 / 5.0) && near(ff.den, 5.0),
           "failed_frac is failed over attempted");
  }
  {
    perfbench::CheckLog log;
    log.tally(100, 2, "reps");
    expect(log.attempted() == 100 && log.failed() == 2,
           "tally counts a batch of repetitions");
  }
  expect(perfbench::money_close(1e6, 1e6 + 1e-4),
         "money_close tolerates relative rounding at large totals");
  expect(!perfbench::money_close(1.0, 1.0 + 1e-6),
         "money_close rejects a real difference");
}

void test_campaign_equality() {
  std::vector<mcs::sim::RoundMetrics> rounds;
  const mcs::sim::CampaignMetrics a = good_campaign(rounds);
  mcs::sim::CampaignMetrics b = a;
  b.phase_plan_s = 12.0;
  expect(perfbench::campaign_diff(a, b).empty(),
         "phase timers are ignored");
  b.plan_exact_hits = 4;
  expect(perfbench::campaign_diff(a, b) == "plan_exact_hits",
         "memo counters compared by default");
  expect(perfbench::campaign_diff(a, b, false).empty(),
         "memo counters skipped on request");
  b.per_task_received[1] = 1;
  expect(perfbench::campaign_diff(a, b, false) == "per_task_received",
         "per-task counts compared");
  mcs::sim::CampaignMetrics c = a;
  c.total_paid = std::nextafter(a.total_paid, 1.0);
  expect(perfbench::campaign_diff(a, c) == "total_paid",
         "equality is bitwise, one ulp differs");
  perfbench::CheckLog log;
  perfbench::check_same_campaign(log, "x", a, c);
  expect(log.failed() == 1, "check_same_campaign records the difference");
}

}  // namespace

int main() {
  test_quantiles();
  test_round_summaries();
  test_ratios();
  test_checks();
  test_campaign_equality();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
