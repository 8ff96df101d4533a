// Metric math and output checks of the benchmark driver, kept free of any
// timing or I/O so the self-test (selftest.cpp) can pin them on hand-built
// inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/metrics.h"

namespace perfbench {

/// A set of measured values of one quantity. Every summary reports the
/// sample count it rests on.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t count() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  const std::vector<double>& values() const { return v_; }

  /// Linear interpolation between closest ranks (the numpy default):
  /// q in [0, 1], quantile(0) = min, quantile(1) = max. NaN when empty.
  double quantile(double q) const {
    if (v_.empty()) return std::nan("");
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double median() const { return quantile(0.5); }
  double max() const { return quantile(1.0); }
  double sum() const {
    double t = 0.0;
    for (double v : v_) t += v;
    return t;
  }
  double mean() const {
    return v_.empty() ? std::nan("") : sum() / static_cast<double>(v_.size());
  }

 private:
  std::vector<double> v_;
};

/// Sum of the parts' medians: the time of a whole made of parts that were
/// each timed several times (the cells of a sweep). Every part's median
/// resists the odd slow repeat on its own, so the sum does too. NaN when
/// any part has no samples.
inline double sum_of_medians(const std::vector<Samples>& parts) {
  double t = 0.0;
  for (const auto& p : parts) t += p.median();
  return parts.empty() ? std::nan("") : t;
}

/// The fewest samples any part rests on.
inline std::size_t min_count(const std::vector<Samples>& parts) {
  std::size_t n = parts.empty() ? 0 : parts.front().count();
  for (const auto& p : parts) n = std::min(n, p.count());
  return n;
}

/// Samples of repeats of the same work, keyed by slot: a round of a
/// campaign, a checkpoint generation, a resume. A
/// slot's value is its median over the repeats, so one preempted repeat
/// does not move it; the summaries are taken over the slots' medians.
/// Slots differ by design (round 1 prices and plans from scratch, late
/// rounds have few open tasks, sweep cells differ in size), so pooling
/// their samples would let a median jump between those clusters from run
/// to run.
class SlotSamples {
 public:
  void add(std::size_t slot, double v) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    slots_[slot].add(v);
  }
  /// Number of slots with at least one sample.
  std::size_t slots() const { return medians().count(); }
  std::size_t samples() const {
    std::size_t n = 0;
    for (const auto& s : slots_) n += s.count();
    return n;
  }
  double p50() const { return medians().median(); }
  double mean() const { return medians().mean(); }
  /// The slowest round of a campaign, summarised over campaigns. Slots
  /// [g * group, (g + 1) * group) are the rounds of campaign g, and
  /// campaigns [c * per_cell, (c + 1) * per_cell) form cell c (one sweep
  /// cell, or one world). A campaign's slowest round is its largest slot
  /// median; a cell's is the median over its campaigns, so a few campaigns
  /// with a very slow round do not move it; the result is the mean over the
  /// cells that have samples, so it does not jump between cells of
  /// different size.
  double slowest_round(std::size_t group, std::size_t per_cell) const {
    Samples cells;
    const std::size_t cell_slots = group * per_cell;
    for (std::size_t c = 0; c * cell_slots < slots_.size(); ++c) {
      Samples campaigns;
      for (std::size_t g = c * per_cell; g < (c + 1) * per_cell; ++g) {
        Samples rounds;
        for (std::size_t i = g * group;
             i < std::min(slots_.size(), (g + 1) * group); ++i) {
          if (!slots_[i].empty()) rounds.add(slots_[i].median());
        }
        if (!rounds.empty()) campaigns.add(rounds.max());
      }
      if (!campaigns.empty()) cells.add(campaigns.median());
    }
    return cells.mean();
  }

 private:
  Samples medians() const {
    Samples m;
    for (const auto& s : slots_) {
      if (!s.empty()) m.add(s.median());
    }
    return m;
  }
  std::vector<Samples> slots_;
};

/// A ratio that carries its base: value() = num / den, and the two terms
/// stay printable next to it. NaN when the base is zero.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  double value() const { return den != 0.0 ? num / den : std::nan(""); }
};

/// Output-check ledger. Every check counts as attempted; a false one counts
/// as failed and keeps its message.
class CheckLog {
 public:
  bool expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
    return ok;
  }
  /// Counts a batch of units (e.g. repetitions) of which `failed` failed.
  void tally(long long attempted, long long failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) failures_.push_back(what);
  }
  /// Folds in the ledger of another process: its counts and messages.
  void absorb(long long attempted, long long failed,
              const std::vector<std::string>& messages) {
    attempted_ += attempted;
    failed_ += failed;
    failures_.insert(failures_.end(), messages.begin(), messages.end());
  }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  Ratio failed_frac() const {
    return {static_cast<double>(failed_), static_cast<double>(attempted_)};
  }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
};

/// Payments reconcile when they agree to a relative 1e-9 (plus 1e-9
/// absolute): the tracker sums with Neumaier compensation, the round
/// payouts are plain per-round sums, so only the last few ulps may differ.
inline bool money_close(double a, double b) {
  return std::abs(a - b) <= 1e-9 + 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// The per-campaign output checks: the budget tracker's spent total
/// (`tracker_spent`) reconciles with the sum of round payouts and with the
/// summary's total_paid; the per-task received counts sum to
/// total_measurements; coverage and completeness lie in [0, 100].
inline void check_campaign(CheckLog& log, const std::string& label,
                           const mcs::sim::CampaignMetrics& m,
                           const std::vector<mcs::sim::RoundMetrics>& rounds,
                           double tracker_spent) {
  double round_paid = 0.0;
  for (const auto& r : rounds) round_paid += r.payout;
  log.expect(money_close(tracker_spent, round_paid),
             label + ": budget tracker spent != sum of round payouts");
  log.expect(money_close(tracker_spent, m.total_paid),
             label + ": budget tracker spent != summary total_paid");
  long long received = 0;
  for (int c : m.per_task_received) received += c;
  log.expect(received == m.total_measurements,
             label + ": sum(per_task_received) != total_measurements");
  log.expect(m.coverage_pct >= 0.0 && m.coverage_pct <= 100.0,
             label + ": coverage_pct outside [0, 100]");
  log.expect(m.completeness_pct >= 0.0 && m.completeness_pct <= 100.0,
             label + ": completeness_pct outside [0, 100]");
}

/// Bitwise equality of two campaign summaries, ignoring the wall-clock
/// phase timers (diagnostics that differ run to run by definition) and,
/// when `memo_counters` is false, the plan-memo counters (the legacy and
/// sharded loops keep differently shaped memo tables, so their hit counts
/// differ while the campaigns agree). Returns the first differing field
/// name, or "" when equal.
inline std::string campaign_diff(const mcs::sim::CampaignMetrics& a,
                                 const mcs::sim::CampaignMetrics& b,
                                 bool memo_counters = true) {
#define PERFBENCH_FIELD(f) \
  if (!(a.f == b.f)) return #f;
  PERFBENCH_FIELD(coverage_pct)
  PERFBENCH_FIELD(completeness_pct)
  PERFBENCH_FIELD(tasks_completed_pct)
  PERFBENCH_FIELD(avg_measurements)
  PERFBENCH_FIELD(measurement_variance)
  PERFBENCH_FIELD(total_paid)
  PERFBENCH_FIELD(total_measurements)
  PERFBENCH_FIELD(avg_reward_per_measurement)
  PERFBENCH_FIELD(budget_overdraft)
  PERFBENCH_FIELD(per_task_received)
  PERFBENCH_FIELD(reward_gini)
  PERFBENCH_FIELD(reward_jain)
  PERFBENCH_FIELD(active_user_fraction)
  PERFBENCH_FIELD(dropped_user_rounds)
  PERFBENCH_FIELD(abandoned_tours)
  PERFBENCH_FIELD(lost_measurements)
  PERFBENCH_FIELD(corrupted_measurements)
  PERFBENCH_FIELD(withdrawn_task_rounds)
  PERFBENCH_FIELD(wasted_travel)
  if (!memo_counters) return "";
  PERFBENCH_FIELD(plan_exact_hits)
  PERFBENCH_FIELD(plan_fixup_hits)
  PERFBENCH_FIELD(plan_misses)
  PERFBENCH_FIELD(plan_fallbacks)
#undef PERFBENCH_FIELD
  return "";
}

/// Records that two runs of one campaign gave equal summaries.
inline void check_same_campaign(CheckLog& log, const std::string& label,
                                const mcs::sim::CampaignMetrics& a,
                                const mcs::sim::CampaignMetrics& b,
                                bool memo_counters = true) {
  const std::string field = campaign_diff(a, b, memo_counters);
  log.expect(field.empty(), label + ": campaigns differ in " + field);
}

}  // namespace perfbench
