#!/usr/bin/env bash
# Tier-1 verification:
#   1. the full build + test suite (ROADMAP.md's canonical command), then
#   2. the concurrency-sensitive suites — thread pool, parallel runner
#      determinism, simulator — rebuilt and rerun under ThreadSanitizer so
#      data races in the pool or the repetition merge path fail loudly, then
#   3. the fault-injection and failure-recovery suites, plus the neighbor
#      cache and World suites, rebuilt and rerun under ASan+UBSan
#      (abandoned-tour prefix walks, runner retry paths, event-trace
#      bookkeeping and the cache's indexed ±1 count sync are exactly where
#      an off-by-one would hide), then
#   4. a Release (-O3, NDEBUG) stage: the selector-equivalence suites rerun
#      at the optimization level performance numbers are quoted at (the DP
#      bound-prune and fused scan are exactly the code whose floating-point
#      behaviour could shift under optimization), plus a smoke run of the
#      micro benches so a broken bench binary fails tier-1, not bench day.
#
# The ASan stage also carries the durability net: the checkpoint envelope /
# writer / corruption-fuzz suites, the checkpoint-resume equivalence matrix
# and the crash harness (CheckpointCrash forks the test binary and _exit()s
# mid-write). --skip-crash excludes the fork-based crash tests on platforms
# where fork inside a sanitized test binary is awkward; everything else
# still runs.
#
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan] [--skip-release]
#                         [--skip-crash]
#   MCS_ASAN=0 in the environment also skips the ASan stage.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

SKIP_TSAN=0
SKIP_ASAN=0
SKIP_RELEASE=0
SKIP_CRASH=0
for arg in "$@"; do
  case "${arg}" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-release) SKIP_RELEASE=1 ;;
    --skip-crash) SKIP_CRASH=1 ;;
    *) echo "tier1: unknown argument ${arg}" >&2; exit 2 ;;
  esac
done
CRASH_EXCLUDE=()
if [[ "${SKIP_CRASH}" == "1" ]]; then
  CRASH_EXCLUDE=(-E 'CheckpointCrash')
fi
if [[ "${MCS_ASAN:-1}" == "0" ]]; then
  SKIP_ASAN=1
fi

cmake -B build -S .
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

if [[ "${SKIP_TSAN}" == "1" ]]; then
  echo "tier1: skipping ThreadSanitizer stage"
else
  cmake -B build-tsan -S . -DMCS_TSAN=ON
  cmake --build build-tsan -j "${JOBS}" --target test_common test_integration test_sim
  # The round loop's equivalence suites (tests/sim/round_loop_test.cpp:
  # RoundLoop, CommitEquivalence, ShardEquivalence, PlanEquivalence,
  # RepriceEquivalence, PlanMemoEquivalence): golden digests and the serial
  # reference at worker counts 1, 2, 8 and auto, memo on/off, checkpoint
  # resume and steered's threaded round-start reprice. Its pre-pass,
  # bucketing, per-cell plan, buffered commit (segment walk, ordered merge,
  # row-grouped apply) and reprice sweep are the widest concurrent surface
  # in the simulator, so they must stay in the TSan net alongside the
  # pool/runner suites.
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan --output-on-failure \
    -R 'ThreadPool|ParallelForEach|ParallelRunner|Determinism|Runner|Simulator|RoundLoop|PlanEquivalence|PlanMemoEquivalence|RepriceEquivalence|ShardEquivalence|CommitEquivalence'
fi

if [[ "${SKIP_ASAN}" == "1" ]]; then
  echo "tier1: skipping ASan+UBSan stage"
else
  cmake -B build-asan -S . -DMCS_ASAN=ON
  cmake --build build-asan -j "${JOBS}" --target test_sim test_integration \
    test_model
  # Checkpoint* picks up the envelope/writer suites, the corruption fuzzers,
  # the resume-equivalence matrix, the RunnerCheckpoint recovery tests and
  # the fork-based CheckpointCrash kill-mid-write harness (unless
  # --skip-crash); decode and the directory-fallback walk are exactly the
  # code that must never read past a truncated buffer. NeighborCache and
  # World cover the neighbor cache's delta sync, which adds ±1 straight
  # into the per-task counts by grid-reported task index: an out-of-range
  # index there would corrupt memory silently.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'Fault|RunnerFailure|Simulator|EventLog|Checkpoint|SerializeWorld|NeighborCache|World' \
    "${CRASH_EXCLUDE[@]}"
fi

if [[ "${SKIP_RELEASE}" == "1" ]]; then
  echo "tier1: skipping Release stage"
else
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "${JOBS}" \
    --target test_select test_sim test_incentive test_model \
    bench_selector_scaling bench_campaign_throughput bench_incentive_micro \
    bench_checkpoint
  # Selector equivalence plus the round-loop/memo/reprice/neighbor-cache
  # equivalence suites at the optimization level performance numbers are
  # quoted at (bit-identity claims must hold under -O3 as well). PlanMemo
  # covers the memo's unit proofs; BudgetTracker pins the compensated-sum
  # overdraft bound under -O3. CheckpointResume joins the -O3 net:
  # bit-identical resume is a floating-point identity claim just like the
  # selector equivalences. The round loop's suites (RoundLoop and the
  # *Equivalence suites beside it): the golden digests, and round loop ==
  # serial reference, are floating-point identity claims too (the reach
  # filter must drop exactly what the DP prune drops under -O3's
  # reassociation, and the buffered commit's merge must replay payments in
  # the reference order).
  ctest --test-dir build-release --output-on-failure -j "${JOBS}" \
    -R 'DpEquivalence|PruneCandidatesInto|SolverEquivalence|DpSelector|RoundLoop|PlanEquivalence|PlanMemo|RepriceEquivalence|OnDemandReprice|SteeredReprice|NeighborCache|BudgetTracker|CheckpointResume|CheckpointEnvelope|ShardEquivalence|CommitEquivalence'
  ./build-release/bench/bench_selector_scaling --benchmark_min_time=0.01 \
    --benchmark_filter='BM_DpSelector/14|BM_GreedySelector/14' >/dev/null
  # BM_CampaignCommit and BM_CampaignReprice join the smoke set: an A/B
  # bench that no longer builds or runs must fail tier-1, not bench day.
  # Only 100k round-loop runs (trailing slash keeps the 1M configs out —
  # they are minutes of work and belong to bench day — and the serial
  # reference side of the commit A/B, which offers every open task to every
  # user, O(users x open tasks) per round). BM_CampaignSharded/100000/2
  # covers the round loop's parallel bucketing, which only engages at
  # >= 4096 users.
  ./build-release/bench/bench_campaign_throughput --benchmark_min_time=0.01 \
    --benchmark_filter='BM_Campaign/greedy/50|BM_CampaignPlanThreads/100/8|BM_CampaignSharded/100000/2/|BM_CampaignCommit/100000/0/|BM_CampaignReprice/100000/1/' >/dev/null
  # Checkpoint write/load smoke: a broken durability bench (or a checkpoint
  # layer that stopped round-tripping under -O3) fails tier-1 here.
  ./build-release/bench/bench_checkpoint --benchmark_min_time=0.01 \
    --benchmark_filter='BM_CheckpointWrite|BM_CheckpointLoad' >/dev/null
  # The steady-state repricing path must stay allocation-free; the bench
  # counts operator-new calls per iteration and reports them as a counter.
  ALLOC_OUT="$(./build-release/bench/bench_incentive_micro --benchmark_min_time=0.01 \
    --benchmark_filter='BM_UpdateRewardsSteadyState/100')"
  echo "${ALLOC_OUT}" | tail -n 1
  if ! grep -Eq 'allocs_per_iter=0($|[^.0-9])' <<<"${ALLOC_OUT}"; then
    echo "tier1: BM_UpdateRewardsSteadyState allocates in steady state" >&2
    exit 1
  fi
  # Steered's intra-round reprice (one dirty task per session, the only
  # incremental reprice left) must not touch the heap either.
  REPRICE_OUT="$(./build-release/bench/bench_incentive_micro --benchmark_min_time=0.01 \
    --benchmark_filter='BM_RepriceDirtySession/100')"
  echo "${REPRICE_OUT}" | tail -n 1
  if ! grep -Eq 'allocs_per_iter=0($|[^.0-9])' <<<"${REPRICE_OUT}"; then
    echo "tier1: BM_RepriceDirtySession allocates in steady state" >&2
    exit 1
  fi
fi

echo "tier1: OK"
