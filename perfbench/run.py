#!/usr/bin/env python3
"""Benchmark entry point: build, self-test, run one workload, check the result.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the driver and the
repository's mcs_* libraries from source (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark's self-test, then runs the workload in its own process. Everything
the driver prints is passed through; the last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}, whose metric set
must be exactly the end_to_end (--trace 0) or per_layer (--trace 1) list of
BENCHMARK.json. `--workload all` runs every workload of BENCHMARK.json, one
process each, and ends with one JSON object holding all their results. Any
build, self-test or validation failure exits non-zero without printing a
result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, what):
    """Runs a build step with its output sent to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{what} failed with exit code {proc.returncode}")


def build(out):
    jobs = str(os.cpu_count() or 1)
    run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    run_quiet(["cmake", "--build", str(out), "-j", jobs], "cmake build")
    run_quiet([str(out / "perfbench_selftest")], "self-test")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("driver's last line is not a JSON result")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)}")
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metric set mismatch: missing {missing}, unexpected {extra}")
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            fail(f"metric {name} has unit {got[name].get('unit')}, "
                 f"expected {unit}")
    if res["attempted"] < 1:
        fail("no output check was attempted")
    return res


def run_workload(out, workload, args):
    """Runs one workload in its own process; returns its checked result."""
    scratch = out / "scratch" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench_driver"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(scratch)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 3):
        # 3 = ran to the end with failed output checks (reported, not hidden)
        fail(f"driver exited with code {proc.returncode}")
    return check_result(lines[-1], args.trace)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    build(out)
    if args.workload != "all":
        print(json.dumps(run_workload(out, args.workload, args)))
        return
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for w in spec["workloads"]:
        print(f"== {w['name']}: {w['why']}")
        results[w["name"]] = run_workload(out, w["name"], args)
        print(json.dumps(results[w["name"]]))
    print(json.dumps(results))


if __name__ == "__main__":
    main()
