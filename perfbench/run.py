#!/usr/bin/env python3
"""Build and run the xbar benchmark (perfbench).

Run from the root of a source checkout:

  python3 perfbench/run.py --workload fleet_hot --seed 1 --seconds 30 --trace 0

builds the harness and the xbar libraries it links (CMake, Release) into
.bench_build/perfbench, runs one workload and forwards its output; the last
stdout line is the JSON result.  --trace 1 is the traced run: per-layer
metrics, with spans written to .bench_build/traces/.

  python3 perfbench/run.py --steadiness 10 --seconds 30 [--workloads a,b]

is the steadiness self-check: it runs each workload back to back with
seeds S..S+N-1 (S = --seed, default 1), each in its own process like a
benchmark run.  It prints each run's figures with the host's CPU steal
over the run, then each end-to-end metric's median, quartiles, min-max and
quartile spread as a share of the median next to the metric's bound in
BENCHMARK.json.

  python3 perfbench/run.py --unit-tests

builds and runs the harness unit tests (needs GTest).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600  # whole build; the first run may take 900 s


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure + build `target`; returns the binary path or None."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()),
                                  check=False)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    binary = os.path.join(BUILD, target)
    return binary if os.path.exists(binary) else None


def run_once(binary, workload, seed, seconds, trace, forward=True):
    """One workload run; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(
            os.getcwd(), ".bench_build", "traces",
            f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload} seed {seed}: timed out")
        return 1, None
    lines = out.strip().splitlines()
    if forward:
        sys.stdout.write(out)
        sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    try:
        return 0, json.loads(lines[-1])
    except json.JSONDecodeError:
        return 1, None


def cpu_times():
    """The machine's aggregate CPU times from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to others between two samples
    (the 8th /proc/stat field); a shared host shows contention here."""
    if before is None or after is None or len(before) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def steadiness(binary, workloads, first_seed, runs, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if workloads is None:
        workloads = [w["name"] for w in bench["workloads"]]
    worst = 0
    for workload in workloads:
        values = {}
        for seed in range(first_seed, first_seed + runs):
            before = cpu_times()
            code, result = run_once(binary, workload, seed, seconds, 0,
                                    forward=False)
            steal = steal_share(before, cpu_times())
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {code})")
                worst = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: steal={steal:.3f} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {runs} runs")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                worst = 1
            print(f"  {name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{min(vals):>12.6g} {max(vals):>12.6g} {spread:>8.3f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
        print(flush=True)
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--workloads",
                        help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--unit-tests", action="store_true")
    args = parser.parse_args()

    if args.unit_tests:
        binary = build("perfbench_tests")
        if binary is None:
            return 1
        return subprocess.run([binary], check=False).returncode

    if args.steadiness is None and not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    if binary is None:
        return 1
    if args.steadiness is not None:
        workloads = args.workloads.split(",") if args.workloads else None
        return steadiness(binary, workloads, args.seed, args.steadiness,
                          args.seconds)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if code != 0 or result is None:
        log(f"run failed (exit {code})")
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
