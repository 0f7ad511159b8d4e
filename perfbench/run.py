#!/usr/bin/env python3
"""Builds and runs the qrc benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload greedy_compile --seed 1 --seconds 45 --trace 0

builds the library and the benchmark program from source (Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and relays its output;
the last line of stdout is the JSON result. --trace 1 runs the traced variant
and prints the per-layer table.

    python3 perfbench/run.py --stability 5 [--workload NAME] [--seconds 45]

is the stability report: it runs each workload (or the one named) N times
with seeds 1..N and N times with seed 1, and prints for each set, per metric,
the median, the quartiles, min/max and the quartile spread as a share of the
median, next to the bound in BENCHMARK.json.

    python3 perfbench/run.py --saturation [--seed 1] [--seconds 20]

prints the request rate serve_mixed's service sustains with its mix when
its lane is kept full; the workload's offered rate is set from it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "predictor.hpp")):
        fail("the qrc sources (src/) are not next to the benchmark", 2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        # No compiler launcher: a ccache would write outside the checkout.
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_CXX_COMPILER_LAUNCHER="])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("building the benchmark failed", 3)
    return os.path.join(out, "qrc_perfbench")


def run_once(binary, workload, seed, seconds, trace, capture, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    return proc


def workloads_of(config):
    return [w["name"] for w in config["workloads"]]


def stability(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    names = [args.workload] if args.workload else workloads_of(config)
    n = args.stability
    for name in names:
        for label, seeds in ((f"seeds 1..{n}", range(1, n + 1)),
                             ("seed 1 repeated", [1] * n)):
            report(binary, name, label, seeds, args.seconds, bounds)


def report(binary, name, label, seeds, seconds, bounds):
    values = {}
    for seed in seeds:
        proc = run_once(binary, name, seed, seconds, 0, capture=True)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode or not lines:
            fail(f"{name} seed {seed} exited {proc.returncode}", 5)
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"# {name} seed {seed}: correct=false", flush=True)
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
    print(f"\n{name}: {len(seeds)} runs, {label}")
    print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for metric, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(metric)
        flag = "" if bound is None or spread < bound / 3 else "  UNSTEADY"
        print(f"  {metric:24} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{min(vals):12.5g} {max(vals):12.5g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}{flag}", flush=True)
        print("      runs: " + " ".join(f"{v:.5g}" for v in vals))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stability", type=int, default=0, metavar="N")
    parser.add_argument("--saturation", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.stability > 0:
        stability(binary, args)
        return 0
    if args.saturation:
        sys.stdout.flush()
        return run_once(binary, "serve_mixed", args.seed, args.seconds, 0,
                        capture=False, extra=("--saturation", "1")).returncode
    if not args.workload:
        parser.error("--workload is required")
    sys.stdout.flush()
    return run_once(binary, args.workload, args.seed, args.seconds,
                    args.trace, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
