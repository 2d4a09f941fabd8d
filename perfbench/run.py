#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/CMakeLists.txt (the dsmr
library from src/ plus the perfbench binary) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, validates its output against BENCHMARK.json and
perfbench/targets.json, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports every end-to-end metric; --trace 1 every per-layer metric.
A per-layer metric that does not apply to the workload (targets.json
"measured_on") is reported as 0. Build logs and progress go to stderr.
Exits non-zero, without a result line, when the build fails or the output
does not match the declared metrics.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no binary at {binary}")
    return binary


def load_declarations():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "targets.json")) as f:
            targets = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read the metric declarations: {error}")
    return bench, targets


def validate(raw, args, bench, targets):
    """Checks the binary's result against the declared metrics; returns the
    result to print, with non-applicable per-layer metrics filled as 0."""
    if not isinstance(raw, dict) or set(raw) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys: {sorted(raw) if isinstance(raw, dict) else raw!r}")
    attempted, failed = raw["attempted"], raw["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1
            and 0 <= failed <= attempted):
        fail(f"bad attempted/failed counts {attempted!r}/{failed!r}")
    declared = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    emitted = raw["metrics"]
    unknown = set(emitted) - {m["name"] for m in declared}
    if unknown:
        fail(f"undeclared metrics emitted: {sorted(unknown)}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        applies = args.trace == "0" or args.workload in targets[name]["measured_on"]
        if name not in emitted:
            if applies:
                fail(f"{args.workload} did not emit {name}")
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        value = emitted[name].get("value")
        if emitted[name].get("unit") != unit:
            fail(f"{name} emitted with unit {emitted[name].get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name} has non-finite value {value!r}")
        if args.trace == "0" and value <= 0:
            fail(f"end-to-end metric {name} read {value!r}; it must be positive")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": bool(raw["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    bench, targets = load_declarations()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=3 * args.seconds + 60, text=True)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} timed out")
    if done.returncode != 0:
        fail(f"perfbench exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    try:
        raw = json.loads(lines[-1])
    except ValueError as error:
        fail(f"unparsable result line: {error}")
    result = validate(raw, args, bench, targets)
    print(f"perfbench/run.py: {args.workload} took {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
