#!/usr/bin/env python3
"""Smoke test of the repository benchmark. Run from the repository root:

    python3 perfbench/smoke_test.py

Checks that BENCHMARK.json and perfbench/targets.json agree, then runs every
workload for one second in both modes on two seeds and asserts that each run
is correct and emits every declared metric with its declared unit. Finally
checks that run.py fails, without a result line, in a directory that holds
only BENCHMARK.json and perfbench/. Exits 0 when everything holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (7, 8)


def check(condition, message):
    if not condition:
        print(f"smoke_test: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_declarations(bench, targets):
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    declared = set(targets) - {"_comment"}
    check(declared == per_layer,
          f"targets.json and BENCHMARK.json per_layer differ: {sorted(declared ^ per_layer)}")
    for name in per_layer:
        target = targets[name]
        check(set(target["measured_on"]) <= workloads, f"{name}: unknown measured_on workload")
        check(set(target["still"]) <= workloads, f"{name}: unknown 'still' workload")
        for pair in target["moves"]:
            workload, _, metric = pair.partition(":")
            check(workload in workloads and metric in end_to_end, f"{name}: bad target {pair}")
    return workloads


def run(workload, seed, trace, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def check_run(bench, workload, seed, trace):
    done = run(workload, seed, trace)
    label = f"{workload} seed {seed} trace {trace}"
    check(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: not correct ({result['failed']}/{result['attempted']} failed)")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in declared}, f"{label}: metric set")
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        check(emitted["unit"] == metric["unit"], f"{label}: {metric['name']} unit")
        check(isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"]),
              f"{label}: {metric['name']} value")
    if trace:
        check(result["metrics"]["failed_ratio"]["value"] == 0, f"{label}: failed_ratio")
    print(f"smoke_test: ok {label}", file=sys.stderr)


def check_bare_directory():
    """run.py must fail cleanly where only the benchmark's own files exist."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = run("sim_fuzz", SEEDS[0], 0, cwd=bare, env=env)
        check(done.returncode != 0, "run.py succeeded without the repository sources")
        check(done.stdout.strip() == "", "run.py printed a result without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke_test: ok bare directory fails", file=sys.stderr)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "targets.json")) as f:
        targets = json.load(f)
    workloads = check_declarations(bench, targets)
    for workload in sorted(workloads):
        for seed in SEEDS:
            for trace in (0, 1):
                check_run(bench, workload, seed, trace)
    check_bare_directory()
    print("smoke_test: all checks passed")


if __name__ == "__main__":
    main()
