#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/main.exe, release profile) into
.bench_build/, runs it, and prints its report. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
each metric carries the unit BENCHMARK.json gives it. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones.

Every run of one seed must produce the same simulated figures: the
program's digest of them is kept under .bench_build/ and compared with
that of any earlier run of the same seed and the same program build.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a repository checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, "./perfbench/main.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def check_signature(workload, seed, sig):
    """Compare the simulated-figures digest with earlier runs of the seed."""
    with open(EXE, "rb") as f:
        exe_hash = hashlib.sha256(f.read()).hexdigest()[:16]
    sig_dir = os.path.join(BUILD_DIR, "perfbench-signatures")
    os.makedirs(sig_dir, exist_ok=True)
    path = os.path.join(sig_dir, f"{exe_hash}-{workload}-seed{seed}")
    if os.path.exists(path):
        with open(path) as f:
            old = f.read().strip()
        if old != sig:
            print(f"determinism: FAIL — seed {seed} gave {sig}, an earlier run gave {old}")
            return False
        return True
    with open(path, "w") as f:
        f.write(sig + "\n")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build()
    out_dir = os.path.join(BUILD_DIR, "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark program exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    measured = result["metrics"]
    if set(measured) != set(units):
        fail(f"metrics {sorted(set(measured) ^ set(units))} differ from BENCHMARK.json")

    sig = next((l.split()[1] for l in lines if l.startswith("sim-signature ")), None)
    correct = result["correct"] and sig is not None and check_signature(args.workload, args.seed, sig)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
