#!/usr/bin/env python3
"""A/B host wall-clock of the golden experiments: a base revision vs the working tree.

Usage, from the root of a checkout of the repository:

    python3 bench/ab.py BASE_REV [--runs N]

Exports BASE_REV (any git revision) into a temporary directory with
`git archive`, builds bench/main.exe there and in the working tree (dune's
default profile, as CI runs it), then runs the 13 golden experiments at
-j 1 on the two trees alternately, N times each (default 3). Every run's
stdout is compared byte for byte with its own tree's bench/expected.txt;
a mismatch fails the script. It prints the host fingerprint, the
min-of-N `wall_s` per experiment and in total for each side, the delta,
and the base's own max-min spread as the noise band: a delta inside the
band is not a result.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

GOLDEN = ["table1", "table2", "fig1", "table5", "table6", "fig3", "table7",
          "table8", "fig4", "fig5", "table9", "table10", "fig6"]
EXE = os.path.join("_build", "default", "bench", "main.exe")


def fail(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    proc = subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"git {' '.join(args)} failed")
    return proc.stdout.strip()


def export(rev, dest):
    """Write the tree of [rev] into [dest] (no worktree bookkeeping)."""
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        fail(f"git archive {rev} failed")


def build(root):
    proc = subprocess.run(["dune", "build", "--root", root, "./bench/main.exe"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build failed in {root}")


def run_once(root, scratch, tag):
    """One -j 1 golden run; returns ({experiment: wall_s}, total_wall_s)."""
    timings = os.path.join(scratch, f"{tag}.json")
    out = os.path.join(scratch, f"{tag}.out")
    cmd = [os.path.join(root, EXE), "-j", "1", "--timings", timings]
    for e in GOLDEN:
        cmd += ["-e", e]
    with open(out, "wb") as f:
        subprocess.run(cmd, cwd=root, stdout=f, stderr=subprocess.DEVNULL,
                       check=True)
    expected = os.path.join(root, "bench", "expected.txt")
    cmp = subprocess.run(["cmp", out, expected], stdout=subprocess.PIPE, text=True)
    if cmp.returncode != 0:
        fail(f"{tag}: stdout differs from {expected}: {cmp.stdout.strip()}")
    with open(timings) as f:
        t = json.load(f)
    return {e["name"]: e["wall_s"] for e in t["experiments"]}, t["total_wall_s"]


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"], check=True,
                              stdout=subprocess.PIPE, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_rev")
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()
    if args.runs < 1:
        fail("--runs must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("bench")):
        fail("run from the root of a repository checkout")

    head = os.getcwd()
    base_sha = git("rev-parse", "--short", "--verify", args.base_rev + "^{commit}")
    scratch = tempfile.mkdtemp(prefix="memsnap-ab-")
    try:
        base = os.path.join(scratch, "base")
        os.mkdir(base)
        export(args.base_rev, base)
        build(base)
        build(head)

        walls = {"base": [], "head": []}
        totals = {"base": [], "head": []}
        for i in range(args.runs):
            for side, root in (("base", base), ("head", head)):
                w, total = run_once(root, scratch, f"{side}{i}")
                walls[side].append(w)
                totals[side].append(total)
                print(f"run {i + 1}/{args.runs} {side}: {total:.2f} s",
                      file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"host: nproc={os.cpu_count()} ocaml={ocaml_version()} cpu={cpu_model()}")
    print(f"base {args.base_rev} ({base_sha}) vs working tree; {args.runs} "
          f"alternating -j 1 runs per side; stdout matched bench/expected.txt")
    print(f"{'experiment':<12}{'base min s':>12}{'head min s':>12}"
          f"{'delta':>9}{'base spread':>13}")

    def row(name, b, h):
        lo = min(b)
        delta = (min(h) - lo) / lo * 100 if lo > 0 else 0.0
        spread = (max(b) - lo) / lo * 100 if lo > 0 else 0.0
        print(f"{name:<12}{lo:>12.3f}{min(h):>12.3f}{delta:>+8.1f}%"
              f"{spread:>12.1f}%")

    for e in GOLDEN:
        row(e, [w[e] for w in walls["base"]], [w[e] for w in walls["head"]])
    row("total", totals["base"], totals["head"])


if __name__ == "__main__":
    main()
