#!/usr/bin/env python3
"""Paired A/B runs of one benchmark workload on two source trees.

    tools/ab_bench.py BASE HEAD --workload store_query --pairs 10 --seed 901

BASE and HEAD are each a source tree (a directory holding perfbench/run.py)
or a git revision of the repository this script sits in; a revision is
checked out with `git worktree add --detach` under --work-dir and removed
again at the end.  Both trees build their perfbench driver before anything
is timed (perfbench/run.py builds into <tree>/.bench_build/), then the
workload runs in ABBA order -- pair i runs BASE first when i is even, HEAD
first when it is odd -- on the same seed, so a drift of the host's speed
falls on both sides alike.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and interquartile range, the median of the per-pair ratios HEAD/BASE with a
bootstrap 95% interval (pairs resampled), how many pairs HEAD won (by the
metric's own "better" direction), and whether the median gain exceeds the
base's IQR.  A claim of a speedup is: HEAD wins at least 9 of 10 pairs and
its median gain exceeds the base's IQR.  Failed operations are summed per
side; any failure is reported and makes the exit code 1.

Nothing is downloaded: the trees build with the local toolchain.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print("ab_bench: " + message, file=sys.stderr)
    sys.exit(2)


def quantile(values, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def resolve_tree(spec, work_dir, worktrees):
    """A directory is used as it is; anything else is a git revision."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    path = os.path.join(work_dir, "tree-%d" % len(worktrees))
    done = subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", path, spec],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("%s is neither a directory nor a revision git can check out" % spec)
    worktrees.append(path)
    return path


def build(tree):
    build_dir = os.path.join(tree, ".bench_build", "perfbench")
    steps = [["cmake", "-S", os.path.join(tree, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench_driver",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed in %s: %s" % (tree, " ".join(step)))


def run_once(tree, args):
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("run failed in %s (exit %d)" % (tree, done.returncode))
    return json.loads(lines[-1])


def bootstrap_interval(ratios, rounds, rng):
    medians = []
    for _ in range(rounds):
        medians.append(median([rng.choice(ratios) for _ in ratios]))
    return quantile(medians, 0.025), quantile(medians, 0.975)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="base tree: a directory or a git revision")
    parser.add_argument("head", help="head tree: a directory or a git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--bootstrap", type=int, default=2000)
    parser.add_argument("--work-dir", default=None,
                        help="where revisions are checked out (default: a temp dir)")
    parser.add_argument("--json", default=None, help="also write every run's metrics here")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")

    work_dir = args.work_dir or tempfile.mkdtemp(prefix="ab_bench_")
    os.makedirs(work_dir, exist_ok=True)
    worktrees = []
    try:
        trees = [resolve_tree(args.base, work_dir, worktrees),
                 resolve_tree(args.head, work_dir, worktrees)]
        with open(os.path.join(trees[1], "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        if args.workload not in [w["name"] for w in benchmark["workloads"]]:
            fail("unknown workload %s" % args.workload)
        if args.seconds is None:
            args.seconds = benchmark["run_seconds"]
        for tree in trees:
            build(tree)

        runs = [[], []]  # [side][pair] -> result object
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                runs[side].append(run_once(trees[side], args))
            print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)
    finally:
        for path in worktrees:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", path],
                           stdout=sys.stderr, stderr=sys.stderr)
        if args.work_dir is None:
            shutil.rmtree(work_dir, ignore_errors=True)

    rng = random.Random(12345)
    print("workload %s, seed %d, %g s per run, %d ABBA pairs" %
          (args.workload, args.seed, args.seconds, args.pairs))
    print("%-14s %12s %12s %12s %12s %8s %19s %6s %9s" %
          ("metric", "base_med", "base_iqr", "head_med", "head_iqr", "ratio",
           "ratio_95%", "wins", ">b_iqr"))
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        lower = metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs[0]]
        head = [r["metrics"][name]["value"] for r in runs[1]]
        ratios = [h / b for b, h in zip(base, head) if b != 0]
        wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        base_iqr = quantile(base, 0.75) - quantile(base, 0.25)
        gain = median(base) - median(head) if lower else median(head) - median(base)
        lo, hi = bootstrap_interval(ratios, args.bootstrap, rng) if ratios else (0, 0)
        print("%-14s %12.6g %12.6g %12.6g %12.6g %8.4f [%8.4f, %8.4f] %3d/%-2d %9s" %
              (name, median(base), base_iqr, median(head),
               quantile(head, 0.75) - quantile(head, 0.25),
               median(ratios) if ratios else float("nan"), lo, hi, wins, args.pairs,
               "yes" if gain > base_iqr else "no"))
    failed = [sum(int(r["failed"]) for r in side) for side in runs]
    correct = [all(bool(r["correct"]) for r in side) for side in runs]
    print("failed operations: base %d, head %d; correct: base %s, head %s" %
          (failed[0], failed[1], correct[0], correct[1]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "base": runs[0], "head": runs[1]}, f)
    return 0 if failed == [0, 0] and all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
