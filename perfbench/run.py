#!/usr/bin/env python3
"""Build the robustify benchmark driver from source and run a workload.

Run from the repository root:

    python3 perfbench/run.py --workload lsq_lowrate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

The driver (perfbench_driver, built with CMake into .bench_build/) prints one
line per metric and a JSON result line.  This wrapper echoes the metric
lines and prints, as the last line of its output, one JSON object with the
keys correct / attempted / failed / metrics, where metrics holds exactly the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1).  Build output goes to stderr.  Exits non-zero without a result
line when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail("cannot run %s: %s" % (step[0], e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench_driver")


def run_workload(driver, workload, args):
    """Runs one workload; returns (metric lines, result object)."""
    command = [driver, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(RUN_DIR, workload)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, DRIVER_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    return lines[:-1], result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    driver = build()
    selected = workloads if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in selected:
        lines, result = run_workload(driver, workload, args)
        print("== %s (seed %d, %g s, trace %d)" % (workload, args.seed, args.seconds,
                                                     args.trace))
        for line in lines:
            print(line)
        metrics = {}
        for metric in wanted:
            measured = result["metrics"].get(metric["name"])
            if measured is None:
                fail("%s did not report %s" % (workload, metric["name"]))
            metrics[metric["name"]] = measured
        prefix = workload + "." if len(selected) > 1 else ""
        for name, measured in metrics.items():
            combined["metrics"][prefix + name] = measured
        combined["correct"] = combined["correct"] and bool(result["correct"])
        combined["attempted"] += int(result["attempted"])
        combined["failed"] += int(result["failed"])
    sys.stdout.flush()
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
