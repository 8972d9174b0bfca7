#!/usr/bin/env python3
"""Counter and histogram pin for one `robustify_cli run` (wired into ctest
as `robustify_cli_metrics_<name>`).

    metrics_golden_test.py <robustify_cli> <golden.json>
    metrics_golden_test.py <robustify_cli> <golden.json> --write -- run fig6_2 ...

A golden file holds the `run` arguments it was recorded with and the
`--metrics` counters and histograms of that run.  The check reruns the same
arguments in the current directory and compares every counter and every
histogram's buckets exactly.  The `query.latency_*` histograms hold wall
times, so they are left out on both sides; the quantile fields are derived
from the buckets and are not compared.  --write records a new golden from
the given arguments instead (record it with a build of the code whose
numbers the golden should pin).
"""

import json
import os
import subprocess
import sys

TIMING_HISTOGRAMS = "query.latency_"


def run_metrics(cli, args, tag):
    metrics = "metrics_%s.json" % tag
    outputs = ["--metrics=" + metrics, "--csv=metrics_%s.csv" % tag,
               "--journal=metrics_%s.journal" % tag,
               "--json=BENCH_metrics_%s.json" % tag]
    done = subprocess.run([cli] + args + outputs, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit("%s %s failed with exit code %d" % (cli, " ".join(args), done.returncode))
    with open(metrics) as f:
        doc = json.load(f)
    histograms = {name: h["buckets"] for name, h in doc.get("histograms", {}).items()
                  if not name.startswith(TIMING_HISTOGRAMS)}
    return {"counters": doc.get("counters", {}), "histograms": histograms}


def diff(kind, golden, fresh):
    lines = []
    for name in sorted(set(golden) | set(fresh)):
        if golden.get(name) != fresh.get(name):
            lines.append("  %s %s: golden %s, fresh %s" % (kind, name, golden.get(name),
                                                          fresh.get(name)))
    return lines


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    cli, golden_path = argv[1], argv[2]
    tag = os.path.splitext(os.path.basename(golden_path))[0]
    if len(argv) > 3:
        if argv[3] != "--write" or len(argv) < 6 or argv[4] != "--":
            sys.exit(__doc__)
        args = argv[5:]
        golden = {"args": args}
        golden.update(run_metrics(cli, args, tag))
        with open(golden_path, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s" % golden_path)
        return 0

    with open(golden_path) as f:
        golden = json.load(f)
    fresh = run_metrics(cli, golden["args"], tag)
    mismatches = (diff("counter", golden["counters"], fresh["counters"]) +
                  diff("histogram", golden["histograms"], fresh["histograms"]))
    if mismatches:
        print("%s: %d mismatches against %s" % (tag, len(mismatches), golden_path))
        print("\n".join(mismatches))
        return 1
    print("%s: %d counters and %d histograms match their golden" %
          (tag, len(fresh["counters"]), len(fresh["histograms"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
