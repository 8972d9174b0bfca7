#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file (as written by --trace).

Checks, per the trace-event format that chrome://tracing and Perfetto load:

  * the file parses as JSON: either a bare event array or an object with a
    "traceEvents" array;
  * every event has a string "name", a one-char "ph", a numeric "ts"
    (metadata "M" events may omit it), and integer "pid"/"tid";
  * "ph" is one of B, E, i, X, M ("X" additionally needs a numeric "dur");
  * timestamps are monotonically non-decreasing per (pid, tid) track;
  * B/E pairs are balanced per track (every E closes the most recent B,
    nothing left open at the end);
  * span names come from the known category catalog (the same names the
    attribution ledger folds); an unknown name is a warning, not an error,
    so a new producer degrades the report instead of breaking CI;
  * a nonzero trace.dropped metadata entry (ring overwrote events) is
    surfaced as a WARNING on stderr — the trace is valid but incomplete.

Exit status 0 when the trace is well-formed, 1 otherwise (with the first
few problems on stderr).

Usage: trace_validate.py TRACE.json
"""

import json
import sys

VALID_PHASES = {"B", "E", "i", "X", "M"}
# Every span/instant/metadata name the runtime emits (trace.cpp producers +
# the attribution categories in telemetry/attribution.cpp).
KNOWN_NAMES = {
    "campaign", "cell", "trial", "solve.sgd", "solve.cgls", "solve.cgne",
    "phase", "checkpoint.flush", "query", "stats", "reduce",
    "pool.wait", "calibrate", "fault", "trace.dropped", "process_name",
}
MAX_REPORTED = 10


def load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, list):
        return doc
    if isinstance(doc, dict) and isinstance(doc.get("traceEvents"), list):
        return doc["traceEvents"]
    raise ValueError("expected a JSON array or an object with 'traceEvents'")


def validate(events):
    problems = []
    warnings = []
    last_ts = {}    # (pid, tid) -> last timestamp seen
    open_spans = {} # (pid, tid) -> stack of open B names
    unknown_names = set()
    dropped = {}    # tid -> events the ring overwrote

    def report(index, message):
        if len(problems) < MAX_REPORTED:
            problems.append("event %d: %s" % (index, message))
        return True

    bad = False
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            bad = report(i, "not an object")
            continue
        phase = ev.get("ph")
        if not isinstance(phase, str) or phase not in VALID_PHASES:
            bad = report(i, "invalid ph %r" % (phase,))
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            bad = report(i, "missing or empty name")
        elif ev["name"] not in KNOWN_NAMES:
            unknown_names.add(ev["name"])
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            bad = report(i, "pid/tid must be integers")
            continue
        track = (ev["pid"], ev["tid"])

        ts = ev.get("ts")
        if phase == "M":
            if ev.get("name") == "trace.dropped":
                count = (ev.get("args") or {}).get("events", 0)
                if isinstance(count, int) and count > 0:
                    dropped[ev["tid"]] = dropped.get(ev["tid"], 0) + count
            continue  # metadata events carry no timeline position
        if not isinstance(ts, (int, float)):
            bad = report(i, "missing or non-numeric ts")
            continue
        if phase == "X" and not isinstance(ev.get("dur"), (int, float)):
            bad = report(i, "X event without numeric dur")
        if track in last_ts and ts < last_ts[track]:
            bad = report(i, "ts %r goes backwards on track %r (last %r)"
                         % (ts, track, last_ts[track]))
        last_ts[track] = ts

        if phase == "B":
            open_spans.setdefault(track, []).append(ev["name"])
        elif phase == "E":
            stack = open_spans.get(track)
            if not stack:
                bad = report(i, "E %r on track %r with no open span"
                             % (ev["name"], track))
            else:
                stack.pop()

    for track, stack in sorted(open_spans.items()):
        if stack:
            bad = True
            if len(problems) < MAX_REPORTED:
                problems.append("track %r: %d span(s) left open: %s"
                                % (track, len(stack), ", ".join(stack)))
    if unknown_names:
        warnings.append("unknown span name(s) outside the category catalog: %s"
                        % ", ".join(sorted(unknown_names)))
    for tid, count in sorted(dropped.items()):
        warnings.append("trace.dropped: tid %d lost %d event(s) to ring "
                        "overwrite — trace is valid but incomplete" % (tid, count))
    return bad, problems, warnings


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        events = load_events(argv[1])
    except (OSError, ValueError) as e:
        print("trace_validate: %s: %s" % (argv[1], e), file=sys.stderr)
        return 1
    bad, problems, warnings = validate(events)
    for w in warnings:
        print("trace_validate: WARNING: %s" % w, file=sys.stderr)
    if bad:
        for p in problems:
            print("trace_validate: %s" % p, file=sys.stderr)
        print("trace_validate: %s: INVALID (%d event(s))"
              % (argv[1], len(events)), file=sys.stderr)
        return 1
    print("trace_validate: %s: OK (%d event(s))" % (argv[1], len(events)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
