#!/usr/bin/env bash
# Kill-and-resume acceptance test for the campaign checkpoint journal.
#
# 1. Runs a reference adaptive campaign to completion on one thread
#    -> reference CSV.
# 2. Starts the identical campaign fresh, SIGKILLs it mid-flight.
# 3. Resumes from the (possibly torn) journal.
# 4. Asserts the resumed CSV is byte-identical to the reference.
#
# Steps 2-4 run twice: once single-threaded, and once with 4 threads, where
# one cell's trials run on several workers at once and the kill can land
# while several of them are in flight.  Either way the journal grows one
# accepted trial at a time.
#
# The campaign is sized to run for several seconds (tight CI, generous
# budget) and the kill lands early; if the process happens to finish before
# the kill, the script retries with an earlier kill rather than passing
# vacuously.
#
# Usage: kill_resume_test.sh <path-to-robustify_cli> [workdir]
set -u

CLI=${1:?usage: kill_resume_test.sh <robustify_cli> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"

# A deliberately slow allocation: high-rate sort cells cost the most per
# trial, and ci=0.02 forces transition cells to run deep into the budget.
ARGS=(run fig6_1 --rates=0.05,0.1,0.2 --series=SGD+AS,SQS --series=Base
      --ci=0.02 --budget=400)

REF_CSV="$WORKDIR/reference.csv"
REF_JOURNAL="$WORKDIR/reference.journal"
echo "== reference run (uninterrupted, 1 thread) =="
"$CLI" "${ARGS[@]}" --threads=1 --journal="$REF_JOURNAL" \
    --csv="$REF_CSV" --json="$WORKDIR/reference.json" \
    > "$WORKDIR/reference.log" 2>&1 \
    || { echo "reference run failed"; cat "$WORKDIR/reference.log"; exit 1; }

# kill_and_resume <label> <schedule flags...>: SIGKILLs the campaign under
# the given schedule, resumes it under the same schedule, and compares the
# CSV with the reference.  Returns 0 on a byte-identical resume.
kill_and_resume() {
  local label=$1
  shift
  local kill_csv="$WORKDIR/killed_$label.csv"
  local kill_journal="$WORKDIR/killed_$label.journal"
  local delay pid lines
  for delay in 2.0 1.0 0.5 0.25; do
    rm -f "$kill_journal" "$kill_csv"
    echo "== [$label] interrupted run (SIGKILL after ${delay}s) =="
    "$CLI" "${ARGS[@]}" "$@" --journal="$kill_journal" --csv="$kill_csv" \
        --json="$WORKDIR/killed_$label.json" > "$WORKDIR/killed_$label.log" 2>&1 &
    pid=$!
    sleep "$delay"
    if ! kill -KILL "$pid" 2>/dev/null; then
      wait "$pid" 2>/dev/null
      echo "   campaign finished before the kill; retrying with a shorter delay"
      continue
    fi
    wait "$pid" 2>/dev/null
    if [ ! -s "$kill_journal" ]; then
      echo "   killed before the journal header was written; retrying"
      continue
    fi
    lines=$(wc -l < "$kill_journal")
    echo "   journal has $lines lines at kill time"
    echo "== [$label] resume =="
    # Same flag list as the run ("${ARGS[@]:1}" drops the 'run' verb) so the
    # two command lines cannot drift apart.
    "$CLI" resume "${ARGS[@]:1}" "$@" \
        --journal="$kill_journal" --csv="$kill_csv" \
        --json="$WORKDIR/resumed_$label.json" > "$WORKDIR/resume_$label.log" 2>&1 \
        || { echo "resume failed"; cat "$WORKDIR/resume_$label.log"; return 1; }
    grep -E "replayed from journal" "$WORKDIR/resume_$label.log" || true
    if cmp -s "$REF_CSV" "$kill_csv"; then
      echo "PASS [$label]: resumed CSV is byte-identical to the uninterrupted run"
      return 0
    fi
    echo "FAIL [$label]: resumed CSV differs from the uninterrupted run"
    diff "$REF_CSV" "$kill_csv" | head -20
    return 1
  done
  echo "FAIL [$label]: could not interrupt the campaign mid-flight (too fast on this host?)"
  return 1
}

kill_and_resume serial --threads=1 || exit 1
kill_and_resume parallel --threads=4 || exit 1
exit 0
