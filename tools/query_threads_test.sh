#!/usr/bin/env bash
# Fresh-query thread invariance of the CLI (wired into ctest as
# `robustify_cli_query_threads`): one fresh query, answered from two copies
# of a small fig6_6 store at --threads=1 and --threads=4, must print
# byte-identical answer JSON and leave byte-identical store files.  The
# cell (CG,N=10 at 0.001) has mixed outcomes, so its trials run far
# past min_trials while the certain horizon moves.
#
# Usage: query_threads_test.sh <path-to-robustify_cli> [workdir]
set -u

CLI=${1:?usage: query_threads_test.sh <robustify_cli> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"

# Outcome-defining spec flags: every command must agree on them to agree on
# the store fingerprint.
APP=fig6_6
RATES=--rates=0.001,0.1

"$CLI" run "$APP" "$RATES" --fixed --trials=3 --threads=2 \
    --journal="$WORKDIR/seed.journal" --csv="$WORKDIR/seed.csv" \
    --json="$WORKDIR/seed.json" > "$WORKDIR/seed.log" 2>&1 \
    || { echo "seed run failed"; cat "$WORKDIR/seed.log"; exit 1; }
"$CLI" merge "$APP" "$RATES" --fixed --store="$WORKDIR/store1" "$WORKDIR/seed.journal" \
    > "$WORKDIR/merge.log" 2>&1 \
    || { echo "merge failed"; cat "$WORKDIR/merge.log"; exit 1; }
cp -r "$WORKDIR/store1" "$WORKDIR/store4"

for threads in 1 4; do
  "$CLI" query "$APP" "CG,N=10" 0.001 "$RATES" --ci=0.1 --budget=60 \
      --store="$WORKDIR/store$threads" --threads=$threads \
      > "$WORKDIR/answer$threads.json" 2> "$WORKDIR/query$threads.log" \
      || { echo "query at --threads=$threads failed"; cat "$WORKDIR/query$threads.log"; exit 1; }
done

grep -q '"source":"fresh-trials"' "$WORKDIR/answer1.json" \
    || { echo "the query ran no fresh trials:"; cat "$WORKDIR/answer1.json"; exit 1; }
cmp "$WORKDIR/answer1.json" "$WORKDIR/answer4.json" \
    || { echo "answers differ:"; cat "$WORKDIR/answer1.json" "$WORKDIR/answer4.json"; exit 1; }
diff -r "$WORKDIR/store1" "$WORKDIR/store4" \
    || { echo "store files differ between --threads=1 and --threads=4"; exit 1; }
echo "fresh query identical at --threads=1 and --threads=4: $(cat "$WORKDIR/answer1.json")"
