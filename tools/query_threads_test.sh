#!/usr/bin/env bash
# Fresh-query thread invariance of the CLI (wired into ctest as
# `robustify_cli_query_threads`): one fresh query, answered from two copies
# of a small fig6_6 store at --threads=1 and --threads=4, must print
# byte-identical answer JSON and leave byte-identical store files.  The
# cell (CG,N=10 at 0.001) has mixed outcomes, so its trials run far
# past min_trials while the certain horizon moves.
#
# The serve leg sends one NDJSON stream through a single `serve` process
# (whose workers outlive each query) at --threads=1 and again at
# --threads=4: fresh queries (one cell twice, at a loose and then a tight
# ci), cache queries and surrogate queries.  Both runs must print
# byte-identical answers and leave byte-identical store files.
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

# ---- serve leg: many queries through one process ----------------------------
SERVE_RATES=--rates=0.0001,0.001,0.01,0.1
"$CLI" run "$APP" "$SERVE_RATES" --fixed --trials=3 --threads=2 \
    --journal="$WORKDIR/serve_seed.journal" --csv="$WORKDIR/serve_seed.csv" \
    --json="$WORKDIR/serve_seed.json" > "$WORKDIR/serve_seed.log" 2>&1 \
    || { echo "serve seed run failed"; cat "$WORKDIR/serve_seed.log"; exit 1; }
"$CLI" merge "$APP" "$SERVE_RATES" --fixed --store="$WORKDIR/serve_store" \
    "$WORKDIR/serve_seed.journal" > "$WORKDIR/serve_merge.log" 2>&1 \
    || { echo "serve merge failed"; cat "$WORKDIR/serve_merge.log"; exit 1; }
# The stored spec.txt with a small budget: a tight-ci query runs to 30.
sed -e 's/^budget = .*/budget = 30/' -e 's/^min_trials = .*/min_trials = 2/' \
    "$WORKDIR"/serve_store/*/spec.txt > "$WORKDIR/serve.spec"
cat > "$WORKDIR/queries.ndjson" <<'EOF_QUERIES'
{"app":"fig6_6","series":"CG,N=10","rate":0.001,"ci":0.3}
{"app":"fig6_6","series":"Base:QR","rate":0.0001,"ci":0.9,"fresh":false}
{"app":"fig6_6","series":"CG,N=10","rate":0.001,"ci":0.001}
{"app":"fig6_6","series":"Base:QR","rate":0.003,"fresh":false}
{"app":"fig6_6","series":"Base:Cholesky","rate":0.01,"ci":0.001}
{"app":"fig6_6","series":"CG,N=10","rate":0.003,"fresh":false}
{"app":"fig6_6","series":"Base:SVD","rate":0.1,"ci":0.001}
{"app":"fig6_6","series":"CG,N=10","rate":0.001,"ci":0.9}
{"app":"fig6_6","series":"Base:SVD","rate":0.02,"fresh":false}
{"app":"fig6_6","series":"Base:QR","rate":0.1,"ci":0.001}
{"app":"fig6_6","series":"CG,N=10","rate":0.03,"fresh":false}
EOF_QUERIES
for threads in 1 4; do
  cp -r "$WORKDIR/serve_store" "$WORKDIR/serve_store$threads"
  "$CLI" serve "$WORKDIR/serve.spec" --store="$WORKDIR/serve_store$threads" \
      --threads=$threads < "$WORKDIR/queries.ndjson" \
      > "$WORKDIR/serve_answers$threads.ndjson" 2> "$WORKDIR/serve$threads.log" \
      || { echo "serve at --threads=$threads failed"; cat "$WORKDIR/serve$threads.log"; exit 1; }
done
for source in fresh-trials cache surrogate; do
  grep -q "\"source\":\"$source\"" "$WORKDIR/serve_answers1.ndjson" \
      || { echo "serve gave no $source answer:"; cat "$WORKDIR/serve_answers1.ndjson"; exit 1; }
done
[ "$(grep -c '"ok":true' "$WORKDIR/serve_answers1.ndjson")" = 11 ] \
    || { echo "not every serve query was answered:"; cat "$WORKDIR/serve_answers1.ndjson"; exit 1; }
cmp "$WORKDIR/serve_answers1.ndjson" "$WORKDIR/serve_answers4.ndjson" \
    || { echo "serve answers differ between --threads=1 and --threads=4"; exit 1; }
diff -r "$WORKDIR/serve_store1" "$WORKDIR/serve_store4" \
    || { echo "serve store files differ between --threads=1 and --threads=4"; exit 1; }
echo "serve stream of 11 queries identical at --threads=1 and --threads=4"
