#!/usr/bin/env bash
# Sharded-campaign acceptance test for the result store + query service.
#
# 1. Runs a reference (unsharded) adaptive campaign  -> golden CSV.
# 2. Runs the identical campaign as 3 shards; one shard is SIGKILLed
#    mid-flight and resumed from its (possibly torn) journal.
# 3. Merges the 3 shard journals into a result store and asserts the
#    merged CSV is byte-identical to the golden.
# 4. Query smoke against the merged store: a cache hit serves with zero
#    fresh trials, a cold cell answers with fresh trials and is written
#    back (the repeat is a cache hit with the identical interval), and an
#    off-grid rate is answered by the logistic surrogate.
# 5. A serve loop SIGKILLed in the middle of fresh write-backs, with the
#    journal's last line torn, is restarted and re-sent its queries: every
#    cell's final tally and interval, and the compacted journal, match an
#    uninterrupted loop's.
#
# Like kill_resume_test.sh, the campaign is sized to run for a while and
# the kill retries with shorter delays rather than passing vacuously when
# the shard finishes first.
#
# Usage: shard_merge_test.sh <path-to-robustify_cli> [workdir]
set -u

CLI=${1:?usage: shard_merge_test.sh <robustify_cli> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"
STORE="$WORKDIR/store"

# Outcome-defining spec flags (these feed the fingerprint — every command
# below must agree on them) vs. allocation flags (canonicalized away, but
# run/merge must agree so the reduction replays the same stopping rule).
SPEC=(fig6_1 --rates=0.05,0.1,0.2 --series=SGD+AS,SQS --series=Base)
ALLOC=(--ci=0.02 --budget=400)

echo "== golden run (unsharded) =="
"$CLI" run "${SPEC[@]}" "${ALLOC[@]}" --threads=1 \
    --journal="$WORKDIR/golden.journal" --csv="$WORKDIR/golden.csv" \
    --json="$WORKDIR/golden.json" > "$WORKDIR/golden.log" 2>&1 \
    || { echo "golden run failed"; cat "$WORKDIR/golden.log"; exit 1; }

run_shard() {
  local i=$1
  "$CLI" run "${SPEC[@]}" "${ALLOC[@]}" --threads=1 --shard="$i/3" \
      --journal="$WORKDIR/shard$i.journal" --csv="$WORKDIR/shard$i.csv" \
      --json="$WORKDIR/shard$i.json" > "$WORKDIR/shard$i.log" 2>&1
}

echo "== shards 0 and 2 (uninterrupted) =="
run_shard 0 || { echo "shard 0 failed"; cat "$WORKDIR/shard0.log"; exit 1; }
run_shard 2 || { echo "shard 2 failed"; cat "$WORKDIR/shard2.log"; exit 1; }

echo "== shard 1: SIGKILL mid-flight, then resume =="
killed=0
for delay in 0.8 0.4 0.2 0.1 0.05; do
  rm -f "$WORKDIR/shard1.journal"
  # run_shard's body, started directly: $! must be the shard itself, since
  # SIGKILLing a backgrounded function's subshell orphans the shard.
  "$CLI" run "${SPEC[@]}" "${ALLOC[@]}" --threads=1 --shard=1/3 \
      --journal="$WORKDIR/shard1.journal" --csv="$WORKDIR/shard1.csv" \
      --json="$WORKDIR/shard1.json" > "$WORKDIR/shard1.log" 2>&1 &
  pid=$!
  sleep "$delay"
  if ! kill -KILL "$pid" 2>/dev/null; then
    wait "$pid" 2>/dev/null
    echo "   shard finished before the kill; retrying with a shorter delay"
    continue
  fi
  wait "$pid" 2>/dev/null
  if [ ! -s "$WORKDIR/shard1.journal" ]; then
    echo "   killed before the journal header was written; retrying"
    continue
  fi
  echo "   journal has $(wc -l < "$WORKDIR/shard1.journal") lines at kill time"
  killed=1
  break
done
if [ "$killed" = 1 ]; then
  "$CLI" resume "${SPEC[@]}" "${ALLOC[@]}" --threads=1 --shard=1/3 \
      --journal="$WORKDIR/shard1.journal" --csv="$WORKDIR/shard1.csv" \
      --json="$WORKDIR/shard1.json" > "$WORKDIR/shard1.log" 2>&1 \
      || { echo "shard 1 resume failed"; cat "$WORKDIR/shard1.log"; exit 1; }
else
  # Too fast to interrupt on this host: fall back to a clean shard run so
  # the merge identity is still checked (and say so loudly).
  echo "   WARNING: could not interrupt shard 1; running it to completion"
  run_shard 1 || { echo "shard 1 failed"; cat "$WORKDIR/shard1.log"; exit 1; }
fi

echo "== merge 3 shard journals -> store -> CSV =="
"$CLI" merge "${SPEC[@]}" "${ALLOC[@]}" --store="$STORE" \
    --csv="$WORKDIR/merged.csv" \
    "$WORKDIR/shard0.journal" "$WORKDIR/shard1.journal" \
    "$WORKDIR/shard2.journal" > "$WORKDIR/merge.log" 2>&1 \
    || { echo "merge failed"; cat "$WORKDIR/merge.log"; exit 1; }
if ! cmp -s "$WORKDIR/golden.csv" "$WORKDIR/merged.csv"; then
  echo "FAIL: merged CSV differs from the unsharded golden"
  diff "$WORKDIR/golden.csv" "$WORKDIR/merged.csv" | head -20
  exit 1
fi
echo "PASS: merged CSV is byte-identical to the unsharded run"

json_field() {  # json_field <file> <key>  — numeric field from a flat object
  sed -E "s/.*\"$2\":([-+0-9.eE]+).*/\1/" "$1"
}
expect_source() {
  local file=$1 want=$2 label=$3
  if ! grep -q "\"source\":\"$want\"" "$file"; then
    echo "FAIL: $label expected source=$want, got: $(cat "$file")"
    exit 1
  fi
  echo "PASS: $label answered from $want"
}

echo "== query smoke: cache hit at a looser ci =="
"$CLI" query fig6_1 'Base' 0.1 "${SPEC[@]:1}" --store="$STORE" --ci=0.2 --no-fresh \
    > "$WORKDIR/q_hit.json" 2> "$WORKDIR/q_hit.log" \
    || { echo "cache-hit query failed"; cat "$WORKDIR/q_hit.log"; exit 1; }
expect_source "$WORKDIR/q_hit.json" cache "cache-hit query"
grep -q '"fresh_trials":0' "$WORKDIR/q_hit.json" \
    || { echo "FAIL: cache hit ran trials: $(cat "$WORKDIR/q_hit.json")"; exit 1; }

echo "== query smoke: cold cell -> fresh trials, repeat -> cache =="
# A series subset the sharded campaign never ran: its own fingerprint, so
# the first query misses and fills the store; the repeat must serve the
# write-back with the identical interval and zero trials.
COLD=(fig6_1 --rates=0.05,0.1,0.2 --series=SGD)
"$CLI" query fig6_1 'SGD' 0.1 "${COLD[@]:1}" --store="$STORE" --ci=0.25 \
    > "$WORKDIR/q_miss.json" 2> "$WORKDIR/q_miss.log" \
    || { echo "cache-miss query failed"; cat "$WORKDIR/q_miss.log"; exit 1; }
expect_source "$WORKDIR/q_miss.json" fresh-trials "cache-miss query"
if grep -q '"fresh_trials":0' "$WORKDIR/q_miss.json"; then
  echo "FAIL: miss ran zero fresh trials: $(cat "$WORKDIR/q_miss.json")"
  exit 1
fi
"$CLI" query fig6_1 'SGD' 0.1 "${COLD[@]:1}" --store="$STORE" --ci=0.25 \
    > "$WORKDIR/q_repeat.json" 2> "$WORKDIR/q_repeat.log" \
    || { echo "repeat query failed"; cat "$WORKDIR/q_repeat.log"; exit 1; }
expect_source "$WORKDIR/q_repeat.json" cache "repeat query"
for key in success_rate half_width trials; do
  a=$(json_field "$WORKDIR/q_miss.json" "$key")
  b=$(json_field "$WORKDIR/q_repeat.json" "$key")
  if [ "$a" != "$b" ]; then
    echo "FAIL: repeat query changed $key: $a -> $b"
    exit 1
  fi
done
echo "PASS: repeat query returned the identical interval"

echo "== query smoke: off-grid rate -> surrogate =="
"$CLI" query fig6_1 'Base' 0.15 "${SPEC[@]:1}" --store="$STORE" --ci=0.5 --no-fresh \
    > "$WORKDIR/q_surr.json" 2> "$WORKDIR/q_surr.log" \
    || { echo "surrogate query failed"; cat "$WORKDIR/q_surr.log"; exit 1; }
expect_source "$WORKDIR/q_surr.json" surrogate "off-grid query"

echo "== serve loop: SIGKILL mid write-back, restart, re-send =="
# 16 fig6_2 cells.  Three loose-ci passes seed a store whose compacted
# journal (a merge into a fresh store) is a sorted head larger than all the
# tight-ci pass adds, so that pass writes each cell back as an appended
# delta and never compacts: a write appended after the torn line would
# survive to the check.  The check queries read every cell's final tally
# from the cache.
SEED_Q="$WORKDIR/serve_seed.ndjson"
SERVE_Q="$WORKDIR/serve_queries.ndjson"
SERVE_CHECK="$WORKDIR/serve_check.ndjson"
: > "$SEED_Q"
: > "$SERVE_Q"
: > "$SERVE_CHECK"
for s in 'Base:SVD' 'SGD,LS' 'SGD+AS,LS' 'SGD+AS,SQS'; do
  for r in 0.001 0.01 0.05 0.1; do
    cell="\"app\":\"fig6_2\",\"series\":\"$s\",\"rate\":$r"
    for ci in 0.3 0.2 0.15; do
      echo "{$cell,\"ci\":$ci,\"surrogate\":false}" >> "$SEED_Q"
    done
    echo "{$cell,\"ci\":0.12,\"surrogate\":false}" >> "$SERVE_Q"
    echo "{$cell,\"ci\":1,\"fresh\":false,\"surrogate\":false}" >> "$SERVE_CHECK"
  done
done
serve() {  # serve <store> <queries> <answers>
  "$CLI" serve --store="$1" fig6_2 < "$2" > "$3" 2> "$3.log"
}
serve "$WORKDIR/serve_seed" "$SEED_Q" "$WORKDIR/serve_seed.out" \
    || { echo "seeding serve loop failed"; cat "$WORKDIR/serve_seed.out.log"; exit 1; }
"$CLI" merge fig6_2 --store="$WORKDIR/serve_base" \
    "$WORKDIR"/serve_seed/*/cells.journal > "$WORKDIR/serve_base.log" 2>&1 \
    || { echo "compacting the seeded store failed"; cat "$WORKDIR/serve_base.log"; exit 1; }
cp -r "$WORKDIR/serve_base" "$WORKDIR/serve_ref"
serve "$WORKDIR/serve_ref" "$SERVE_Q" "$WORKDIR/serve_ref.out" \
    || { echo "reference serve loop failed"; cat "$WORKDIR/serve_ref.out.log"; exit 1; }

KSTORE="$WORKDIR/serve_kill"
killed=0
for delay in 1.5 0.8 0.4 2.5; do
  rm -rf "$KSTORE"
  cp -r "$WORKDIR/serve_base" "$KSTORE"
  # Started directly, not through serve(), for the same reason as shard 1.
  "$CLI" serve --store="$KSTORE" fig6_2 < "$SERVE_Q" \
      > "$WORKDIR/serve_kill.out" 2> "$WORKDIR/serve_kill.out.log" &
  pid=$!
  sleep "$delay"
  if ! kill -KILL "$pid" 2>/dev/null; then
    wait "$pid" 2>/dev/null
    echo "   serve loop finished before the kill; retrying with another delay"
    continue
  fi
  wait "$pid" 2>/dev/null
  if [ ! -s "$WORKDIR/serve_kill.out" ]; then
    echo "   killed before the first write-back; retrying with another delay"
    continue
  fi
  killed=1
  break
done
if [ "$killed" = 1 ]; then
  echo "   killed after $(wc -l < "$WORKDIR/serve_kill.out") of $(wc -l < "$SERVE_Q") answers"
else
  echo "   WARNING: could not interrupt the serve loop; tearing its finished store"
  serve "$KSTORE" "$SERVE_Q" "$WORKDIR/serve_kill.out" \
      || { echo "serve loop failed"; cat "$WORKDIR/serve_kill.out.log"; exit 1; }
fi
KJOURNAL=$(ls "$KSTORE"/*/cells.journal)
if [ -z "$(tail -c 1 "$KJOURNAL")" ]; then
  # The kill left whole lines: tear the last one, as a kill inside an
  # append would, so the restart must drop it and compact.
  truncate -s -5 "$KJOURNAL"
fi
serve "$KSTORE" "$SERVE_Q" "$WORKDIR/serve_restart.out" \
    || { echo "restarted serve loop failed"; cat "$WORKDIR/serve_restart.out.log"; exit 1; }
serve "$WORKDIR/serve_ref" "$SERVE_CHECK" "$WORKDIR/check_ref.out" \
    || { echo "reference check queries failed"; exit 1; }
serve "$KSTORE" "$SERVE_CHECK" "$WORKDIR/check_kill.out" \
    || { echo "check queries failed"; exit 1; }
if [ "$(grep -c '"source":"cache"' "$WORKDIR/check_ref.out")" != \
     "$(wc -l < "$SERVE_CHECK")" ]; then
  echo "FAIL: check queries were not all cache answers"
  cat "$WORKDIR/check_ref.out"
  exit 1
fi
if ! cmp -s "$WORKDIR/check_ref.out" "$WORKDIR/check_kill.out"; then
  echo "FAIL: final tallies differ after SIGKILL + restart"
  diff "$WORKDIR/check_ref.out" "$WORKDIR/check_kill.out" | head -20
  exit 1
fi
echo "PASS: every cell's final tally and interval match the uninterrupted loop"
for side in ref kill; do
  "$CLI" merge fig6_2 --store="$WORKDIR/compact_$side" \
      "$WORKDIR"/serve_$side/*/cells.journal > "$WORKDIR/compact_$side.log" 2>&1 \
      || { echo "compacting the $side store failed"; cat "$WORKDIR/compact_$side.log"; exit 1; }
done
if ! cmp -s "$WORKDIR"/compact_ref/*/cells.journal "$WORKDIR"/compact_kill/*/cells.journal; then
  echo "FAIL: compacted journals differ after SIGKILL + restart"
  exit 1
fi
echo "PASS: compacted journal is byte-identical to the uninterrupted loop's"

echo "== list --fingerprints smoke =="
"$CLI" list --fingerprints > "$WORKDIR/list.txt" \
    || { echo "list --fingerprints failed"; exit 1; }
grep -Eq '^[0-9a-f]{16}  fig6_1$' "$WORKDIR/list.txt" \
    || { echo "FAIL: no fingerprint line for fig6_1"; cat "$WORKDIR/list.txt"; exit 1; }
echo "PASS: registry fingerprints listed"

echo "ALL PASS"
exit 0
