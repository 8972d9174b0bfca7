#!/usr/bin/env bash
# One fault stream per spec (wired into ctest as `stream_identity`): the
# process environment must not change what a campaign computes, because the
# store fingerprint only covers the spec.  Runs
#   robustify_cli run fig6_6 --fixed --trials=12
# with a clean environment and once under each variable that older builds
# read to pick an alternative fault stream, then requires
#   1. byte-identical CSVs across all runs, and
#   2. a single fingerprint across every journal header and every
#      `list --fingerprints` entry for fig6_6.
#
# Usage: stream_identity_test.sh <path-to-robustify_cli>
set -euo pipefail

CLI="${1:?usage: stream_identity_test.sh <path-to-robustify_cli>}"
FORMER_VARS=(ROBUSTIFY_RNG=fused ROBUSTIFY_FAULT_MODEL=stuck
             ROBUSTIFY_INJECTOR=perop ROBUSTIFY_ENGINE=scalar)

WORK_DIR="$(mktemp -d stream_identity.XXXXXX)"
trap 'rm -rf "$WORK_DIR"' EXIT

# run <tag> [VAR=value]: one campaign plus one fingerprint listing, with
# every former variable cleared except the one given.
run() {
  local tag="$1"
  shift
  local -a clean=()
  for assignment in "${FORMER_VARS[@]}"; do clean+=(-u "${assignment%%=*}"); done
  env "${clean[@]}" "$@" "$CLI" run fig6_6 --fixed --trials=12 --threads=2 \
    --journal="$WORK_DIR/$tag.journal" --csv="$WORK_DIR/$tag.csv" \
    --json="$WORK_DIR/BENCH_$tag.json" > "$WORK_DIR/$tag.log"
  env "${clean[@]}" "$@" "$CLI" list --fingerprints |
    awk '$2 == "fig6_6" { print $1 }' >> "$WORK_DIR/fingerprints"
  head -n 1 "$WORK_DIR/$tag.journal" | awk '{ print $NF }' >> "$WORK_DIR/fingerprints"
}

run unset
for assignment in "${FORMER_VARS[@]}"; do
  run "${assignment%%=*}" "$assignment"
done

status=0
for assignment in "${FORMER_VARS[@]}"; do
  tag="${assignment%%=*}"
  if ! cmp -s "$WORK_DIR/unset.csv" "$WORK_DIR/$tag.csv"; then
    echo "FAIL: $assignment changed the campaign CSV" >&2
    status=1
  fi
done
keys="$(sort -u "$WORK_DIR/fingerprints")"
if [ "$(printf '%s\n' "$keys" | grep -c .)" -ne 1 ]; then
  echo "FAIL: expected one fingerprint, got:" >&2
  printf '%s\n' "$keys" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "stream_identity_test: OK (fingerprint $keys)"
exit "$status"
