#!/usr/bin/env bash
# Figure byte pin (wired into ctest as `robustify_cli_fig_<name>` and
# `robustify_cli_list_fingerprints`): regenerates one registry figure at its
# --fixed defaults, or the `list --fingerprints` listing, in the current
# directory and compares it byte for byte with the committed golden under
# tests/golden/figures/.  A deliberate stream change regenerates the affected
# goldens in the same commit (copy the new file over the golden).
#
# Usage: figure_golden_test.sh <path-to-robustify_cli> <golden-dir> <figure|list>
set -u

CLI=${1:?usage: figure_golden_test.sh <robustify_cli> <golden-dir> <figure|list>}
GOLDEN_DIR=${2:?missing golden dir}
WHAT=${3:?missing figure name (or list)}

if [ "$WHAT" = list ]; then
  OUT=list_fingerprints.txt
  "$CLI" list --fingerprints > "$OUT" || { echo "list --fingerprints failed"; exit 1; }
else
  OUT=campaign_$WHAT.csv
  "$CLI" run "$WHAT" --fixed --journal="fig_$WHAT.journal" --csv="$OUT" \
      --json="BENCH_campaign_$WHAT.json" || { echo "run $WHAT failed"; exit 1; }
fi

if ! cmp "$GOLDEN_DIR/$OUT" "$OUT"; then
  echo "$OUT differs from the golden $GOLDEN_DIR/$OUT:"
  diff "$GOLDEN_DIR/$OUT" "$OUT" | head -40
  exit 1
fi
echo "$OUT matches its golden"
