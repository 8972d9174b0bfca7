#!/usr/bin/env bash
# Fixture guard (wired into ctest as `untracked_fixtures`): fails when
# tests/ holds files that git ignores and does not track.  Such a fixture
# exists only in the working tree that created it, so tests reading it pass
# there and fail on every fresh clone.  Exits 77 (ctest: skipped) when the
# source tree is not a git checkout.
#
# Usage: untracked_fixtures_test.sh <repo-root>
set -euo pipefail

SRC_DIR="${1:?usage: untracked_fixtures_test.sh <repo-root>}"

if ! git -C "$SRC_DIR" rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  echo "untracked_fixtures_test: $SRC_DIR is not a git checkout, skipping"
  exit 77
fi

ignored="$(git -C "$SRC_DIR" ls-files --others --ignored --exclude-standard -- tests/)"
if [ -n "$ignored" ]; then
  echo "FAIL: ignored, untracked files under tests/ (commit them or un-ignore them):" >&2
  printf '%s\n' "$ignored" >&2
  exit 1
fi
echo "untracked_fixtures_test: OK"
