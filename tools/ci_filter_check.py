#!/usr/bin/env python3
"""Fail when a --gtest_filter in the CI workflow selects nothing.

Usage: ci_filter_check.py <ci.yml> <robustify_tests binary>

Every --gtest_filter value in the workflow is split into its
colon-separated patterns (positive and, after '-', negative), and each
pattern must match at least one test that `<binary> --gtest_list_tests`
prints.  A pattern that matches nothing is a stale name: the CI leg it
sits in silently stops covering what it was written for, and gtest itself
does not flag it.
"""

import re
import subprocess
import sys

FILTER_RE = re.compile(r"""--gtest_filter=(?:'([^']*)'|"([^"]*)"|(\S+))""")


def list_tests(binary):
    out = subprocess.run([binary, "--gtest_list_tests"], check=True,
                         capture_output=True, text=True).stdout
    names, suite = [], None
    for line in out.splitlines():
        # Drop the "# GetParam() = ..." / "# TypeParam = ..." annotations.
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        if not line.startswith(" "):
            suite = token if token.endswith(".") else None
        elif suite is not None:
            names.append(suite + token)
    return names


def pattern_regex(pattern):
    # gtest wildcards: '*' is any string, '?' is any one character.
    body = re.escape(pattern).replace(r"\*", ".*").replace(r"\?", ".")
    return re.compile(body + r"\Z")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        workflow = f.read()
    filters = [next(g for g in m.groups() if g is not None)
               for m in FILTER_RE.finditer(workflow)]
    if not filters:
        print(f"{argv[1]}: no --gtest_filter found", file=sys.stderr)
        return 1
    tests = list_tests(argv[2])
    if not tests:
        print(f"{argv[2]}: --gtest_list_tests listed no tests", file=sys.stderr)
        return 1

    stale = 0
    for value in filters:
        for pattern in re.split(r"[:\-]", value):
            if not pattern:
                continue
            regex = pattern_regex(pattern)
            if not any(regex.match(name) for name in tests):
                print(f"stale pattern '{pattern}' in --gtest_filter='{value}': "
                      f"matches none of {len(tests)} tests")
                stale += 1
    print(f"{len(filters)} filter(s), {len(tests)} tests, {stale} stale pattern(s)")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
