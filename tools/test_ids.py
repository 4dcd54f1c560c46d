#!/usr/bin/env python3
"""Prints the ctest IDs added, removed and renamed between two build trees.

    python3 tools/test_ids.py <old build dir> <new build dir>

Each build tree must be configured and built (gtest discovery writes the
IDs at build time). The script runs `ctest --show-only=json-v1` in both.
A removed ID and an added ID count as one rename when either
  * they name the same gtest case and differ only in the
    `# GetParam() = ...` comment that gtest_discover_tests appends, or
  * they name the same test in another suite (the part after the first
    '.'), and no other removed or added ID has that name.
Anything else is listed as added or removed. The exit status is 0 unless
ctest fails.
"""

import json
import re
import subprocess
import sys

PARAM_COMMENT = re.compile(r"\s+# GetParam\(\) = .*$")


def test_ids(build_dir):
    listing = subprocess.run(
        ["ctest", "--show-only=json-v1"], cwd=build_dir, check=True,
        capture_output=True, text=True).stdout
    return {test["name"] for test in json.loads(listing)["tests"]}


def pair_by(key, removed, added):
    """Pairs removed with added IDs whose key is unique on both sides."""
    def unique(ids):
        by_key = {}
        for test_id in ids:
            by_key.setdefault(key(test_id), []).append(test_id)
        return {k: v[0] for k, v in by_key.items() if len(v) == 1}

    old, new = unique(removed), unique(added)
    return sorted((old[k], new[k]) for k in old.keys() & new.keys())


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    old, new = test_ids(argv[1]), test_ids(argv[2])
    removed, added = old - new, new - old
    renamed = []
    for key in (lambda t: PARAM_COMMENT.sub("", t),
                lambda t: t.split(".", 1)[-1]):
        pairs = pair_by(key, removed, added)
        renamed += pairs
        removed -= {old_id for old_id, _ in pairs}
        added -= {new_id for _, new_id in pairs}

    print(f"{len(old)} IDs in {argv[1]}, {len(new)} in {argv[2]}")
    for title, rows in (("added", sorted(added)),
                        ("removed", sorted(removed)),
                        ("renamed", [f"{a} -> {b}" for a, b in renamed])):
        print(f"\n{title} ({len(rows)}):")
        for row in rows:
            print("  " + row)


if __name__ == "__main__":
    main(sys.argv)
