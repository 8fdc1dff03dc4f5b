#!/usr/bin/env python3
"""Net lines of code per area between two revisions.

Usage: scripts/net_loc.py BASE [REV]

Runs `git diff --numstat --no-renames BASE...REV` (REV defaults to
HEAD, so the diff is what REV added since it forked from BASE) and
prints added, removed and net lines for each area: src, bench,
tests, livebench, scripts/CI (scripts/ and .github/), *.md (any
Markdown file, wherever it lives) and other. Binary files count as
zero lines. Informational only: the exit status is 0 whenever git
succeeds.
"""

import subprocess
import sys

AREAS = ["src", "bench", "tests", "livebench", "scripts/CI", "*.md",
         "other"]

_PREFIXES = [
    ("src/", "src"),
    ("bench/", "bench"),
    ("tests/", "tests"),
    ("livebench/", "livebench"),
    ("scripts/", "scripts/CI"),
    (".github/", "scripts/CI"),
]


def area_of(path):
    """The area a repository path is counted under."""
    if path.endswith(".md"):
        return "*.md"
    for prefix, area in _PREFIXES:
        if path.startswith(prefix):
            return area
    return "other"


def parse_numstat(text):
    """Yield (added, removed, path) per `git diff --numstat` line."""
    for line in text.splitlines():
        if not line.strip():
            continue
        added, removed, path = line.split("\t", 2)
        # Binary files report "-" for both counts.
        yield (0 if added == "-" else int(added),
               0 if removed == "-" else int(removed), path)


def tally(text):
    """{area: [added, removed]} over every area, zeros included."""
    totals = {area: [0, 0] for area in AREAS}
    for added, removed, path in parse_numstat(text):
        entry = totals[area_of(path)]
        entry[0] += added
        entry[1] += removed
    return totals


def render(totals):
    """The per-area table, one line per area plus a total."""
    lines = ["%-12s %8s %8s %8s" % ("area", "added", "removed", "net")]
    all_added = all_removed = 0
    for area in AREAS:
        added, removed = totals[area]
        all_added += added
        all_removed += removed
        lines.append("%-12s %8d %8d %+8d" %
                     (area, added, removed, added - removed))
    lines.append("%-12s %8d %8d %+8d" %
                 ("total", all_added, all_removed,
                  all_added - all_removed))
    return "\n".join(lines)


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit("usage: net_loc.py BASE [REV]")
    rev = argv[2] if len(argv) == 3 else "HEAD"
    numstat = subprocess.run(
        ["git", "diff", "--numstat", "--no-renames",
         "%s...%s" % (argv[1], rev)],
        check=True, capture_output=True, text=True).stdout
    print(render(tally(numstat)))


if __name__ == "__main__":
    main(sys.argv)
