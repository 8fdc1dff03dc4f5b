#!/usr/bin/env python3
"""Unit tests for net_loc.py on canned `git diff --numstat` input.

Stdlib-only; registered in ctest as `net_loc_unit`.
"""

import importlib.util
import os
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "net_loc", os.path.join(_HERE, "net_loc.py"))
net_loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(net_loc)

NUMSTAT = "\n".join([
    "10\t300\tsrc/service/protocol.cc",
    "2\t40\tsrc/service/protocol.hh",
    "5\t7\tbench/bench_obs_overhead.cc",
    "120\t30\ttests/service/protocol_test.cc",
    "0\t0\tlivebench/run.py",
    "90\t0\tscripts/net_loc.py",
    "3\t1\t.github/workflows/ci.yml",
    "4\t2\tCHANGES.md",
    "1\t1\tsrc/README.md",
    "-\t-\ttests/golden/blob.bin",
    "6\t0\texamples/quickstart.cpp",
    "",
])


class AreaOf(unittest.TestCase):
    def test_prefixes(self):
        self.assertEqual(net_loc.area_of("src/a.cc"), "src")
        self.assertEqual(net_loc.area_of("bench/b.cc"), "bench")
        self.assertEqual(net_loc.area_of("tests/c.cc"), "tests")
        self.assertEqual(net_loc.area_of("livebench/d.py"),
                         "livebench")
        self.assertEqual(net_loc.area_of("scripts/e.sh"),
                         "scripts/CI")
        self.assertEqual(net_loc.area_of(".github/workflows/ci.yml"),
                         "scripts/CI")

    def test_markdown_wins_over_directory(self):
        self.assertEqual(net_loc.area_of("ROADMAP.md"), "*.md")
        self.assertEqual(net_loc.area_of("src/NOTES.md"), "*.md")

    def test_everything_else_is_other(self):
        self.assertEqual(net_loc.area_of("CMakeLists.txt"), "other")
        self.assertEqual(net_loc.area_of("srcfoo/x.cc"), "other")


class Tally(unittest.TestCase):
    def test_canned_numstat(self):
        totals = net_loc.tally(NUMSTAT)
        self.assertEqual(totals["src"], [12, 340])
        self.assertEqual(totals["bench"], [5, 7])
        self.assertEqual(totals["tests"], [120, 30])
        self.assertEqual(totals["livebench"], [0, 0])
        self.assertEqual(totals["scripts/CI"], [93, 1])
        self.assertEqual(totals["*.md"], [5, 3])
        self.assertEqual(totals["other"], [6, 0])

    def test_empty_diff_has_every_area_at_zero(self):
        totals = net_loc.tally("")
        self.assertEqual(list(totals), net_loc.AREAS)
        self.assertTrue(all(v == [0, 0] for v in totals.values()))


class Render(unittest.TestCase):
    def test_net_and_total_lines(self):
        lines = net_loc.render(net_loc.tally(NUMSTAT)).splitlines()
        self.assertEqual(lines[0].split(),
                         ["area", "added", "removed", "net"])
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
        self.assertEqual(rows["src"], ["12", "340", "-328"])
        self.assertEqual(rows["tests"], ["120", "30", "+90"])
        self.assertEqual(rows["livebench"], ["0", "0", "+0"])
        self.assertEqual(rows["total"], ["241", "381", "-140"])
        self.assertEqual(len(lines), len(net_loc.AREAS) + 2)


if __name__ == "__main__":
    unittest.main()
