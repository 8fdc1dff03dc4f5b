#!/usr/bin/env python3
"""Unit tests for livebench_cpu.py on canned output and a stand-in
child process (no livebench build).

Stdlib-only; registered in ctest as `livebench_cpu_unit`.
"""

import importlib.util
import os
import sys
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "livebench_cpu", os.path.join(_HERE, "livebench_cpu.py"))
livebench_cpu = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(livebench_cpu)

RESULT = ('{"correct": true, "attempted": 2000, "failed": 0, '
          '"metrics": {"setup_s": {"value": 0.01, "unit": "s"}}}')


class ParseResult(unittest.TestCase):
    def test_last_line_after_the_table(self):
        stdout = "  requests/s by segment: 1 2\n  setup_s 0.01 s\n" + \
            RESULT + "\n\n"
        result = livebench_cpu.parse_result(stdout)
        self.assertEqual(result["attempted"], 2000)
        self.assertTrue(result["correct"])

    def test_no_result(self):
        self.assertIsNone(livebench_cpu.parse_result(""))
        self.assertIsNone(livebench_cpu.parse_result("built\n"))
        self.assertIsNone(livebench_cpu.parse_result('{"x": 1}\n'))
        self.assertIsNone(livebench_cpu.parse_result("[1, 2]\n"))


class CpuPerOp(unittest.TestCase):
    def test_microseconds_per_attempted_op(self):
        self.assertAlmostEqual(livebench_cpu.cpu_us_per_op(0.5, 10000),
                               50.0)

    def test_nothing_attempted(self):
        self.assertIsNone(livebench_cpu.cpu_us_per_op(1.0, 0))


class Measure(unittest.TestCase):
    def test_counts_the_childs_cpu_not_its_sleep(self):
        busy = ("import time\n"
                "end = time.process_time() + 0.2\n"
                "while time.process_time() < end: pass\n"
                "time.sleep(0.3)\n"
                "print('" + RESULT + "')\n")
        code, stdout, cpu_s = livebench_cpu.measure(
            [sys.executable, "-c", busy])
        self.assertEqual(code, 0)
        self.assertEqual(livebench_cpu.parse_result(stdout)["attempted"],
                         2000)
        self.assertGreaterEqual(cpu_s, 0.2)
        self.assertLess(cpu_s, 0.45)

    def test_passes_the_exit_status_through(self):
        code, _, _ = livebench_cpu.measure(
            [sys.executable, "-c", "raise SystemExit(3)"])
        self.assertEqual(code, 3)


if __name__ == "__main__":
    unittest.main()
