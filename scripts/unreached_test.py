#!/usr/bin/env python3
"""Unit tests for unreached.py on canned `nm` output.

Stdlib-only; registered in ctest as `unreached_unit`.
"""

import importlib.util
import os
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "unreached", os.path.join(_HERE, "unreached.py"))
unreached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unreached)

# `nm -S -C --defined-only liblivephase.a`
ARCHIVE = "\n".join([
    "",
    "metrics.cc.o:",
    "0000000000000000 r .LC1",
    "0000000000000000 0000000000000040 T "
    "livephase::obs::Gauge::add(double)",
    "0000000000000040 0000000000000010 T livephase::obs::reach()",
    "0000000000000008 0000000000000008 b guard variable for x",
    "0000000000000000 0000000000000020 W livephase::obs::inl()",
    "0000000000000050 0000000000000030 t (anonymous namespace)::helper()",
    "",
    "exposition.cc.o:",
    "0000000000000000 0000000000000100 T livephase::obs::dead(int, int)",
    "0000000000000000 0000000000000020 W livephase::obs::inl()",
    "0000000000000100 T livephase::obs::no_size",
    "",
])

# `nm -C --defined-only <binary>`
BINARY = "\n".join([
    "000000000004e290 V DW.ref.__gxx_personality_v0",
    "0000000000001000 T livephase::obs::reach()",
    "0000000000001010 t (anonymous namespace)::helper()",
    "0000000000002000 T main",
    "0000000000003000 D some_data",
])


class ParseArchive(unittest.TestCase):
    def test_functions_with_sizes_by_object(self):
        funcs = unreached.parse_archive(ARCHIVE)
        self.assertEqual(funcs, [
            ("metrics.cc.o", "livephase::obs::Gauge::add(double)", 64,
             False),
            ("metrics.cc.o", "livephase::obs::reach()", 16, False),
            ("metrics.cc.o", "livephase::obs::inl()", 32, True),
            ("metrics.cc.o", "(anonymous namespace)::helper()", 48,
             False),
            ("exposition.cc.o", "livephase::obs::dead(int, int)", 256,
             False),
            ("exposition.cc.o", "livephase::obs::inl()", 32, True),
        ])


class ParseBinary(unittest.TestCase):
    def test_text_symbols_only(self):
        self.assertEqual(unreached.parse_binary(BINARY), {
            "livephase::obs::reach()",
            "(anonymous namespace)::helper()",
            "main",
        })


class Tally(unittest.TestCase):
    def test_unreached_per_object_and_weak_counted_once(self):
        funcs = unreached.parse_archive(ARCHIVE)
        dead, total = unreached.tally(
            funcs, unreached.parse_binary(BINARY))
        # 64 + 16 + 32 + 48 + 256; the second inl() is a duplicate.
        self.assertEqual(total, 416)
        self.assertEqual(dict(dead), {
            "metrics.cc.o": [(64, "livephase::obs::Gauge::add(double)"),
                             (32, "livephase::obs::inl()")],
            "exposition.cc.o": [(256,
                                 "livephase::obs::dead(int, int)")],
        })

    def test_render_sorts_objects_by_bytes(self):
        funcs = unreached.parse_archive(ARCHIVE)
        dead, total = unreached.tally(
            funcs, unreached.parse_binary(BINARY))
        text = unreached.render(dead, total, 3)
        self.assertEqual(text.splitlines(), [
            "unreached: 352 of 416 bytes (84.6%) in 3 functions, "
            "over 3 binaries",
            "   bytes  funcs  object",
            "     256      1  exposition.cc.o",
            "      96      2  metrics.cc.o",
        ])
        listed = unreached.render(dead, total, 3, functions=True)
        self.assertIn("\n             64    "
                      "livephase::obs::Gauge::add(double)\n", listed)


if __name__ == "__main__":
    unittest.main()
