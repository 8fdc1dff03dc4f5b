#!/usr/bin/env python3
"""Library code that no shipped binary links, in bytes per object.

Build the repo, and livebench beside it, with one function per
section, then point this script at both build directories:

    cmake -B build-gc -S . -DCMAKE_CXX_FLAGS=-ffunction-sections \\
        -DLIVEPHASE_BUILD_TESTS=OFF
    cmake --build build-gc -j 2
    cmake -B build-gc-lb -S livebench \\
        -DCMAKE_CXX_FLAGS=-ffunction-sections
    cmake --build build-gc-lb -j 2 --target livebench
    python3 scripts/unreached.py build-gc build-gc-lb [--functions]

The library is read from the first directory. Every executable of
each build outside tests/ (the examples, the CLI, sim_runner, the
benches, livebench) is relinked into a scratch directory with
--gc-sections and without -rdynamic, which would otherwise keep every
exported symbol alive. A function of liblivephase.a (types T, t, W, w
in `nm`) whose name none of those binaries defines is unreached; a
weak function emitted by several objects is counted once.

The figure is approximate: a function inlined into all its callers
keeps no out-of-line copy in any binary and counts as unreached, so
grep a candidate before deleting it. A report, not a gate.
"""

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from collections import defaultdict

FUNCTION_TYPES = set("TtWw")


def parse_archive(text):
    """`nm -S -C --defined-only lib.a` -> [(object, name, size, weak)].

    Members start with an "object.o:" line; symbols without a size
    (labels, absolute symbols) are skipped.
    """
    funcs = []
    obj = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.endswith(":") and " " not in line:
            obj = line[:-1]
            continue
        parts = line.split(None, 3)
        if len(parts) < 4 or parts[2] not in FUNCTION_TYPES:
            continue
        funcs.append((obj, parts[3], int(parts[1], 16),
                      parts[2] in "Ww"))
    return funcs


def parse_binary(text):
    """`nm -C --defined-only binary` -> set of function names."""
    names = set()
    for line in text.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in FUNCTION_TYPES:
            names.add(parts[2])
    return names


def tally(funcs, reached):
    """-> (per-object {object: [(size, name), ...]}, total bytes).

    Only unreached functions are listed; a weak name counts once, in
    the first object that defines it.
    """
    unreached = defaultdict(list)
    seen_weak = set()
    total = 0
    for obj, name, size, weak in funcs:
        if weak:
            if name in seen_weak:
                continue
            seen_weak.add(name)
        total += size
        if name not in reached:
            unreached[obj].append((size, name))
    return unreached, total


def render(unreached, total, binaries, functions=False):
    dead = sum(size for rows in unreached.values() for size, _ in rows)
    count = sum(len(rows) for rows in unreached.values())
    pct = 100.0 * dead / total if total else 0.0
    lines = [
        f"unreached: {dead} of {total} bytes ({pct:.1f}%) in {count} "
        f"functions, over {binaries} binaries",
        f"{'bytes':>8} {'funcs':>6}  object",
    ]
    bytes_of = {obj: sum(s for s, _ in rows)
                for obj, rows in unreached.items()}
    for obj, rows in sorted(unreached.items(),
                            key=lambda kv: (-bytes_of[kv[0]], kv[0])):
        lines.append(f"{bytes_of[obj]:>8} {len(rows):>6}  {obj}")
        if functions:
            for size, name in sorted(rows, key=lambda r: (-r[0], r[1])):
                lines.append(f"{'':>8} {size:>6}    {name}")
    return "\n".join(lines) + "\n"


def relink_commands(build_dir):
    """(cwd, argv, name) per built executable outside tests/."""
    for root, _dirs, files in os.walk(build_dir):
        if "link.txt" not in files:
            continue
        rel = os.path.relpath(root, build_dir)
        if rel.startswith("tests") or not rel.endswith(".dir"):
            continue
        with open(os.path.join(root, "link.txt")) as f:
            argv = shlex.split(f.read())
        if "-o" not in argv:
            continue  # a static library
        cwd = os.path.dirname(os.path.dirname(root))
        out = argv[argv.index("-o") + 1]
        if os.path.exists(os.path.join(cwd, out)):  # built targets only
            yield cwd, argv, os.path.basename(out)


def run(argv, cwd=None):
    return subprocess.run(argv, cwd=cwd, check=True, text=True,
                          capture_output=True).stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_dirs", nargs="+",
                    help="builds whose executables count as shipped; "
                    "the first holds src/liblivephase.a")
    ap.add_argument("--functions", action="store_true",
                    help="list each unreached function")
    args = ap.parse_args()

    lib = os.path.join(args.build_dirs[0], "src", "liblivephase.a")
    if not os.path.exists(lib):
        sys.exit(f"unreached.py: no {lib}; build the library first")
    funcs = parse_archive(run(["nm", "-S", "-C", "--defined-only", lib]))

    reached = set()
    with tempfile.TemporaryDirectory() as tmp:
        links = [link for build_dir in args.build_dirs
                 for link in relink_commands(build_dir)]
        for n, (cwd, argv, name) in enumerate(links):
            out = os.path.join(tmp, f"{n}-{name}")
            argv = [a for a in argv
                    if a not in ("-rdynamic", "-Wl,--export-dynamic")]
            argv[argv.index("-o") + 1] = out
            run(argv + ["-Wl,--gc-sections"], cwd=cwd)
            reached |= parse_binary(run(["nm", "-C", "--defined-only",
                                         out]))
    unreached, total = tally(funcs, reached)
    sys.stdout.write(render(unreached, total, len(links),
                            args.functions))


if __name__ == "__main__":
    main()
