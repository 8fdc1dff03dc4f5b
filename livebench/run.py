#!/usr/bin/env python3
"""Build and run livebench, the end-to-end livephased benchmark.

Run from the root of the repository:

    python3 livebench/run.py --workload bulk_spec_k256 --seed 1 \
        --seconds 10 --trace 0
    python3 livebench/run.py --selftest

The first run configures and builds livebench/CMakeLists.txt (which
builds the library from ../src) under $CARGO_TARGET_DIR, or under
.bench_build when that is unset; later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit status is non-zero, and no result
is printed, when the sources are missing, the build fails, the socket
server cannot start, or the run takes longer than its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"livebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configure once, then build `target`; returns its path."""
    if not os.path.isfile(os.path.join(REPO, "src", "service", "service.hh")):
        fail("the livephase sources (src/) are missing next to livebench/")
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "livebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir, os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper self-test")
    args = parser.parse_args()

    if args.selftest:
        _, binary = build("livebench_selftest")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        parser.error("--workload is required")

    build_dir, binary = build("livebench")
    # The socket lives in the build directory under a short relative
    # name, so its path fits sun_path however deep the checkout is.
    socket = f"livebench-{os.getpid()}.sock"
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--socket", socket]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=build_dir, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        sock_path = os.path.join(build_dir, socket)
        if os.path.exists(sock_path):
            os.unlink(sock_path)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
