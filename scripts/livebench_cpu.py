#!/usr/bin/env python3
"""Process CPU per attempted operation of one livebench run.

Run from the root of the repository:

    python3 scripts/livebench_cpu.py --workload bulk_spec_k256 --seed 1 \
        --seconds 10

It builds livebench first (livebench/run.py's own build step), then
runs the workload through livebench/run.py and takes the CPU time,
user plus system, of that run from the RUSAGE_CHILDREN delta around
it. The build is done before the delta starts, so it is excluded;
run.py's start-up and its up-to-date check of the build are not (a
few hundred ms, well under 1% of a 10 s run). The CPU covers the whole
run: input preparation, every segment's set-up and warm-up, and the
measured windows. It is divided by the run's `attempted` count.

livebench reports wall-clock metrics only. This is the number to
watch when a change trades CPU for latency (spinning instead of
blocking, more threads). Prints run.py's output to stderr and one
JSON line to stdout:

    {"workload": ..., "seed": ..., "seconds": ..., "correct": true,
     "attempted": N, "failed": 0, "cpu_s": ..., "cpu_us_per_op": ...}

The exit status is run.py's: non-zero when the run was not correct
(the line is still printed) or produced no result (nothing printed).
"""

import argparse
import importlib.util
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(os.path.dirname(HERE), "livebench", "run.py")


def children_cpu_s():
    """User + system CPU seconds of every waited-for child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(command):
    """Run `command`; returns (returncode, stdout, CPU seconds)."""
    before = children_cpu_s()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout, children_cpu_s() - before


def parse_result(stdout):
    """livebench's JSON result: the last non-empty line of stdout, or
    None when there is none."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "attempted" in result \
        else None


def cpu_us_per_op(cpu_s, attempted):
    """CPU microseconds per attempted op (None when nothing was
    attempted)."""
    if attempted <= 0:
        return None
    return cpu_s * 1e6 / attempted


def build_livebench():
    """Build the livebench target the way run.py does, so the timed
    run only finds the build up to date."""
    spec = importlib.util.spec_from_file_location("livebench_run", RUN_PY)
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    run_py.build("livebench")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)

    build_livebench()
    code, stdout, cpu_s = measure(
        [sys.executable, RUN_PY, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"])
    sys.stderr.write(stdout)
    result = parse_result(stdout)
    if result is None:
        print("livebench_cpu: the run printed no result", file=sys.stderr)
        return code or 2
    per_op = cpu_us_per_op(cpu_s, result["attempted"])
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": result.get("correct"),
        "attempted": result["attempted"],
        "failed": result.get("failed"),
        "cpu_s": round(cpu_s, 3),
        "cpu_us_per_op": None if per_op is None else round(per_op, 3),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
