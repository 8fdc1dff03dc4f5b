#!/bin/sh
# Tier-1 verification: configure, build everything, run the full
# test suite (which includes the bench_service_throughput_ci and
# bench_obs_overhead_ci gates).
#
# Usage: scripts/verify.sh [--tsan] [--asan] [--sim] [build-dir]
#
# --tsan additionally builds a ThreadSanitizer configuration and
# runs the concurrency-sensitive suites (service + obs + chaos)
# under it.
# --asan additionally builds an AddressSanitizer+UBSan
# configuration and runs the same suites plus the fault tests.
# --sim additionally runs the deterministic-simulation slice: the
# `sim` ctest label, the canary self-check (the invariant detector
# must catch a forced duplicate) and a small seed sweep through
# scripts/sim_sweep.py. The nightly workflow runs the wide sweep.
set -eu

cd "$(dirname "$0")/.."

TSAN=0
ASAN=0
SIM=0
while [ $# -gt 0 ]; do
    case "$1" in
      --tsan) TSAN=1; shift ;;
      --asan) ASAN=1; shift ;;
      --sim) SIM=1; shift ;;
      *) break ;;
    esac
done
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# The suites whose bugs are concurrency- or memory-shaped: service,
# obs, admission (lock-free token buckets + controller thread) and
# the chaos/fault-injection tests.
SAN_TARGETS="test_service test_obs test_obs_golden test_fault test_chaos test_admission"
SAN_FILTER='Obs|FlightRecorder|Metrics|Histogram|Span|Runtime|Service|Session|Protocol|Exposition|Trace|Fault|Chaos|Ratekeeper|TagThrottler|QosSpec|Watchdog|TimeSeries|PhaseTelemetry|FlightDump|Profiler|SeqlockRing'

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

# The obs, tracing, allocation and admission gates also run inside
# ctest (bench_obs_overhead_ci / bench_trace_overhead_ci /
# bench_pipeline_allocs_ci / bench_admission_goodput_ci); re-run
# them visibly so the budget numbers show up in the verification
# log. The timing gates go through the same cool-down retry as
# their ctest twins — the suite that just finished leaves load the
# single-digit-percent budgets cannot be measured under.
RETRY="scripts/bench_retry.sh 3"
$RETRY "$BUILD_DIR"/bench/bench_obs_overhead --check
$RETRY "$BUILD_DIR"/bench/bench_obs_overhead --check --watchdog \
    --batches 2048
$RETRY "$BUILD_DIR"/bench/bench_obs_overhead --check --profiler \
    --batches 2048
$RETRY "$BUILD_DIR"/bench/bench_trace_overhead --check
"$BUILD_DIR"/bench/bench_pipeline_allocs --check
$RETRY "$BUILD_DIR"/bench/bench_admission_goodput --check

if [ "$SIM" = 1 ]; then
    # The sim label re-runs fast (3-seed smoke replays); then the
    # canary proves the invariant checker detects what it claims to,
    # and a 30-seed sweep slice walks fresh seed space.
    (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS" -L sim)
    "$BUILD_DIR"/tools/sim_runner --seed 7 --scenario steady \
        --canary --expect-violation
    python3 scripts/sim_sweep.py \
        --runner "$BUILD_DIR"/tools/sim_runner \
        --seed-base "$(date +%j)00" --seeds 30 --jobs "$JOBS"
fi

if [ "$ASAN" = 1 ]; then
    ASAN_DIR="${BUILD_DIR}-asan"
    cmake -B "$ASAN_DIR" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
    # shellcheck disable=SC2086
    cmake --build "$ASAN_DIR" -j "$JOBS" --target $SAN_TARGETS
    (cd "$ASAN_DIR" && ctest --output-on-failure -j "$JOBS" \
        -R "$SAN_FILTER")
fi

if [ "$TSAN" = 1 ]; then
    TSAN_DIR="${BUILD_DIR}-tsan"
    cmake -B "$TSAN_DIR" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    # shellcheck disable=SC2086
    cmake --build "$TSAN_DIR" -j "$JOBS" --target $SAN_TARGETS
    (cd "$TSAN_DIR" && ctest --output-on-failure -j "$JOBS" \
        -R "$SAN_FILTER")
fi
