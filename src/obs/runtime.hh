/**
 * @file
 * Shared runtime plumbing for the telemetry subsystem: the global
 * enable flag the hot-path instrumentation checks, a monotonic
 * clock anchored at process start, compact per-thread ids, and the
 * thread-local span stack that gives flight-recorder events their
 * context.
 *
 * Everything here is deliberately tiny: when telemetry is disabled
 * (the default), an instrumented call site costs one relaxed atomic
 * load and a predictable branch — the discipline the paper applies
 * to its own PMI handler ("no visible overheads") applied to our
 * measurement of the measurement layer.
 */

#ifndef LIVEPHASE_OBS_RUNTIME_HH
#define LIVEPHASE_OBS_RUNTIME_HH

#include <atomic>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace livephase::obs
{

class Histogram;

namespace detail
{
extern std::atomic<bool> obs_enabled;
} // namespace detail

/** True when span timing / metric sampling is active. */
inline bool
enabled()
{
    return detail::obs_enabled.load(std::memory_order_relaxed);
}

/** Turn span timing and metric sampling on or off (default off).
 *  Counters incremented directly through the registry are always
 *  live; this flag gates only the timed instrumentation. */
void setEnabled(bool on);

/** Monotonic nanoseconds since an arbitrary epoch (steady clock). */
uint64_t monoNowNs();

/** Monotonic nanoseconds since the first obs call in this process;
 *  the timebase of flight-recorder timestamps. */
uint64_t sinceStartNs();

/**
 * Compact, stable id of the calling thread (1, 2, 3, ... in first-
 * use order). Cheaper and far more readable in trace dumps than
 * std::thread::id.
 */
uint32_t threadId();

/** Maximum nesting depth tracked per thread; deeper spans still
 *  time correctly but drop out of the recorded context path. */
constexpr size_t SPAN_STACK_DEPTH = 8;

/** Push a span label (string literal) onto this thread's stack. */
void pushSpan(const char *name);

/** Pop the innermost span label. */
void popSpan();

/**
 * Render this thread's active span path as "outer/inner" into
 * `buf` (always NUL-terminated, truncating silently). Returns the
 * number of characters written (excluding the NUL).
 */
size_t currentSpanPath(char *buf, size_t size);

/** Copy `src` (nullptr reads as "") into `dst`, truncated to fit;
 *  always NUL-terminated. */
void copyTruncated(char *dst, size_t dst_size, const char *src);

/**
 * One key=value attachment — a flight-recorder field or a trace-span
 * annotation — preformatted into fixed buffers at the call site, so
 * a record can never embed raw payload bytes unless a call site
 * formats them in. Trivially copyable: records holding it stay
 * seqlock-ring payloads. Two value lengths are in use:
 * FlightRecorder::FieldArg (63) and TraceAnnotation (31).
 */
template <size_t VALUE_CHARS>
struct KeyValue
{
    static constexpr size_t KEY_LEN = 15;
    static constexpr size_t VALUE_LEN = VALUE_CHARS;

    KeyValue() = default;

    KeyValue(const char *k, const char *v)
    {
        copyTruncated(key, sizeof(key), k);
        copyTruncated(value, sizeof(value), v);
    }

    KeyValue(const char *k, const std::string &v)
        : KeyValue(k, v.c_str())
    {
    }

    KeyValue(const char *k, uint64_t v)
    {
        copyTruncated(key, sizeof(key), k);
        std::snprintf(value, sizeof(value), "%" PRIu64, v);
    }

    KeyValue(const char *k, int64_t v)
    {
        copyTruncated(key, sizeof(key), k);
        std::snprintf(value, sizeof(value), "%" PRId64, v);
    }

    KeyValue(const char *k, double v)
    {
        copyTruncated(key, sizeof(key), k);
        std::snprintf(value, sizeof(value), "%g", v);
    }

    char key[KEY_LEN + 1] = {};
    char value[VALUE_LEN + 1] = {};
};

/** Compile-time identity of this build, for exposition labels. */
struct BuildInfo
{
    const char *version;  ///< project version (CMake)
    const char *git_sha;  ///< short commit sha ("unknown" outside git)
    const char *compiler; ///< compiler id + version
};

const BuildInfo &buildInfo();

/**
 * Refresh the registry's runtime self-description:
 * `livephase_build_info{version=...,git_sha=...,compiler=...}` (a
 * constant-1 gauge carrying its facts as labels, the Prometheus
 * build-info idiom) and `livephase_uptime_seconds`. The service's
 * metricsText calls it right before each render, so both Prometheus
 * and JSONL always carry a fresh uptime.
 */
void refreshRuntimeMetrics();

/**
 * `livephase_queue_wait_seconds` — time a request spends between
 * enqueue and dequeue in the service's request queue, recorded
 * unconditionally (not gated by enabled()): it is the admission
 * controller's primary control signal, so it must keep flowing even
 * when span timing is off. Registered on first use; exposed through
 * the normal Prometheus/JSONL exposition like every histogram.
 */
Histogram &queueWaitSecondsHistogram();

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_RUNTIME_HH
