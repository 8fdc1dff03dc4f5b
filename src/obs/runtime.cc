#include "obs/runtime.hh"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/clock.hh"
#include "obs/metrics.hh"

namespace livephase::obs
{

namespace detail
{
std::atomic<bool> obs_enabled{false};
} // namespace detail

void
setEnabled(bool on)
{
    detail::obs_enabled.store(on, std::memory_order_relaxed);
}

uint64_t
monoNowNs()
{
    // The time seam (common/clock.hh): wall steady clock by
    // default, the simulator's virtual clock when one is installed.
    return timebase::nowNs();
}

uint64_t
sinceStartNs()
{
    // Captured on first use; every later caller subtracts the same
    // anchor, so timestamps across threads share one timebase.
    static const uint64_t start = monoNowNs();
    const uint64_t now = monoNowNs();
    return now >= start ? now - start : 0;
}

uint32_t
threadId()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed) + 1;
    return id;
}

namespace
{

struct SpanStack
{
    const char *names[SPAN_STACK_DEPTH] = {};
    size_t depth = 0; ///< may exceed SPAN_STACK_DEPTH (overflow)
};

thread_local SpanStack span_stack;

} // namespace

void
pushSpan(const char *name)
{
    SpanStack &s = span_stack;
    if (s.depth < SPAN_STACK_DEPTH)
        s.names[s.depth] = name;
    ++s.depth;
}

void
popSpan()
{
    SpanStack &s = span_stack;
    if (s.depth > 0)
        --s.depth;
}

size_t
currentSpanPath(char *buf, size_t size)
{
    if (size == 0)
        return 0;
    const SpanStack &s = span_stack;
    const size_t depth =
        s.depth < SPAN_STACK_DEPTH ? s.depth : SPAN_STACK_DEPTH;
    size_t out = 0;
    for (size_t i = 0; i < depth; ++i) {
        const char *name = s.names[i];
        if (i > 0 && out + 1 < size)
            buf[out++] = '/';
        for (const char *c = name; *c && out + 1 < size; ++c)
            buf[out++] = *c;
    }
    buf[out] = '\0';
    return out;
}

void
copyTruncated(char *dst, size_t dst_size, const char *src)
{
    std::snprintf(dst, dst_size, "%s", src ? src : "");
}

const BuildInfo &
buildInfo()
{
#ifdef LIVEPHASE_VERSION
    static const char *version = LIVEPHASE_VERSION;
#else
    static const char *version = "0.0.0";
#endif
#ifdef LIVEPHASE_GIT_SHA
    static const char *git_sha = LIVEPHASE_GIT_SHA;
#else
    static const char *git_sha = "unknown";
#endif
#if defined(__clang__)
    static const char compiler[] = "clang " __clang_version__;
#elif defined(__GNUC__)
    static const char compiler[] = "gcc " __VERSION__;
#else
    static const char compiler[] = "unknown";
#endif
    static const BuildInfo info{version, git_sha, compiler};
    return info;
}

void
refreshRuntimeMetrics()
{
    const BuildInfo &info = buildInfo();
    // Labels are baked into the registered name; the series is
    // created once and its value is the constant 1.
    static Gauge &build_gauge = [&]() -> Gauge & {
        char name[256];
        std::snprintf(name, sizeof(name),
                      "livephase_build_info{version=\"%s\","
                      "git_sha=\"%s\",compiler=\"%s\"}",
                      info.version, info.git_sha, info.compiler);
        return MetricsRegistry::global().gauge(name);
    }();
    build_gauge.set(1.0);
    static Gauge &uptime = MetricsRegistry::global().gauge(
        "livephase_uptime_seconds");
    uptime.set(static_cast<double>(sinceStartNs()) / 1e9);
}

Histogram &
queueWaitSecondsHistogram()
{
    static Histogram &hist = MetricsRegistry::global().histogram(
        "livephase_queue_wait_seconds");
    return hist;
}

} // namespace livephase::obs
