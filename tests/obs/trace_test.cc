/**
 * @file
 * Tracer unit tests: head-based sampling (rates, determinism),
 * context propagation, span nesting, ring overflow, and the Chrome
 * trace-event JSON exporter.
 *
 * TraceSpan/traceInstant record into Tracer::global(), so every
 * test that uses them restores the global sample rate and clears
 * the rings; the ring-mechanics tests use private Tracer instances.
 */

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.hh"

using namespace livephase;
using namespace livephase::obs;

namespace
{

/** Rate-1 sampling on the global tracer for one test, with clean
 *  rings before and after. */
struct ScopedGlobalTracing
{
    explicit ScopedGlobalTracing(double rate = 1.0)
    {
        Tracer::global().setSampleRate(rate);
        Tracer::global().reset();
    }

    ~ScopedGlobalTracing()
    {
        setCurrentTrace({});
        Tracer::global().setSampleRate(0.0);
        Tracer::global().reset();
    }
};

std::vector<SpanRecord>
spansNamed(const std::vector<SpanRecord> &spans, const char *name)
{
    std::vector<SpanRecord> out;
    for (const SpanRecord &s : spans)
        if (std::string(s.name) == name)
            out.push_back(s);
    return out;
}

TEST(Trace, RateZeroNeverSamples)
{
    Tracer tracer;
    ASSERT_DOUBLE_EQ(tracer.sampleRate(), 0.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(tracer.startTrace().sampled());
}

TEST(Trace, RateOneAlwaysSamplesWithUniqueIds)
{
    Tracer tracer;
    tracer.setSampleRate(1.0);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 100; ++i) {
        const TraceContext ctx = tracer.startTrace();
        ASSERT_TRUE(ctx.sampled());
        EXPECT_EQ(ctx.span_id, 0u) << "root context has no parent";
        ids.push_back(ctx.trace_id);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
        << "trace ids must be unique";
}

TEST(Trace, FractionalRateSamplesRoughlyThatFraction)
{
    Tracer tracer;
    tracer.setSampleRate(0.01);
    size_t sampled = 0;
    constexpr size_t N = 20000;
    for (size_t i = 0; i < N; ++i)
        sampled += tracer.startTrace().sampled() ? 1 : 0;
    // The decision stream is deterministic, so the tolerance only
    // covers the quality of the hash, not run-to-run noise.
    EXPECT_GT(sampled, N / 100 / 3);
    EXPECT_LT(sampled, N / 100 * 3);
}

TEST(Trace, SamplingDecisionIsDeterministicInSequenceNumber)
{
    Tracer a, b;
    a.setSampleRate(0.1);
    b.setSampleRate(0.1);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(a.startTrace().sampled(),
                  b.startTrace().sampled())
            << "decision " << i
            << " must be a pure function of the sequence number";
}

TEST(Trace, ScopedTraceInstallsAndRestores)
{
    setCurrentTrace({});
    EXPECT_FALSE(currentTrace().sampled());
    {
        ScopedTrace outer({11, 22});
        EXPECT_EQ(currentTrace().trace_id, 11u);
        EXPECT_EQ(currentTrace().span_id, 22u);
        {
            ScopedTrace inner({33, 44});
            EXPECT_EQ(currentTrace().trace_id, 33u);
        }
        EXPECT_EQ(currentTrace().trace_id, 11u);
    }
    EXPECT_FALSE(currentTrace().sampled());
}

TEST(Trace, SpanInertWithoutContext)
{
    ScopedGlobalTracing tracing;
    setCurrentTrace({});
    {
        TraceSpan span("should.not.record");
        EXPECT_FALSE(span.sampled());
        EXPECT_FALSE(span.context().sampled());
        span.annotate({"ignored", uint64_t{1}});
    }
    EXPECT_TRUE(Tracer::global().snapshotSpans().empty());
}

TEST(Trace, SpansNestUnderTheActiveContext)
{
    ScopedGlobalTracing tracing;
    const TraceContext root_ctx = Tracer::global().startTrace();
    ASSERT_TRUE(root_ctx.sampled());

    uint64_t root_id = 0, child_id = 0;
    {
        ScopedTrace scope(root_ctx);
        TraceSpan root("request");
        ASSERT_TRUE(root.sampled());
        root_id = root.context().span_id;
        EXPECT_EQ(currentTrace().span_id, root_id)
            << "an open span is the context for its scope";
        {
            TraceSpan child("stage");
            child_id = child.context().span_id;
            EXPECT_NE(child_id, root_id);
            traceInstant("event", {{"k", "v"}});
        }
        EXPECT_EQ(currentTrace().span_id, root_id)
            << "closing a span restores its parent context";
    }

    const auto spans =
        Tracer::global().snapshotTrace(root_ctx.trace_id);
    ASSERT_EQ(spans.size(), 3u);
    const auto roots = spansNamed(spans, "request");
    const auto children = spansNamed(spans, "stage");
    const auto events = spansNamed(spans, "event");
    ASSERT_EQ(roots.size(), 1u);
    ASSERT_EQ(children.size(), 1u);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(roots[0].parent_id, 0u);
    EXPECT_EQ(children[0].parent_id, root_id);
    EXPECT_EQ(events[0].parent_id, child_id);
    EXPECT_EQ(events[0].start_ns, events[0].end_ns)
        << "instants are zero-length";
    EXPECT_LE(roots[0].start_ns, children[0].start_ns);
    EXPECT_GE(roots[0].end_ns, children[0].end_ns);
}

TEST(Trace, AnnotationsTruncateAndCap)
{
    ScopedGlobalTracing tracing;
    ScopedTrace scope(Tracer::global().startTrace());
    {
        TraceSpan span("annotated");
        span.annotate({"a_very_long_key_name_indeed",
                       std::string(64, 'x')});
        span.annotate({"n", uint64_t{42}});
        span.annotate({"f", 2.5});
        span.annotate({"i", int64_t{-7}});
        span.annotate({"dropped", "over the cap"});
    }
    const auto spans = Tracer::global().snapshotSpans();
    ASSERT_EQ(spans.size(), 1u);
    const SpanRecord &rec = spans[0];
    ASSERT_EQ(rec.nannotations, SpanRecord::MAX_ANNOTATIONS);
    EXPECT_EQ(std::string(rec.annotations[0].key),
              std::string("a_very_long_key_name_indeed")
                  .substr(0, TraceAnnotation::KEY_LEN));
    EXPECT_EQ(std::string(rec.annotations[0].value).size(),
              TraceAnnotation::VALUE_LEN);
    EXPECT_STREQ(rec.annotations[1].value, "42");
    EXPECT_STREQ(rec.annotations[2].value, "2.5");
    EXPECT_STREQ(rec.annotations[3].value, "-7");
}

TEST(Trace, RingOverflowDropsOldest)
{
    Tracer tracer(8);
    SpanRecord rec;
    rec.trace_id = 1;
    for (uint64_t i = 0; i < 20; ++i) {
        rec.span_id = i + 1;
        rec.start_ns = i;
        rec.end_ns = i;
        tracer.record(rec);
    }
    EXPECT_EQ(tracer.totalRecorded(), 20u);
    const auto spans = tracer.snapshotSpans();
    ASSERT_EQ(spans.size(), 8u) << "ring keeps the newest 8";
    for (const SpanRecord &s : spans)
        EXPECT_GE(s.span_id, 13u) << "oldest spans are the drops";
}

TEST(Trace, ResetClearsRetainedSpans)
{
    Tracer tracer(8);
    SpanRecord rec;
    rec.trace_id = 1;
    rec.span_id = 2;
    tracer.record(rec);
    ASSERT_EQ(tracer.snapshotSpans().size(), 1u);
    tracer.reset();
    EXPECT_TRUE(tracer.snapshotSpans().empty());
}

TEST(Trace, SnapshotSeesSpansFromJoinedThreads)
{
    Tracer tracer(64);
    constexpr size_t THREADS = 4, PER_THREAD = 16;
    std::vector<std::thread> workers;
    for (size_t t = 0; t < THREADS; ++t)
        workers.emplace_back([&tracer, t] {
            SpanRecord rec;
            rec.trace_id = t + 1;
            for (size_t i = 0; i < PER_THREAD; ++i) {
                rec.span_id = i + 1;
                tracer.record(rec);
            }
        });
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(tracer.snapshotSpans().size(), THREADS * PER_THREAD)
        << "each thread records into its own ring";
    EXPECT_EQ(tracer.snapshotTrace(1).size(), PER_THREAD);
}

TEST(Trace, ThreadChurnReusesRings)
{
    // Threads that come and go one at a time (a daemon's connection
    // threads) share one ring between them instead of leaking one
    // each.
    Tracer tracer(8);
    constexpr uint64_t THREADS = 64;
    SpanRecord rec;
    rec.trace_id = 1;
    for (uint64_t i = 0; i < THREADS; ++i) {
        rec.span_id = i + 1;
        rec.start_ns = i;
        std::thread([&tracer, rec] { tracer.record(rec); }).join();
    }
    EXPECT_LE(tracer.ringCount(), 2u);
    EXPECT_EQ(tracer.totalRecorded(), THREADS);
    // A dead thread's span stays queryable until a reusing thread
    // overwrites it, so the newest spans are all still there.
    const auto spans = tracer.snapshotSpans();
    ASSERT_GE(spans.size(), 8u);
    EXPECT_EQ(spans.back().span_id, THREADS);
}

TEST(Trace, ChromeTraceJsonShape)
{
    SpanRecord span;
    span.trace_id = 0xabc;
    span.span_id = 0x1;
    span.parent_id = 0;
    span.start_ns = 2000;
    span.end_ns = 5000;
    span.tid = 3;
    std::snprintf(span.name, sizeof(span.name), "request");
    span.nannotations = 1;
    std::snprintf(span.annotations[0].key,
                  sizeof(span.annotations[0].key), "op");
    std::snprintf(span.annotations[0].value,
                  sizeof(span.annotations[0].value), "open \"q\"");

    SpanRecord instant = span;
    instant.span_id = 0x2;
    instant.parent_id = 0x1;
    instant.end_ns = instant.start_ns = 3000;
    std::snprintf(instant.name, sizeof(instant.name), "tick");
    instant.nannotations = 0;

    const std::string json = chromeTraceJson({span, instant});
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":3.000"), std::string::npos);
    EXPECT_NE(json.find("\"trace_id\":\"0xabc\""),
              std::string::npos);
    EXPECT_NE(json.find("\"parent_span_id\":\"0x1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"op\":\"open \\\"q\\\"\""),
              std::string::npos)
        << "annotation values must be JSON-escaped";
    EXPECT_EQ(json.find("\"dur\"", json.find("\"ph\":\"i\"")),
              std::string::npos)
        << "instants carry no dur field";
}

TEST(Trace, ChromeTraceJsonEmptyIsValid)
{
    const std::string json = chromeTraceJson({});
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

} // namespace
