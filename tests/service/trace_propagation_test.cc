/**
 * @file
 * End-to-end trace propagation: the client's head-sampling decision
 * travels through the wire trace block, the request queue and the
 * worker into the core pipeline, so one trace id links
 * client.request -> client.attempt -> service.handle -> core.*.
 * Also: version negotiation (no trace bytes to a v1 peer), the
 * response version echo, and the query-traces op end to end.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/runtime.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "test_util.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

struct ScopedTracing
{
    // Turning metrics on as well makes submit() stamp enqueue_ns,
    // which the service.handle span reports as queue_wait_us.
    explicit ScopedTracing(double rate) : obs_was(obs::enabled())
    {
        obs::setEnabled(true);
        obs::Tracer::global().setSampleRate(rate);
        obs::Tracer::global().reset();
    }

    ~ScopedTracing()
    {
        obs::setCurrentTrace({});
        obs::Tracer::global().setSampleRate(0.0);
        obs::Tracer::global().reset();
        obs::setEnabled(obs_was);
    }

    bool obs_was;
};

std::vector<IntervalRecord>
smallBatch()
{
    return {{100e6, 1e6, 1}, {100e6, 2e6, 2}, {100e6, 3e6, 3}};
}

const obs::SpanRecord *
findSpan(const std::vector<obs::SpanRecord> &spans,
         const char *name)
{
    for (const obs::SpanRecord &s : spans)
        if (std::string(s.name) == name)
            return &s;
    return nullptr;
}

std::string
annotation(const obs::SpanRecord &span, const char *key)
{
    for (uint8_t i = 0; i < span.nannotations; ++i)
        if (std::string(span.annotations[i].key) == key)
            return span.annotations[i].value;
    return {};
}

TEST(TracePropagation, SpanTreeLinksClientToCorePipeline)
{
    ScopedTracing tracing(1.0);
    LivePhaseService::Config cfg;
    cfg.workers = 1;
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);
    RetryPolicy policy;
    ServiceClient client(transport, policy);

    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    EXPECT_EQ(client.peerVersion(), PROTOCOL_VERSION)
        << "the Open response must advertise v2";

    obs::Tracer::global().reset(); // keep only the submit's trace
    ASSERT_EQ(client.submitBatch(open.session_id, smallBatch())
                  .status,
              Status::Ok);

    const auto spans = obs::Tracer::global().snapshotSpans();
    const auto *root = findSpan(spans, "client.request");
    const auto *attempt = findSpan(spans, "client.attempt");
    const auto *handle = findSpan(spans, "service.handle");
    const auto *classify = findSpan(spans, "core.classify");
    const auto *predict = findSpan(spans, "core.predict");
    const auto *policy_span = findSpan(spans, "core.policy");
    ASSERT_NE(root, nullptr);
    ASSERT_NE(attempt, nullptr);
    ASSERT_NE(handle, nullptr);
    ASSERT_NE(classify, nullptr);
    ASSERT_NE(predict, nullptr);
    ASSERT_NE(policy_span, nullptr);

    // One trace id end to end.
    for (const obs::SpanRecord &s : spans)
        EXPECT_EQ(s.trace_id, root->trace_id) << s.name;

    // Causal chain: root -> attempt -> handle -> core stages.
    EXPECT_EQ(root->parent_id, 0u);
    EXPECT_EQ(attempt->parent_id, root->span_id);
    EXPECT_EQ(handle->parent_id, attempt->span_id)
        << "the wire trace block parents the server to the attempt";
    EXPECT_EQ(classify->parent_id, handle->span_id);
    EXPECT_EQ(predict->parent_id, handle->span_id);
    EXPECT_EQ(policy_span->parent_id, handle->span_id);

    // The handle span names the op and its queue wait.
    EXPECT_EQ(annotation(*handle, "op"), "submit-batch");
    EXPECT_NE(annotation(*handle, "queue_wait_us"), "");
    EXPECT_EQ(annotation(*root, "op"), "submit-batch");
}

TEST(TracePropagation, RateZeroRecordsNothing)
{
    ScopedTracing tracing(0.0);
    LivePhaseService::Config cfg;
    cfg.workers = 1;
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    ASSERT_EQ(client.submitBatch(open.session_id, smallBatch())
                  .status,
              Status::Ok);
    EXPECT_TRUE(obs::Tracer::global().snapshotSpans().empty());
}

TEST(TracePropagation, NoWireContextBeforeNegotiation)
{
    // Until an Open response advertises v2, the client must keep
    // its trace local: frames stay v1 and the server records no
    // spans for the trace (exactly how a v1 server is handled).
    ScopedTracing tracing(1.0);
    LivePhaseService::Config cfg;
    cfg.workers = 1;
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    ASSERT_EQ(client.peerVersion(), PROTOCOL_VERSION_MIN);
    EXPECT_EQ(client.submitBatch(99, smallBatch()).status,
              Status::UnknownSession);

    const auto spans = obs::Tracer::global().snapshotSpans();
    EXPECT_NE(findSpan(spans, "client.request"), nullptr)
        << "local tracing still works against a v1 peer";
    EXPECT_EQ(findSpan(spans, "service.handle"), nullptr)
        << "no context may leak onto a v1 wire";
}

TEST(TracePropagation, ResponseEchoesRequestVersion)
{
    LivePhaseService svc; // workers irrelevant: direct handleFrameInto
    // v1 (untraced) request -> v1 response.
    Bytes rx;
    svc.handleFrameInto(ENCODED(encodeStatsRequestInto), rx);
    ResponseView resp;
    ASSERT_TRUE(parseResponse(rx, resp));
    EXPECT_EQ(resp.header.version, PROTOCOL_VERSION_MIN);

    // v2 (traced) request -> v2 response.
    svc.handleFrameInto(ENCODED(encodeStatsRequestInto, {123, 0}), rx);
    ASSERT_TRUE(parseResponse(rx, resp));
    EXPECT_EQ(resp.header.version, PROTOCOL_VERSION);

    // Malformed v1 frame -> v1 error response.
    Bytes bad = ENCODED(encodeStatsRequestInto);
    bad[6] = 0x63; // unknown op
    svc.handleFrameInto(bad, rx);
    ASSERT_TRUE(parseResponse(rx, resp));
    EXPECT_EQ(resp.header.version, PROTOCOL_VERSION_MIN);
    EXPECT_EQ(resp.status, Status::BadFrame);
}

TEST(TracePropagation, QueryTracesReturnsChromeJson)
{
    ScopedTracing tracing(1.0);
    LivePhaseService::Config cfg;
    cfg.workers = 1;
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    ASSERT_EQ(client.submitBatch(open.session_id, smallBatch())
                  .status,
              Status::Ok);

    const auto all = client.queryTraces();
    ASSERT_EQ(all.status, Status::Ok);
    EXPECT_NE(all.json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(all.json.find("service.handle"), std::string::npos);
    EXPECT_NE(all.json.find("core.classify"), std::string::npos);

    // Filtered query: pick the submit trace's id out of a snapshot
    // and ask for just that tree.
    const auto spans = obs::Tracer::global().snapshotSpans();
    const auto *handle = findSpan(spans, "service.handle");
    ASSERT_NE(handle, nullptr);
    const auto one = client.queryTraces(handle->trace_id);
    ASSERT_EQ(one.status, Status::Ok);
    EXPECT_NE(one.json.find("service.handle"), std::string::npos);

    const auto none = client.queryTraces(0xffffffffffffffffULL);
    ASSERT_EQ(none.status, Status::Ok);
    EXPECT_EQ(none.json.find("service.handle"), std::string::npos);
}

TEST(TracePropagation, SpanStackHistogramsStillRecord)
{
    // The obs::Span trace twin must not disturb the histogram side:
    // a traced request still lands in livephase_span_us.
    ScopedTracing tracing(1.0);
    if (!obs::enabled())
        GTEST_SKIP() << "obs disabled in this build";
    obs::Histogram &hist = obs::spanHistogram("service.handle");
    const uint64_t before = hist.snapshot().count;

    LivePhaseService::Config cfg;
    cfg.workers = 0;
    LivePhaseService svc(cfg);
    Bytes rx;
    svc.handleFrameInto(ENCODED(encodeStatsRequestInto, {55, 0}), rx);
    EXPECT_EQ(hist.snapshot().count, before + 1);
}

} // namespace
