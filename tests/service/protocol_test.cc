/**
 * @file
 * Wire-protocol unit tests: encode/decode round trips and rejection
 * of every class of malformed frame.
 *
 * Every request parse here runs twice, through the in-place decode
 * and through the forced-copy decode (the big-endian/unaligned
 * fallback, setForceCopyDecodeForTest), and the two must agree
 * field for field: the fallback is a real second decoder, so each
 * round trip is also a differential test.
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "service/protocol.hh"
#include "service/service_stats.hh"
#include "test_util.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

/** Require two decodes of the same frame to agree field for field,
 *  records compared bit for bit. */
void
expectSameRequest(const RequestView &a, const RequestView &b)
{
    EXPECT_EQ(a.header.magic, b.header.magic);
    EXPECT_EQ(a.header.version, b.header.version);
    EXPECT_EQ(a.header.op, b.header.op);
    EXPECT_EQ(a.header.session_id, b.header.session_id);
    EXPECT_EQ(a.header.payload_size, b.header.payload_size);
    EXPECT_EQ(a.trace.trace_id, b.trace.trace_id);
    EXPECT_EQ(a.trace.parent_span_id, b.trace.parent_span_id);
    EXPECT_EQ(a.tenant_tag, b.tenant_tag);
    EXPECT_EQ(a.predictor, b.predictor);
    EXPECT_EQ(a.metrics_format, b.metrics_format);
    EXPECT_EQ(a.traces_filter, b.traces_filter);
    ASSERT_EQ(a.records.size(), b.records.size());
    if (!a.records.empty()) {
        EXPECT_EQ(std::memcmp(a.records.data(), b.records.data(),
                              a.records.size_bytes()),
                  0);
    }
}

/**
 * Parse `frame` in place into `out` (its records may alias `frame`
 * or `scratch`), parse it again through the forced-copy decoder,
 * and require both to return the same status and fields.
 */
Status
parseBothWays(ByteView frame, Arena &scratch, RequestView &out)
{
    const Status status = parseRequest(frame, scratch, out);
    Arena copy_scratch;
    RequestView copied;
    const bool was = setForceCopyDecodeForTest(true);
    const Status copy_status =
        parseRequest(frame, copy_scratch, copied);
    setForceCopyDecodeForTest(was);
    EXPECT_EQ(status, copy_status);
    expectSameRequest(out, copied);
    return status;
}

TEST(Protocol, OpenRequestRoundTrip)
{
    const Bytes frame =
        ENCODED(encodeOpenRequestInto, PredictorKind::Gpht);
    ASSERT_EQ(frame.size(), FRAME_HEADER_SIZE + 2);

    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(frame, scratch, req), Status::Ok);
    EXPECT_EQ(req.header.magic, FRAME_MAGIC);
    // Untraced encodes stay byte-identical to protocol v1 — that is
    // the new-client / old-server interop guarantee.
    EXPECT_EQ(req.header.version, PROTOCOL_VERSION_MIN);
    EXPECT_EQ(static_cast<Op>(req.header.op), Op::Open);
    EXPECT_EQ(req.header.session_id, 0u);
    EXPECT_EQ(req.predictor, PredictorKind::Gpht);
}

TEST(Protocol, SubmitRequestRoundTrip)
{
    const std::vector<IntervalRecord> records = {
        {100e6, 1.5e6, 111}, {100e6, 0.0, 222}, {50e6, 2e6, 333}};
    const Bytes frame = ENCODED(encodeSubmitRequestInto, 42, records);
    ASSERT_EQ(frame.size(), FRAME_HEADER_SIZE + 4 +
                  records.size() * INTERVAL_RECORD_WIRE_SIZE);

    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(frame, scratch, req), Status::Ok);
    EXPECT_EQ(static_cast<Op>(req.header.op), Op::SubmitBatch);
    EXPECT_EQ(req.header.session_id, 42u);
    ASSERT_EQ(req.records.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_DOUBLE_EQ(req.records[i].uops, records[i].uops);
        EXPECT_DOUBLE_EQ(req.records[i].bus_tran_mem,
                         records[i].bus_tran_mem);
        EXPECT_EQ(req.records[i].tsc, records[i].tsc);
    }
}

TEST(Protocol, StatsAndCloseRequests)
{
    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(ENCODED(encodeStatsRequestInto), scratch,
                            req),
              Status::Ok);
    EXPECT_EQ(static_cast<Op>(req.header.op), Op::QueryStats);

    ASSERT_EQ(parseBothWays(ENCODED(encodeCloseRequestInto, 7),
                            scratch, req),
              Status::Ok);
    EXPECT_EQ(static_cast<Op>(req.header.op), Op::Close);
    EXPECT_EQ(req.header.session_id, 7u);
}

TEST(Protocol, RejectsBadMagic)
{
    Bytes frame = ENCODED(encodeStatsRequestInto);
    frame[0] ^= 0xff;
    Arena scratch;
    RequestView req;
    EXPECT_EQ(parseBothWays(frame, scratch, req), Status::BadFrame);
}

TEST(Protocol, RejectsBadVersion)
{
    Bytes frame = ENCODED(encodeStatsRequestInto);
    frame[4] = 0x7f; // version low byte
    Arena scratch;
    RequestView req;
    EXPECT_EQ(parseBothWays(frame, scratch, req), Status::BadFrame);
}

TEST(Protocol, RejectsUnknownOp)
{
    Bytes frame = ENCODED(encodeStatsRequestInto);
    frame[6] = 0x63; // op low byte
    Arena scratch;
    RequestView req;
    EXPECT_EQ(parseBothWays(frame, scratch, req), Status::BadFrame);
    // The header still decodes, so error replies can echo the op.
    EXPECT_EQ(req.header.op, 0x63);
}

TEST(Protocol, RejectsTruncatedFrames)
{
    Arena scratch;
    RequestView req;
    EXPECT_EQ(parseBothWays({}, scratch, req), Status::BadFrame);
    EXPECT_EQ(parseBothWays(Bytes(FRAME_HEADER_SIZE - 1, 0), scratch,
                            req),
              Status::BadFrame);

    Bytes frame = ENCODED(encodeSubmitRequestInto, 1,
                          std::vector<IntervalRecord>{{100e6, 1e6, 0}});
    frame.pop_back();
    EXPECT_EQ(parseBothWays(frame, scratch, req), Status::BadFrame);
}

TEST(Protocol, RejectsRecordCountMismatch)
{
    Bytes frame = ENCODED(encodeSubmitRequestInto, 1,
                          std::vector<IntervalRecord>{{100e6, 1e6, 0}});
    // Claim two records but carry one.
    frame[FRAME_HEADER_SIZE] = 2;
    Arena scratch;
    RequestView req;
    EXPECT_EQ(parseBothWays(frame, scratch, req), Status::BadFrame);
}

TEST(Protocol, RejectsTrailingGarbage)
{
    Bytes frame = ENCODED(encodeCloseRequestInto, 1);
    frame.push_back(0);
    Arena scratch;
    RequestView req;
    // Payload length no longer matches the frame size.
    EXPECT_EQ(parseBothWays(frame, scratch, req), Status::BadFrame);
}

TEST(Protocol, ResponseRoundTrip)
{
    const std::vector<IntervalResult> results = {
        {1, 2, 3}, {6, 6, 5}};
    const Bytes frame = ENCODED(encodeSubmitResponseInto,
                                static_cast<uint16_t>(Op::SubmitBatch),
                                9, results);

    ResponseView resp;
    ASSERT_TRUE(parseResponse(frame, resp));
    EXPECT_EQ(resp.status, Status::Ok);
    EXPECT_EQ(resp.header.session_id, 9u);
    std::vector<IntervalResult> decoded;
    ASSERT_TRUE(decodeSubmitResultsInto(resp.body, decoded));
    EXPECT_EQ(decoded, results);
}

TEST(Protocol, ErrorResponseRoundTrip)
{
    const Bytes frame =
        ENCODED(encodeResponseInto, static_cast<uint16_t>(Op::Open),
                0, Status::RetryAfter);
    ResponseView resp;
    ASSERT_TRUE(parseResponse(frame, resp));
    EXPECT_EQ(resp.status, Status::RetryAfter);
    EXPECT_TRUE(resp.body.empty());
}

TEST(Protocol, StatsSnapshotRoundTrip)
{
    StatsSnapshot snap;
    snap.sessions_opened = 10;
    snap.sessions_evicted_lru = 2;
    snap.intervals_processed = 12345;
    snap.queue_high_water = 17;
    snap.batch_hist[batchHistBucket(256)] = 3;
    snap.op_latency[1] = {100, 1.5, 1.2, 9.9, 12.0};

    const auto decoded = decodeStats(encodeStats(snap));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->sessions_opened, 10u);
    EXPECT_EQ(decoded->sessions_evicted_lru, 2u);
    EXPECT_EQ(decoded->intervals_processed, 12345u);
    EXPECT_EQ(decoded->queue_high_water, 17u);
    EXPECT_EQ(decoded->batch_hist, snap.batch_hist);
    EXPECT_EQ(decoded->op_latency[1].count, 100u);
    EXPECT_DOUBLE_EQ(decoded->op_latency[1].p99_us, 9.9);

    Bytes truncated = encodeStats(snap);
    truncated.pop_back();
    EXPECT_FALSE(decodeStats(truncated).has_value());
}

TEST(Protocol, BatchHistogramBuckets)
{
    EXPECT_EQ(batchHistBucket(1), 0u);
    EXPECT_EQ(batchHistBucket(2), 1u);
    EXPECT_EQ(batchHistBucket(3), 2u);
    EXPECT_EQ(batchHistBucket(4), 2u);
    EXPECT_EQ(batchHistBucket(5), 3u);
    EXPECT_EQ(batchHistBucket(256), 8u);
    EXPECT_EQ(batchHistBucket(257), 9u);
    EXPECT_EQ(batchHistBucket(1u << 20), BATCH_HIST_BUCKETS - 1);
    EXPECT_EQ(batchHistBucketLabel(0), "1");
    EXPECT_EQ(batchHistBucketLabel(2), "3-4");
    EXPECT_EQ(batchHistBucketLabel(BATCH_HIST_BUCKETS - 1), "257+");
}

TEST(Protocol, Names)
{
    EXPECT_STREQ(statusName(Status::Ok), "ok");
    EXPECT_STREQ(statusName(Status::RetryAfter), "retry-after");
    EXPECT_EQ(opName(static_cast<uint16_t>(Op::SubmitBatch)),
              "submit-batch");
    EXPECT_EQ(opName(250), "op-250");
    EXPECT_STREQ(predictorKindName(PredictorKind::Gpht), "gpht");
    EXPECT_EQ(predictorKindFromName("setassoc"),
              PredictorKind::SetAssocGpht);
    EXPECT_FALSE(predictorKindFromName("nope").has_value());
}

TEST(Protocol, IntervalRecordValidity)
{
    EXPECT_TRUE((IntervalRecord{100e6, 0.0, 0}).valid());
    EXPECT_FALSE((IntervalRecord{0.0, 1.0, 0}).valid());
    EXPECT_FALSE((IntervalRecord{-1.0, 1.0, 0}).valid());
    EXPECT_FALSE((IntervalRecord{100e6, -1.0, 0}).valid());
    EXPECT_FALSE(
        (IntervalRecord{std::nan(""), 1.0, 0}).valid());
}

// --- protocol v2: trace blocks and version negotiation -----------

const std::vector<IntervalRecord> ONE_RECORD = {{100e6, 1e6, 11}};

TEST(Protocol, TracedRequestCarriesContextAtVersion2)
{
    const TraceField trace{0xdeadbeefULL, 0x42ULL};
    const Bytes frame =
        ENCODED(encodeSubmitRequestInto, 7, ONE_RECORD, trace);

    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(frame, scratch, req), Status::Ok);
    EXPECT_EQ(req.header.version, 2);
    EXPECT_EQ(req.trace.trace_id, 0xdeadbeefULL);
    EXPECT_EQ(req.trace.parent_span_id, 0x42ULL);
    ASSERT_EQ(req.records.size(), 1u);
    EXPECT_EQ(req.records[0].tsc, 11u);
}

TEST(Protocol, TracedFrameIsExactlyOneBlockLarger)
{
    const Bytes plain =
        ENCODED(encodeOpenRequestInto, PredictorKind::Gpht);
    const Bytes traced =
        ENCODED(encodeOpenRequestInto, PredictorKind::Gpht, {1, 2});
    EXPECT_EQ(traced.size(),
              plain.size() + 1 + TRACE_FIELD_WIRE_SIZE);
    // Every op's encoder threads the trace through.
    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(ENCODED(encodeStatsRequestInto, {5, 6}),
                            scratch, req),
              Status::Ok);
    EXPECT_EQ(req.trace.trace_id, 5u);
    ASSERT_EQ(parseBothWays(ENCODED(encodeCloseRequestInto, 3, {7, 8}),
                            scratch, req),
              Status::Ok);
    EXPECT_EQ(req.trace.trace_id, 7u);
    ASSERT_EQ(
        parseBothWays(ENCODED(encodeMetricsRequestInto, 0, {9, 10}),
                      scratch, req),
        Status::Ok);
    EXPECT_EQ(req.trace.trace_id, 9u);
}

TEST(Protocol, TracesRequestRoundTrip)
{
    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(ENCODED(encodeTracesRequestInto, 0xabcULL),
                            scratch, req),
              Status::Ok);
    EXPECT_EQ(static_cast<Op>(req.header.op), Op::QueryTraces);
    EXPECT_EQ(req.traces_filter, 0xabcULL);
    EXPECT_EQ(opName(static_cast<uint16_t>(Op::QueryTraces)),
              "query-traces");
}

TEST(Protocol, UnknownTraceBlockLengthDegradesToUntraced)
{
    // A v2 frame whose trace block has an in-bounds length other
    // than 16 must parse as an *untraced* request, not a protocol
    // error — that is the forward-compat escape hatch. Build the
    // frame by hand: header (v2) + 5-byte trace block + Open body.
    const Bytes traced =
        ENCODED(encodeOpenRequestInto, PredictorKind::Gpht, {1, 2});
    Bytes frame(traced.begin(), traced.begin() + FRAME_HEADER_SIZE);
    const Bytes tail = {5, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, // block
                        0x02, 0x00};                     // Gpht
    frame.insert(frame.end(), tail.begin(), tail.end());
    frame[16] = static_cast<uint8_t>(tail.size()); // payload_size
    frame[17] = frame[18] = frame[19] = 0;

    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(frame, scratch, req), Status::Ok);
    EXPECT_FALSE(req.trace.present());
    EXPECT_EQ(req.predictor, PredictorKind::Gpht);
}

TEST(Protocol, OverrunningTraceBlockIsBadFrame)
{
    // Block length pointing past the payload can't be skipped — the
    // frame is structurally broken, not merely unrecognized.
    const Bytes traced =
        ENCODED(encodeOpenRequestInto, PredictorKind::Gpht, {1, 2});
    Bytes frame(traced.begin(), traced.begin() + FRAME_HEADER_SIZE);
    const Bytes tail = {200, 0x02, 0x00};
    frame.insert(frame.end(), tail.begin(), tail.end());
    frame[16] = static_cast<uint8_t>(tail.size());
    frame[17] = frame[18] = frame[19] = 0;

    Arena scratch;
    RequestView req;
    EXPECT_EQ(parseBothWays(frame, scratch, req), Status::BadFrame);
}

TEST(Protocol, GarbledTraceContextBytesStayInBand)
{
    // Fuzz-ish: flip every byte of the 16-byte context in turn; the
    // result is always a *valid* frame (possibly a different trace
    // id, possibly untraced when the id lands on 0) — never a
    // protocol error, never a crash — and the in-place and
    // forced-copy decoders read it identically.
    const Bytes traced = ENCODED(encodeOpenRequestInto,
                                 PredictorKind::Gpht, {0x1111, 0x2222});
    for (size_t i = 0; i < TRACE_FIELD_WIRE_SIZE; ++i) {
        Bytes frame = traced;
        frame[FRAME_HEADER_SIZE + 1 + i] ^= 0xff;
        Arena scratch;
        RequestView req;
        EXPECT_EQ(parseBothWays(frame, scratch, req), Status::Ok)
            << "flipped context byte " << i;
        EXPECT_EQ(req.predictor, PredictorKind::Gpht);
    }
}

// --- protocol v2: tenant tags and retry advice -------------------

TEST(Protocol, TaggedRequestRoundTrip)
{
    // Tag without trace: a 2-byte extension block.
    const Bytes frame = ENCODED(encodeSubmitRequestInto, 7, ONE_RECORD,
                                {}, 0xbeef);
    const Bytes plain = ENCODED(encodeSubmitRequestInto, 7, ONE_RECORD);
    EXPECT_EQ(frame.size(),
              plain.size() + 1 + TENANT_TAG_WIRE_SIZE);

    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(frame, scratch, req), Status::Ok);
    EXPECT_EQ(req.header.version, 2);
    EXPECT_EQ(req.tenant_tag, 0xbeefu);
    EXPECT_FALSE(req.trace.present());
    ASSERT_EQ(req.records.size(), 1u);
    EXPECT_EQ(req.records[0].tsc, 11u);
}

TEST(Protocol, TracedAndTaggedRequestRoundTrip)
{
    // Trace + tag share one 18-byte extension block.
    const Bytes frame = ENCODED(encodeSubmitRequestInto, 7, ONE_RECORD,
                                {0xdeadULL, 0x42ULL}, 3);
    const Bytes plain = ENCODED(encodeSubmitRequestInto, 7, ONE_RECORD);
    EXPECT_EQ(frame.size(),
              plain.size() + 1 + TRACE_TAG_WIRE_SIZE);

    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(frame, scratch, req), Status::Ok);
    EXPECT_EQ(req.trace.trace_id, 0xdeadULL);
    EXPECT_EQ(req.trace.parent_span_id, 0x42ULL);
    EXPECT_EQ(req.tenant_tag, 3u);

    // Every op's encoder threads the tag through.
    ASSERT_EQ(parseBothWays(ENCODED(encodeStatsRequestInto, {}, 9),
                            scratch, req),
              Status::Ok);
    EXPECT_EQ(req.tenant_tag, 9u);
    ASSERT_EQ(parseBothWays(ENCODED(encodeCloseRequestInto, 3, {}, 8),
                            scratch, req),
              Status::Ok);
    EXPECT_EQ(req.tenant_tag, 8u);
    ASSERT_EQ(parseBothWays(ENCODED(encodeOpenRequestInto,
                                    PredictorKind::Gpht, {}, 7),
                            scratch, req),
              Status::Ok);
    EXPECT_EQ(req.tenant_tag, 7u);
}

TEST(Protocol, UntaggedFramesStayByteIdenticalToV1)
{
    // The acceptance bar for the extension slot: no tag and no
    // trace means the exact v1 bytes — header, version field, no
    // extension block, payload at FRAME_HEADER_SIZE.
    const Bytes frame =
        ENCODED(encodeSubmitRequestInto, 7, ONE_RECORD, {}, 0);
    EXPECT_EQ(frame, ENCODED(encodeSubmitRequestInto, 7, ONE_RECORD));
    ASSERT_EQ(frame.size(), FRAME_HEADER_SIZE + 4 +
                  ONE_RECORD.size() * INTERVAL_RECORD_WIRE_SIZE);
    Arena scratch;
    RequestView req;
    ASSERT_EQ(parseBothWays(frame, scratch, req), Status::Ok);
    EXPECT_EQ(req.header.version, PROTOCOL_VERSION_MIN);
    EXPECT_EQ(req.tenant_tag, 0u);
}

TEST(Protocol, PeekTenantTagWithoutFullParse)
{
    // The service peeks the tag pre-parse (admission runs before
    // the frame is queued); every block layout must be readable.
    const std::vector<IntervalRecord> rec = {{1e6, 0, 0}};
    EXPECT_EQ(peekTenantTag(
                  ENCODED(encodeSubmitRequestInto, 1, rec, {}, 0x1234)),
              0x1234u);
    EXPECT_EQ(peekTenantTag(ENCODED(encodeSubmitRequestInto, 1, rec,
                                    {5, 6}, 0x2345)),
              0x2345u);
    // Trace-only, untagged and v1 frames peek as tag 0.
    EXPECT_EQ(peekTenantTag(
                  ENCODED(encodeSubmitRequestInto, 1, rec, {5, 6})),
              0u);
    EXPECT_EQ(peekTenantTag(ENCODED(encodeSubmitRequestInto, 1, rec)),
              0u);
    // Garbage never makes peek lie or crash.
    EXPECT_EQ(peekTenantTag({}), 0u);
    EXPECT_EQ(peekTenantTag(Bytes(3, 0xff)), 0u);
    Bytes truncated =
        ENCODED(encodeSubmitRequestInto, 1, rec, {}, 0x7777);
    truncated.resize(FRAME_HEADER_SIZE + 1); // block len, no tag
    EXPECT_EQ(peekTenantTag(truncated), 0u);
}

TEST(Protocol, RetryAdviceRoundTrip)
{
    Bytes body;
    encodeRetryAdviceInto(body, 250);
    EXPECT_EQ(body.size(), 4u);
    EXPECT_EQ(decodeRetryAfterMs(body), 250u);
    // Pre-advice servers sent empty rejection bodies; clients must
    // read those as "no hint".
    EXPECT_EQ(decodeRetryAfterMs({}), 0u);
    EXPECT_EQ(statusName(Status::Throttled),
              std::string("throttled"));
}

TEST(Protocol, VersionAdvertRoundTrip)
{
    EXPECT_EQ(decodeVersionAdvert(encodeVersionAdvert()),
              PROTOCOL_VERSION);
    // Absent (v1 server body) => 1.
    EXPECT_EQ(decodeVersionAdvert({}), PROTOCOL_VERSION_MIN);
    EXPECT_EQ(decodeVersionAdvert(Bytes{0x01}), PROTOCOL_VERSION_MIN);
    // A future server advertising v9 is clamped to what we speak.
    EXPECT_EQ(decodeVersionAdvert(Bytes{0x09, 0x00}),
              PROTOCOL_VERSION);
}

TEST(Protocol, ResponseEchoesRequestedVersion)
{
    const uint16_t op = static_cast<uint16_t>(Op::Open);
    const Bytes v1 =
        ENCODED(encodeResponseInto, op, 0, Status::Ok, {}, 1);
    ResponseView resp;
    ASSERT_TRUE(parseResponse(v1, resp));
    EXPECT_EQ(resp.header.version, 1);

    // Out-of-range echo requests are clamped, never emitted raw.
    const Bytes clamped =
        ENCODED(encodeResponseInto, op, 0, Status::Ok, {}, 0x7f);
    ASSERT_TRUE(parseResponse(clamped, resp));
    EXPECT_EQ(resp.header.version, PROTOCOL_VERSION);
}

// ---- zero-copy data plane (DESIGN.md §14) ----

std::vector<IntervalRecord>
someRecords(size_t n)
{
    std::vector<IntervalRecord> records;
    records.reserve(n);
    for (size_t i = 0; i < n; ++i)
        records.push_back({100e6 + static_cast<double>(i),
                           1.5e6 * static_cast<double>(i % 7),
                           1000 + i});
    return records;
}

bool
pointsInto(const void *p, const Bytes &frame)
{
    const auto *b = static_cast<const uint8_t *>(p);
    return b >= frame.data() && b < frame.data() + frame.size();
}

TEST(Protocol, ViewParseAliasesWireBytesWhenAligned)
{
    if (!WIRE_LAYOUT_IS_NATIVE)
        GTEST_SKIP() << "in-place decode disabled on this target";
    const auto records = someRecords(16);
    const Bytes frame = ENCODED(encodeSubmitRequestInto, 9, records);
    // Untraced v1 frame: records start at header + count = byte 24,
    // 8-aligned relative to the (malloc-aligned) frame base.
    Arena scratch;
    RequestView view;
    ASSERT_EQ(parseRequest(ByteView(frame), scratch, view),
              Status::Ok);
    ASSERT_EQ(view.records.size(), records.size());
    EXPECT_TRUE(pointsInto(view.records.data(), frame));
    EXPECT_EQ(scratch.usedBytes(), 0u); // nothing was copied
    EXPECT_EQ(std::memcmp(view.records.data(), records.data(),
                          records.size() * sizeof(IntervalRecord)),
              0);
}

TEST(Protocol, ForcedCopyDecodeIsBitIdenticalToInPlace)
{
    const auto records = someRecords(16);
    const Bytes frame = ENCODED(encodeSubmitRequestInto, 9, records);

    const bool was = setForceCopyDecodeForTest(true);
    Arena scratch;
    RequestView view;
    const Status status =
        parseRequest(ByteView(frame), scratch, view);
    setForceCopyDecodeForTest(was);

    ASSERT_EQ(status, Status::Ok);
    ASSERT_EQ(view.records.size(), records.size());
    // The copy path lands in the arena, never aliasing the frame.
    EXPECT_FALSE(pointsInto(view.records.data(), frame));
    EXPECT_GE(scratch.usedBytes(),
              records.size() * sizeof(IntervalRecord));
    EXPECT_EQ(std::memcmp(view.records.data(), records.data(),
                          records.size() * sizeof(IntervalRecord)),
              0);
}

TEST(Protocol, TracedFrameTakesTheCopyDecodePath)
{
    // A v2 trace block shifts the payload by 17 bytes, so the
    // record array is no longer 8-aligned within the frame — the
    // parser must fall back to copying, transparently.
    const auto records = someRecords(8);
    const Bytes frame = ENCODED(encodeSubmitRequestInto, 9, records,
                                TraceField{0xABCD, 0x1234});
    Arena scratch;
    RequestView view;
    ASSERT_EQ(parseRequest(ByteView(frame), scratch, view),
              Status::Ok);
    ASSERT_EQ(view.records.size(), records.size());
    EXPECT_FALSE(pointsInto(view.records.data(), frame));
    EXPECT_EQ(std::memcmp(view.records.data(), records.data(),
                          records.size() * sizeof(IntervalRecord)),
              0);
    EXPECT_EQ(view.trace.trace_id, 0xABCDu);
}

/** One frame of every op, in each of the four extension-block
 *  shapes (v1, traced, tagged, traced + tagged). */
std::vector<Bytes>
everyRequestShape(const std::vector<IntervalRecord> &records)
{
    const TraceField traces[] = {{}, {0xDEAD, 0xBEEF}};
    const TenantTag tags[] = {0, 0x1234};
    std::vector<Bytes> frames;
    for (const TraceField &t : traces) {
        for (const TenantTag tag : tags) {
            frames.push_back(ENCODED(encodeOpenRequestInto,
                                     PredictorKind::Gpht, t, tag));
            frames.push_back(ENCODED(encodeSubmitRequestInto, 77,
                                     records, t, tag));
            frames.push_back(ENCODED(encodeStatsRequestInto, t, tag));
            frames.push_back(
                ENCODED(encodeCloseRequestInto, 77, t, tag));
            frames.push_back(
                ENCODED(encodeMetricsRequestInto, 1, t, tag));
            frames.push_back(
                ENCODED(encodeTracesRequestInto, 9, t, tag));
            frames.push_back(
                ENCODED(encodePhasesRequestInto, 77, 1, t, tag));
            frames.push_back(
                ENCODED(encodeProfileRequestInto, 1, t, tag));
        }
    }
    return frames;
}

TEST(Protocol, OwningParseMatchesViewParse)
{
    // The in-place view parse against the forced-copy decoder (the
    // big-endian/unaligned fallback) on every op and block shape:
    // same status, same fields, bit-identical records.
    for (const Bytes &frame : everyRequestShape(someRecords(12))) {
        Arena scratch;
        RequestView view;
        EXPECT_EQ(parseBothWays(frame, scratch, view), Status::Ok);
    }
}

TEST(Protocol, EncodeIntoMatchesOwningEncodersAndReusesBuffer)
{
    // Encoding into a reused buffer that last held a longer frame
    // must give exactly the bytes of a fresh-buffer encode (no stale
    // tail), without reallocating.
    const auto records = someRecords(5);
    const std::vector<Bytes> fresh = everyRequestShape(records);
    Bytes out;
    out.reserve(1024);
    const uint8_t *storage = out.data();

    const TraceField traces[] = {{}, {0xDEAD, 0xBEEF}};
    const TenantTag tags[] = {0, 0x1234};
    size_t at = 0;
    for (const TraceField &t : traces) {
        for (const TenantTag tag : tags) {
            encodeSubmitRequestInto(out, 1, someRecords(20), t, tag);
            encodeOpenRequestInto(out, PredictorKind::Gpht, t, tag);
            EXPECT_EQ(out, fresh[at++]);
            encodeSubmitRequestInto(out, 77, records, t, tag);
            EXPECT_EQ(out, fresh[at++]);
            encodeStatsRequestInto(out, t, tag);
            EXPECT_EQ(out, fresh[at++]);
            encodeCloseRequestInto(out, 77, t, tag);
            EXPECT_EQ(out, fresh[at++]);
            encodeMetricsRequestInto(out, 1, t, tag);
            EXPECT_EQ(out, fresh[at++]);
            encodeTracesRequestInto(out, 9, t, tag);
            EXPECT_EQ(out, fresh[at++]);
            encodePhasesRequestInto(out, 77, 1, t, tag);
            EXPECT_EQ(out, fresh[at++]);
            encodeProfileRequestInto(out, 1, t, tag);
            EXPECT_EQ(out, fresh[at++]);
        }
    }
    EXPECT_EQ(at, fresh.size());

    // Every encode reused the reserved storage: no reallocation.
    EXPECT_EQ(out.data(), storage);
}

/** Reference SubmitBatch response body — u32 count, then each
 *  result field by field through ByteAppender — independent of the
 *  bulk-copy path encodeSubmitResponseInto takes. */
Bytes
encodeSubmitResults(const std::vector<IntervalResult> &results)
{
    Bytes out;
    ByteAppender w(out);
    w.u32(static_cast<uint32_t>(results.size()));
    for (const IntervalResult &res : results) {
        w.i32(res.phase);
        w.i32(res.predicted_next);
        w.u32(res.dvfs_index);
    }
    return out;
}

TEST(Protocol, SubmitResponseIntoMatchesOwningEncode)
{
    const std::vector<IntervalResult> results = {
        {3, 4, 2}, {1, 1, 0}, {INVALID_PHASE, 2, 5}};
    const uint16_t op = static_cast<uint16_t>(Op::SubmitBatch);

    Bytes packed;
    encodeSubmitResponseInto(packed, op, 42, results,
                             PROTOCOL_VERSION);
    const Bytes reference =
        ENCODED(encodeResponseInto, op, 42, Status::Ok,
                encodeSubmitResults(results));
    EXPECT_EQ(packed, reference);

    // And it decodes back bit-identically through the Into decoder.
    ResponseView resp;
    ASSERT_TRUE(parseResponse(packed, resp));
    std::vector<IntervalResult> decoded;
    ASSERT_TRUE(decodeSubmitResultsInto(resp.body, decoded));
    ASSERT_EQ(decoded.size(), results.size());
    EXPECT_EQ(std::memcmp(decoded.data(), results.data(),
                          results.size() * sizeof(IntervalResult)),
              0);
}

TEST(Protocol, ViewParseRejectsMalformedFramesLikeOwning)
{
    // The in-place and forced-copy decoders share one validation
    // pass: every malformed frame below is rejected by both, and
    // both still decode the header for the error reply.
    const auto records = someRecords(3);
    const Bytes good = ENCODED(encodeSubmitRequestInto, 9, records);

    std::vector<Bytes> bad;
    bad.push_back(Bytes(good.begin(), good.end() - 1)); // truncated
    bad.push_back(good);
    bad.back().push_back(0xFF); // trailing garbage
    bad.push_back(good);
    bad.back()[FRAME_HEADER_SIZE] = 4; // record count mismatch
    bad.push_back(good);
    bad.back()[0] ^= 0xff; // magic
    bad.push_back(good);
    bad.back()[6] = 0x63; // unknown op

    for (const Bytes &frame : bad) {
        Arena scratch;
        RequestView view;
        EXPECT_EQ(parseBothWays(frame, scratch, view),
                  Status::BadFrame);
    }
}

} // namespace
