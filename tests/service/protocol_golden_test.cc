/**
 * @file
 * Golden wire bytes: the exact frames and bodies the protocol
 * encoders produce, pinned as hex.
 *
 * Every request encoder is pinned in its four shapes (v1, traced,
 * tagged, traced + tagged), every response encoder in the shapes the
 * service emits, plus the small bodies (retry advice, version
 * advert, metrics text) and a full StatsSnapshot. A refactor of the
 * encoding layer that keeps the wire format passes these unedited;
 * one that moves a byte fails with both hex strings printed.
 *
 * Only the buffer-reusing encode*Into forms and the body encoders
 * are called, so the file pins the forms the service and the client
 * actually run.
 */

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/protocol.hh"
#include "service/service_stats.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

std::string
hex(ByteView bytes)
{
    static const char DIGITS[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const uint8_t b : bytes) {
        out.push_back(DIGITS[b >> 4]);
        out.push_back(DIGITS[b & 0xf]);
    }
    return out;
}

/** FNV-1a/64 over the bytes, for bodies too long to pin as hex. */
uint64_t
fnv64(ByteView bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

const TraceField TRACE{0x0123456789abcdefULL, 0x1122334455667788ULL};
constexpr TenantTag TAG = 0xbeef;

/** The four extension-block shapes every request encoder emits. */
struct Variant
{
    const char *name;
    TraceField trace;
    TenantTag tag;
};

const Variant VARIANTS[] = {
    {"v1", {}, 0},
    {"traced", TRACE, 0},
    {"tagged", {}, TAG},
    {"traced+tagged", TRACE, TAG},
};

const std::vector<IntervalRecord> RECORDS = {
    {100e6, 1.5e6, 111},
    {50e6, 0.0, 0xfedcba9876543210ULL},
};

/** Expected hex per variant, in VARIANTS order. */
struct RequestGolden
{
    const char *op;
    const char *hex[4];
};

// clang-format off
const RequestGolden REQUEST_GOLDEN[] = {
    {"open", {
        "4448504c010001000000000000000000020000000200",
        "4448504c0200010000000000000000001300000010efcdab89674523"
        "0188776655443322110200",
        "4448504c0200010000000000000000000500000002efbe0200",
        "4448504c0200010000000000000000001500000012efcdab89674523"
        "018877665544332211efbe0200"}},
    {"submit", {
        "4448504c010002000807060504030201340000000200000000000000"
        "84d797410000000060e336416f000000000000000000000084d78741"
        "00000000000000001032547698badcfe",
        "4448504c0200020008070605040302014500000010efcdab89674523"
        "018877665544332211020000000000000084d797410000000060e336"
        "416f000000000000000000000084d787410000000000000000103254"
        "7698badcfe",
        "4448504c0200020008070605040302013700000002efbe0200000000"
        "00000084d797410000000060e336416f000000000000000000000084"
        "d7874100000000000000001032547698badcfe",
        "4448504c0200020008070605040302014700000012efcdab89674523"
        "018877665544332211efbe020000000000000084d797410000000060"
        "e336416f000000000000000000000084d78741000000000000000010"
        "32547698badcfe"}},
    {"stats", {
        "4448504c01000300000000000000000000000000",
        "4448504c0200030000000000000000001100000010efcdab89674523"
        "018877665544332211",
        "4448504c0200030000000000000000000300000002efbe",
        "4448504c0200030000000000000000001300000012efcdab89674523"
        "018877665544332211efbe"}},
    {"close", {
        "4448504c010004002a0000000000000000000000",
        "4448504c020004002a000000000000001100000010efcdab89674523"
        "018877665544332211",
        "4448504c020004002a000000000000000300000002efbe",
        "4448504c020004002a000000000000001300000012efcdab89674523"
        "018877665544332211efbe"}},
    {"metrics", {
        "4448504c010005000000000000000000020000000100",
        "4448504c0200050000000000000000001300000010efcdab89674523"
        "0188776655443322110100",
        "4448504c0200050000000000000000000500000002efbe0100",
        "4448504c0200050000000000000000001500000012efcdab89674523"
        "018877665544332211efbe0100"}},
    {"traces", {
        "4448504c01000600000000000000000008000000efcdab0000000000",
        "4448504c0200060000000000000000001900000010efcdab89674523"
        "018877665544332211efcdab0000000000",
        "4448504c0200060000000000000000000b00000002efbeefcdab0000"
        "000000",
        "4448504c0200060000000000000000001b00000012efcdab89674523"
        "018877665544332211efbeefcdab0000000000"}},
    {"phases", {
        "4448504c010007000700000000000000020000000100",
        "4448504c0200070007000000000000001300000010efcdab89674523"
        "0188776655443322110100",
        "4448504c0200070007000000000000000500000002efbe0100",
        "4448504c0200070007000000000000001500000012efcdab89674523"
        "018877665544332211efbe0100"}},
    {"profile", {
        "4448504c010008000000000000000000020000000100",
        "4448504c0200080000000000000000001300000010efcdab89674523"
        "0188776655443322110100",
        "4448504c0200080000000000000000000500000002efbe0100",
        "4448504c0200080000000000000000001500000012efcdab89674523"
        "018877665544332211efbe0100"}},
};
// clang-format on

void
encodeRequest(const std::string &op, Bytes &out, const Variant &v)
{
    if (op == "open")
        encodeOpenRequestInto(out, PredictorKind::Gpht, v.trace,
                              v.tag);
    else if (op == "submit")
        encodeSubmitRequestInto(out, 0x0102030405060708ULL, RECORDS,
                                v.trace, v.tag);
    else if (op == "stats")
        encodeStatsRequestInto(out, v.trace, v.tag);
    else if (op == "close")
        encodeCloseRequestInto(out, 42, v.trace, v.tag);
    else if (op == "metrics")
        encodeMetricsRequestInto(out, 1, v.trace, v.tag);
    else if (op == "traces")
        encodeTracesRequestInto(out, 0xabcdefULL, v.trace, v.tag);
    else if (op == "phases")
        encodePhasesRequestInto(out, 7, 1, v.trace, v.tag);
    else if (op == "profile")
        encodeProfileRequestInto(out, 1, v.trace, v.tag);
    else
        FAIL() << "no encoder for " << op;
}

TEST(ProtocolGolden, RequestEncodersInEveryVariant)
{
    Bytes out;
    for (const RequestGolden &g : REQUEST_GOLDEN) {
        for (size_t i = 0; i < std::size(VARIANTS); ++i) {
            encodeRequest(g.op, out, VARIANTS[i]);
            EXPECT_EQ(hex(out), g.hex[i])
                << g.op << " " << VARIANTS[i].name;
        }
    }
}

TEST(ProtocolGolden, ResponseFrames)
{
    Bytes out;
    const Bytes body = {0xde, 0xad, 0xbe, 0xef};
    encodeResponseInto(out, static_cast<uint16_t>(Op::QueryStats), 9,
                       Status::Ok, body);
    EXPECT_EQ(hex(out),
              "4448504c020003000900000000000000060000000000deadbeef")
        << "ok with body";

    encodeResponseInto(out, static_cast<uint16_t>(Op::Close), 12345,
                       Status::UnknownSession);
    EXPECT_EQ(hex(out), "4448504c020004003930000000000000020000000300")
        << "error, empty body";

    encodeResponseInto(out, static_cast<uint16_t>(Op::Open), 3,
                       Status::Ok, body, PROTOCOL_VERSION_MIN);
    EXPECT_EQ(hex(out),
              "4448504c010001000300000000000000060000000000deadbeef")
        << "v1 version echo";
}

TEST(ProtocolGolden, SubmitResponseWithThreeResults)
{
    const std::vector<IntervalResult> results = {
        {3, 4, 2}, {1, 1, 0}, {INVALID_PHASE, 2, 5}};
    Bytes out;
    encodeSubmitResponseInto(out,
                             static_cast<uint16_t>(Op::SubmitBatch),
                             0x0102030405060708ULL, results);
    EXPECT_EQ(hex(out),
              "4448504c0200020008070605040302012a0000000000030000000300"
              "00000400000002000000010000000100000000000000000000000200"
              "000005000000");
}

TEST(ProtocolGolden, SmallBodies)
{
    Bytes advice;
    encodeRetryAdviceInto(advice, 250);
    EXPECT_EQ(hex(advice), "fa000000") << "retry advice";
    EXPECT_EQ(hex(encodeVersionAdvert()), "0200") << "version advert";
    EXPECT_EQ(hex(encodeMetricsText("up 1\n")), "05000000757020310a")
        << "metrics text";
}

TEST(ProtocolGolden, StatsSnapshotBody)
{
    StatsSnapshot snap;
    snap.sessions_opened = 10;
    snap.sessions_closed = 4;
    snap.sessions_evicted_lru = 2;
    snap.sessions_expired_ttl = 1;
    snap.sessions_open = 3;
    snap.intervals_processed = 12345;
    snap.batches_processed = 77;
    snap.rejected_queue_full = 5;
    snap.frames_malformed = 6;
    snap.queue_high_water = 17;
    for (size_t i = 0; i < BATCH_HIST_BUCKETS; ++i)
        snap.batch_hist[i] = 100 + i;
    for (size_t i = 0; i < NUM_OPS; ++i) {
        const double x = static_cast<double>(i);
        snap.op_latency[i] = {i + 1, 1.5 * x, 1.25, 9.875, 12.0 + x};
    }

    const Bytes body = encodeStats(snap);
    EXPECT_EQ(body.size(), 488u);
    EXPECT_EQ(fnv64(body), 0xdced22841edf9bb8ULL);
}

} // namespace
