#include "service/protocol.hh"

#include <atomic>
#include <cmath>
#include <cstring>

namespace livephase::service
{

const char *
statusName(Status status)
{
    switch (status) {
      case Status::Ok: return "ok";
      case Status::RetryAfter: return "retry-after";
      case Status::BadFrame: return "bad-frame";
      case Status::UnknownSession: return "unknown-session";
      case Status::UnknownPredictor: return "unknown-predictor";
      case Status::BatchTooLarge: return "batch-too-large";
      case Status::ShuttingDown: return "shutting-down";
      case Status::Throttled: return "throttled";
    }
    return "status-?";
}

std::string
opName(uint16_t raw_op)
{
    switch (static_cast<Op>(raw_op)) {
      case Op::Open: return "open";
      case Op::SubmitBatch: return "submit-batch";
      case Op::QueryStats: return "query-stats";
      case Op::Close: return "close";
      case Op::QueryMetrics: return "query-metrics";
      case Op::QueryTraces: return "query-traces";
      case Op::QueryPhases: return "query-phases";
      case Op::QueryProfile: return "query-profile";
    }
    return "op-" + std::to_string(raw_op);
}

const char *
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::LastValue: return "lastvalue";
      case PredictorKind::Gpht: return "gpht";
      case PredictorKind::SetAssocGpht: return "setassoc";
      case PredictorKind::VariableWindow: return "varwindow";
    }
    return "predictor-?";
}

std::optional<PredictorKind>
predictorKindFromName(const std::string &name)
{
    if (name == "lastvalue")
        return PredictorKind::LastValue;
    if (name == "gpht")
        return PredictorKind::Gpht;
    if (name == "setassoc")
        return PredictorKind::SetAssocGpht;
    if (name == "varwindow")
        return PredictorKind::VariableWindow;
    return std::nullopt;
}

bool
IntervalRecord::valid() const
{
    return std::isfinite(uops) && uops > 0.0 &&
        std::isfinite(bus_tran_mem) && bus_tran_mem >= 0.0;
}

// --- byte-level helpers ------------------------------------------

void
ByteAppender::u8(uint8_t v)
{
    buf.push_back(v);
}

void
ByteAppender::u16(uint16_t v)
{
    buf.push_back(static_cast<uint8_t>(v));
    buf.push_back(static_cast<uint8_t>(v >> 8));
}

void
ByteAppender::u32(uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        buf.push_back(static_cast<uint8_t>(v >> shift));
}

void
ByteAppender::u64(uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        buf.push_back(static_cast<uint8_t>(v >> shift));
}

void
ByteAppender::i32(int32_t v)
{
    u32(static_cast<uint32_t>(v));
}

void
ByteAppender::f64(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteAppender::bytes(ByteView view)
{
    buf.insert(buf.end(), view.begin(), view.end());
}

bool
ByteReader::grab(void *out, size_t n)
{
    if (left < n)
        return false;
    std::memcpy(out, cur, n);
    cur += n;
    left -= n;
    return true;
}

bool
ByteReader::u8(uint8_t &v)
{
    return grab(&v, 1);
}

bool
ByteReader::skip(size_t n)
{
    if (left < n)
        return false;
    cur += n;
    left -= n;
    return true;
}

bool
ByteReader::u16(uint16_t &v)
{
    uint8_t raw[2];
    if (!grab(raw, sizeof(raw)))
        return false;
    v = static_cast<uint16_t>(raw[0] | (raw[1] << 8));
    return true;
}

bool
ByteReader::u32(uint32_t &v)
{
    uint8_t raw[4];
    if (!grab(raw, sizeof(raw)))
        return false;
    v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | raw[i];
    return true;
}

bool
ByteReader::u64(uint64_t &v)
{
    uint8_t raw[8];
    if (!grab(raw, sizeof(raw)))
        return false;
    v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | raw[i];
    return true;
}

bool
ByteReader::i32(int32_t &v)
{
    uint32_t raw;
    if (!u32(raw))
        return false;
    v = static_cast<int32_t>(raw);
    return true;
}

bool
ByteReader::f64(double &v)
{
    uint64_t bits;
    if (!u64(bits))
        return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
}

// --- framing -----------------------------------------------------

namespace
{

std::atomic<bool> g_force_copy_decode{false};

void
appendHeader(ByteAppender &a, uint16_t version, uint16_t raw_op,
             uint64_t session_id, uint32_t payload_size)
{
    a.u32(FRAME_MAGIC);
    a.u16(version);
    a.u16(raw_op);
    a.u64(session_id);
    a.u32(payload_size);
}

/**
 * Start a request frame in `out` (cleared): header with a
 * placeholder payload size, plus the v2 extension block when a
 * trace context and/or tenant tag is attached (otherwise a plain
 * v1 header, byte-identical to what a v1 encoder always produced).
 * The block length doubles as the content selector: 16 = trace,
 * 2 = tag, 18 = trace then tag. finishFrame() patches the size.
 */
void
beginRequestFrame(Bytes &out, uint16_t raw_op, uint64_t session_id,
                  const TraceField &trace, TenantTag tag)
{
    out.clear();
    ByteAppender a(out);
    if (!trace.present() && tag == 0) {
        appendHeader(a, PROTOCOL_VERSION_MIN, raw_op, session_id, 0);
        return;
    }
    appendHeader(a, PROTOCOL_VERSION, raw_op, session_id, 0);
    size_t block = 0;
    if (trace.present())
        block += TRACE_FIELD_WIRE_SIZE;
    if (tag != 0)
        block += TENANT_TAG_WIRE_SIZE;
    a.u8(static_cast<uint8_t>(block));
    if (trace.present()) {
        a.u64(trace.trace_id);
        a.u64(trace.parent_span_id);
    }
    if (tag != 0)
        a.u16(tag);
}

/** Patch the header's payload_size now that the payload is known. */
void
finishFrame(Bytes &out)
{
    const uint32_t payload =
        static_cast<uint32_t>(out.size() - FRAME_HEADER_SIZE);
    out[16] = static_cast<uint8_t>(payload);
    out[17] = static_cast<uint8_t>(payload >> 8);
    out[18] = static_cast<uint8_t>(payload >> 16);
    out[19] = static_cast<uint8_t>(payload >> 24);
}

uint16_t
clampVersion(uint16_t version)
{
    if (version < PROTOCOL_VERSION_MIN)
        return PROTOCOL_VERSION_MIN;
    return version > PROTOCOL_VERSION ? PROTOCOL_VERSION : version;
}

} // namespace

std::optional<FrameHeader>
peekHeader(const uint8_t *data, size_t size)
{
    ByteReader r(data, size);
    FrameHeader h;
    if (!r.u32(h.magic) || !r.u16(h.version) || !r.u16(h.op) ||
        !r.u64(h.session_id) || !r.u32(h.payload_size))
        return std::nullopt;
    return h;
}

void
encodeOpenRequestInto(Bytes &out, PredictorKind kind,
                      const TraceField &trace, TenantTag tag)
{
    beginRequestFrame(out, static_cast<uint16_t>(Op::Open), 0,
                      trace, tag);
    ByteAppender a(out);
    a.u16(static_cast<uint16_t>(kind));
    finishFrame(out);
}

void
encodeSubmitRequestInto(Bytes &out, uint64_t session_id,
                        RecordView records, const TraceField &trace,
                        TenantTag tag)
{
    beginRequestFrame(out, static_cast<uint16_t>(Op::SubmitBatch),
                      session_id, trace, tag);
    ByteAppender a(out);
    a.u32(static_cast<uint32_t>(records.size()));
    if constexpr (WIRE_LAYOUT_IS_NATIVE) {
        a.bytes({reinterpret_cast<const uint8_t *>(records.data()),
                 records.size() * INTERVAL_RECORD_WIRE_SIZE});
    } else {
        for (const IntervalRecord &rec : records) {
            a.f64(rec.uops);
            a.f64(rec.bus_tran_mem);
            a.u64(rec.tsc);
        }
    }
    finishFrame(out);
}

void
encodeStatsRequestInto(Bytes &out, const TraceField &trace,
                       TenantTag tag)
{
    beginRequestFrame(out, static_cast<uint16_t>(Op::QueryStats), 0,
                      trace, tag);
    finishFrame(out);
}

void
encodeCloseRequestInto(Bytes &out, uint64_t session_id,
                       const TraceField &trace, TenantTag tag)
{
    beginRequestFrame(out, static_cast<uint16_t>(Op::Close),
                      session_id, trace, tag);
    finishFrame(out);
}

void
encodeMetricsRequestInto(Bytes &out, uint16_t raw_format,
                         const TraceField &trace, TenantTag tag)
{
    beginRequestFrame(out, static_cast<uint16_t>(Op::QueryMetrics),
                      0, trace, tag);
    ByteAppender a(out);
    a.u16(raw_format);
    finishFrame(out);
}

void
encodeTracesRequestInto(Bytes &out, uint64_t trace_id_filter,
                        const TraceField &trace, TenantTag tag)
{
    beginRequestFrame(out, static_cast<uint16_t>(Op::QueryTraces), 0,
                      trace, tag);
    ByteAppender a(out);
    a.u64(trace_id_filter);
    finishFrame(out);
}

void
encodePhasesRequestInto(Bytes &out, uint64_t session_id,
                        uint16_t raw_format, const TraceField &trace,
                        TenantTag tag)
{
    beginRequestFrame(out, static_cast<uint16_t>(Op::QueryPhases),
                      session_id, trace, tag);
    ByteAppender a(out);
    a.u16(raw_format);
    finishFrame(out);
}

void
encodeProfileRequestInto(Bytes &out, uint16_t raw_format,
                         const TraceField &trace, TenantTag tag)
{
    beginRequestFrame(out, static_cast<uint16_t>(Op::QueryProfile), 0,
                      trace, tag);
    ByteAppender a(out);
    a.u16(raw_format);
    finishFrame(out);
}

Status
parseRequest(ByteView frame, Arena &scratch, RequestView &out)
{
    out = RequestView{};
    const auto header = peekHeader(frame.data(), frame.size());
    if (!header)
        return Status::BadFrame;
    out.header = *header;
    if (header->magic != FRAME_MAGIC ||
        header->version < PROTOCOL_VERSION_MIN ||
        header->version > PROTOCOL_VERSION)
        return Status::BadFrame;
    if (header->payload_size > MAX_PAYLOAD_SIZE ||
        frame.size() != FRAME_HEADER_SIZE + header->payload_size)
        return Status::BadFrame;

    ByteReader r(frame.data() + FRAME_HEADER_SIZE,
                 header->payload_size);
    if (header->version >= 2) {
        // v2 extension block. A length that overruns the payload is
        // a truncated frame (BadFrame, like any length violation),
        // but any in-bounds block we cannot interpret — unknown
        // length, zero trace id — degrades to an untraced, untagged
        // request: a forward-compatibility valve, not an error.
        uint8_t block_len = 0;
        if (!r.u8(block_len) || block_len > r.remaining())
            return Status::BadFrame;
        if (block_len == TRACE_FIELD_WIRE_SIZE ||
            block_len == TRACE_TAG_WIRE_SIZE) {
            if (!r.u64(out.trace.trace_id) ||
                !r.u64(out.trace.parent_span_id))
                return Status::BadFrame;
            if (block_len == TRACE_TAG_WIRE_SIZE &&
                !r.u16(out.tenant_tag))
                return Status::BadFrame;
        } else if (block_len == TENANT_TAG_WIRE_SIZE) {
            if (!r.u16(out.tenant_tag))
                return Status::BadFrame;
        } else if (!r.skip(block_len)) {
            return Status::BadFrame;
        }
    }
    switch (static_cast<Op>(header->op)) {
      case Op::Open: {
        uint16_t kind;
        if (!r.u16(kind) || r.remaining() != 0)
            return Status::BadFrame;
        out.predictor = static_cast<PredictorKind>(kind);
        return Status::Ok;
      }
      case Op::SubmitBatch: {
        uint32_t count;
        if (!r.u32(count))
            return Status::BadFrame;
        if (r.remaining() != count * INTERVAL_RECORD_WIRE_SIZE)
            return Status::BadFrame;
        const uint8_t *base = r.position();
        const bool aligned =
            reinterpret_cast<uintptr_t>(base) %
                alignof(IntervalRecord) == 0;
        if (WIRE_LAYOUT_IS_NATIVE && aligned &&
            !g_force_copy_decode.load(std::memory_order_relaxed)) {
            // In-place fast path: the validated payload *is* the
            // record array (layout asserted in the header).
            out.records = RecordView{
                reinterpret_cast<const IntervalRecord *>(base),
                count};
            return Status::Ok;
        }
        // Copying fallback: one pass into the request arena. On a
        // little-endian host only the alignment was wrong, so a
        // bulk copy suffices; a big-endian host must swizzle each
        // field through the reader.
        std::span<IntervalRecord> copy =
            scratch.allocSpan<IntervalRecord>(count);
        if constexpr (WIRE_LAYOUT_IS_NATIVE) {
            if (count != 0)
                std::memcpy(copy.data(), base,
                            count * INTERVAL_RECORD_WIRE_SIZE);
        } else {
            for (uint32_t i = 0; i < count; ++i) {
                if (!r.f64(copy[i].uops) ||
                    !r.f64(copy[i].bus_tran_mem) ||
                    !r.u64(copy[i].tsc))
                    return Status::BadFrame;
            }
        }
        out.records = copy;
        return Status::Ok;
      }
      case Op::QueryStats:
      case Op::Close:
        return r.remaining() == 0 ? Status::Ok : Status::BadFrame;
      case Op::QueryMetrics:
      case Op::QueryPhases:
      case Op::QueryProfile:
        if (!r.u16(out.metrics_format) || r.remaining() != 0)
            return Status::BadFrame;
        return Status::Ok;
      case Op::QueryTraces:
        if (!r.u64(out.traces_filter) || r.remaining() != 0)
            return Status::BadFrame;
        return Status::Ok;
    }
    return Status::BadFrame; // unknown op
}

TenantTag
peekTenantTag(ByteView frame)
{
    const auto header = peekHeader(frame.data(), frame.size());
    if (!header || header->magic != FRAME_MAGIC ||
        header->version < 2)
        return 0;
    ByteReader r(frame.data() + FRAME_HEADER_SIZE,
                 frame.size() > FRAME_HEADER_SIZE
                     ? frame.size() - FRAME_HEADER_SIZE
                     : 0);
    uint8_t block_len = 0;
    if (!r.u8(block_len) || block_len > r.remaining())
        return 0;
    uint16_t tag = 0;
    if (block_len == TENANT_TAG_WIRE_SIZE) {
        r.u16(tag);
    } else if (block_len == TRACE_TAG_WIRE_SIZE) {
        r.skip(TRACE_FIELD_WIRE_SIZE);
        r.u16(tag);
    }
    return tag;
}

bool
setForceCopyDecodeForTest(bool on)
{
    return g_force_copy_decode.exchange(on);
}

void
encodeResponseInto(Bytes &out, uint16_t raw_op, uint64_t session_id,
                   Status status, ByteView body, uint16_t version)
{
    out.clear();
    ByteAppender a(out);
    // Echo a supported revision even when rejecting garbage whose
    // header claimed something else.
    appendHeader(a, clampVersion(version), raw_op, session_id,
                 static_cast<uint32_t>(2 + body.size()));
    a.u16(static_cast<uint16_t>(status));
    a.bytes(body);
}

void
encodeSubmitResponseInto(Bytes &out, uint16_t raw_op,
                         uint64_t session_id,
                         std::span<const IntervalResult> results,
                         uint16_t version)
{
    out.clear();
    ByteAppender a(out);
    appendHeader(a, clampVersion(version), raw_op, session_id,
                 static_cast<uint32_t>(
                     2 + 4 +
                     results.size() * INTERVAL_RESULT_WIRE_SIZE));
    a.u16(static_cast<uint16_t>(Status::Ok));
    a.u32(static_cast<uint32_t>(results.size()));
    if constexpr (WIRE_LAYOUT_IS_NATIVE) {
        a.bytes({reinterpret_cast<const uint8_t *>(results.data()),
                 results.size() * INTERVAL_RESULT_WIRE_SIZE});
    } else {
        for (const IntervalResult &res : results) {
            a.i32(res.phase);
            a.i32(res.predicted_next);
            a.u32(res.dvfs_index);
        }
    }
}

Bytes
encodeVersionAdvert()
{
    Bytes out;
    ByteAppender(out).u16(PROTOCOL_VERSION);
    return out;
}

uint16_t
decodeVersionAdvert(ByteView body)
{
    if (body.size() < 2)
        return PROTOCOL_VERSION_MIN;
    // The advert is the last two bytes, little-endian.
    const uint16_t v = static_cast<uint16_t>(
        body[body.size() - 2] | (body[body.size() - 1] << 8));
    if (v < PROTOCOL_VERSION_MIN)
        return PROTOCOL_VERSION_MIN;
    return v > PROTOCOL_VERSION ? PROTOCOL_VERSION : v;
}

void
encodeRetryAdviceInto(Bytes &out, uint32_t retry_after_ms)
{
    out.clear();
    ByteAppender a(out);
    a.u32(retry_after_ms);
}

uint32_t
decodeRetryAfterMs(ByteView body)
{
    ByteReader r(body);
    uint32_t ms = 0;
    r.u32(ms);
    return ms;
}

Bytes
encodeMetricsText(const std::string &text)
{
    Bytes out;
    ByteAppender(out).u32(static_cast<uint32_t>(text.size()));
    out.insert(out.end(), text.begin(), text.end());
    return out;
}

std::optional<std::string>
decodeMetricsText(ByteView body)
{
    ByteReader r(body);
    uint32_t length = 0;
    if (!r.u32(length) || r.remaining() != length)
        return std::nullopt;
    return std::string(body.end() - length, body.end());
}

bool
parseResponse(ByteView frame, ResponseView &out)
{
    const auto header = peekHeader(frame.data(), frame.size());
    if (!header || header->magic != FRAME_MAGIC ||
        header->version < PROTOCOL_VERSION_MIN ||
        header->version > PROTOCOL_VERSION)
        return false;
    if (frame.size() != FRAME_HEADER_SIZE + header->payload_size ||
        header->payload_size < 2)
        return false;
    out.header = *header;
    ByteReader r(frame.data() + FRAME_HEADER_SIZE,
                 header->payload_size);
    uint16_t status;
    if (!r.u16(status))
        return false;
    out.status = static_cast<Status>(status);
    out.body = frame.subspan(frame.size() - r.remaining());
    return true;
}

bool
decodeSubmitResultsInto(ByteView body,
                        std::vector<IntervalResult> &out)
{
    out.clear();
    ByteReader r(body);
    uint32_t count;
    if (!r.u32(count) ||
        r.remaining() != count * INTERVAL_RESULT_WIRE_SIZE)
        return false;
    if constexpr (WIRE_LAYOUT_IS_NATIVE) {
        out.resize(count);
        if (count != 0)
            std::memcpy(out.data(), r.position(),
                        count * INTERVAL_RESULT_WIRE_SIZE);
    } else {
        out.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
            IntervalResult res;
            if (!r.i32(res.phase) || !r.i32(res.predicted_next) ||
                !r.u32(res.dvfs_index))
                return false;
            out.push_back(res);
        }
    }
    return true;
}

} // namespace livephase::service
