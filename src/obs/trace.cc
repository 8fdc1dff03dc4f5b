#include "obs/trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"
#include "obs/runtime.hh"

namespace livephase::obs
{

namespace detail
{
thread_local TraceContext current_trace{};
} // namespace detail

namespace
{

/** splitmix64: bijective, so distinct sequence numbers give
 *  distinct (and well-scattered) ids. */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

Tracer::Tracer(size_t n)
    : tracer_id([] {
          static std::atomic<uint64_t> next{0};
          return next.fetch_add(1, std::memory_order_relaxed) + 1;
      }()),
      ring_spans(n), rings(n)
{
    if (ring_spans == 0)
        fatal("Tracer: ring_spans must be > 0");
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setSampleRate(double rate)
{
    sample_rate.store(std::clamp(rate, 0.0, 1.0),
                      std::memory_order_relaxed);
}

double
Tracer::sampleRate() const
{
    return sample_rate.load(std::memory_order_relaxed);
}

TraceContext
Tracer::startTrace()
{
    const double rate = sample_rate.load(std::memory_order_relaxed);
    if (rate <= 0.0)
        return {};
    const uint64_t seq =
        trace_seq.fetch_add(1, std::memory_order_relaxed);
    if (rate < 1.0) {
        // The decision for request N is a pure function of N, so
        // equal-rate runs sample the same request indices — the
        // same determinism discipline the failpoints follow.
        const uint64_t draw = splitmix64(seq ^ 0x5eedc0de0acead1dULL);
        const double u =
            static_cast<double>(draw >> 11) * 0x1.0p-53;
        if (u >= rate)
            return {};
    }
    uint64_t id = splitmix64(seq);
    if (id == 0)
        id = 1; // trace id 0 means "unsampled" on the wire
    return {id, 0};
}

uint64_t
Tracer::nextSpanId()
{
    return span_seq.fetch_add(1, std::memory_order_relaxed) + 1;
}

SeqlockRing<SpanRecord> &
Tracer::threadRing()
{
    // One ring per (tracer, thread), cached keyed by tracer_id —
    // never by thread alone: several tracers can coexist (tests),
    // and a bare thread_local would hand every later tracer the
    // first tracer's ring. The single-entry fast path keeps the
    // common case (only the global tracer records) at two TLS
    // loads and a compare. Thread exit drops the cached share, so
    // a later thread's acquire() reuses the ring.
    struct Entry
    {
        uint64_t id = 0;
        std::shared_ptr<SeqlockRing<SpanRecord>> ring;
    };
    thread_local Entry last;
    thread_local std::vector<Entry> others;
    if (last.id == tracer_id)
        return *last.ring;
    for (Entry &e : others)
        if (e.id == tracer_id) {
            std::swap(e, last);
            return *last.ring;
        }
    if (last.ring)
        others.push_back(std::move(last));
    last = Entry{tracer_id, rings.acquire()};
    return *last.ring;
}

void
Tracer::record(const SpanRecord &rec)
{
    threadRing().write(
        [&rec](SpanRecord &out, uint64_t) { out = rec; });
    total_recorded.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord>
Tracer::snapshotSpans() const
{
    std::vector<SpanRecord> spans;
    rings.snapshotInto(spans);
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.start_ns < b.start_ns;
              });
    return spans;
}

std::vector<SpanRecord>
Tracer::snapshotTrace(uint64_t trace_id) const
{
    std::vector<SpanRecord> spans = snapshotSpans();
    spans.erase(std::remove_if(spans.begin(), spans.end(),
                               [trace_id](const SpanRecord &s) {
                                   return s.trace_id != trace_id;
                               }),
                spans.end());
    return spans;
}

void
Tracer::reset()
{
    rings.clear();
}

void
TraceSpan::begin(const char *name)
{
    Tracer &tracer = Tracer::global();
    const TraceContext parent = currentTrace();
    saved = parent;
    SpanRecord &r = rec.emplace();
    r.trace_id = parent.trace_id;
    r.span_id = tracer.nextSpanId();
    r.parent_id = parent.span_id;
    r.start_ns = sinceStartNs();
    r.tid = threadId();
    copyTruncated(r.name, sizeof(r.name), name);
    setCurrentTrace({parent.trace_id, r.span_id});
}

void
TraceSpan::annotate(const TraceAnnotation &a)
{
    if (!rec || rec->nannotations >= SpanRecord::MAX_ANNOTATIONS)
        return;
    rec->annotations[rec->nannotations++] = a;
}

void
TraceSpan::end()
{
    if (!rec)
        return;
    rec->end_ns = sinceStartNs();
    Tracer::global().record(*rec);
    rec.reset();
    setCurrentTrace(saved);
}

void
traceInstant(const char *name,
             std::initializer_list<TraceAnnotation> annotations)
{
    const TraceContext ctx = currentTrace();
    if (!ctx.sampled())
        return;
    SpanRecord rec;
    rec.trace_id = ctx.trace_id;
    rec.span_id = Tracer::global().nextSpanId();
    rec.parent_id = ctx.span_id;
    rec.start_ns = sinceStartNs();
    rec.end_ns = rec.start_ns;
    rec.tid = threadId();
    copyTruncated(rec.name, sizeof(rec.name), name);
    for (const TraceAnnotation &a : annotations) {
        if (rec.nannotations >= SpanRecord::MAX_ANNOTATIONS)
            break;
        rec.annotations[rec.nannotations++] = a;
    }
    Tracer::global().record(rec);
}

namespace
{

void
appendJsonEscaped(std::string &out, const char *s)
{
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            out += '\\';
        out += *s;
    }
}

void
appendHexId(std::string &out, uint64_t id)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, id);
    out += buf;
}

} // namespace

std::string
chromeTraceJson(const std::vector<SpanRecord> &spans)
{
    std::string out;
    out.reserve(spans.size() * 220 + 64);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buf[64];
    for (const SpanRecord &s : spans) {
        if (!first)
            out += ",";
        first = false;
        const bool instant = s.end_ns <= s.start_ns;
        out += "\n{\"name\":\"";
        appendJsonEscaped(out, s.name);
        out += "\",\"cat\":\"livephase\",\"ph\":\"";
        out += instant ? "i" : "X";
        out += "\",\"ts\":";
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(s.start_ns) / 1e3);
        out += buf;
        if (instant) {
            out += ",\"s\":\"t\"";
        } else {
            std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                          static_cast<double>(s.end_ns - s.start_ns) /
                              1e3);
            out += buf;
        }
        std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u",
                      s.tid);
        out += buf;
        out += ",\"args\":{\"trace_id\":\"";
        appendHexId(out, s.trace_id);
        out += "\",\"span_id\":\"";
        appendHexId(out, s.span_id);
        out += "\",\"parent_span_id\":\"";
        appendHexId(out, s.parent_id);
        out += "\"";
        for (uint8_t i = 0; i < s.nannotations; ++i) {
            out += ",\"";
            appendJsonEscaped(out, s.annotations[i].key);
            out += "\":\"";
            appendJsonEscaped(out, s.annotations[i].value);
            out += "\"";
        }
        out += "}}";
    }
    out += "\n]}\n";
    return out;
}

} // namespace livephase::obs
