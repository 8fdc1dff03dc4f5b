/**
 * @file
 * Per-request distributed tracing: sampled causal span trees over
 * the label-stack spans of obs/span.hh.
 *
 * Model (DESIGN.md §13):
 *  - A *trace* is one client request's whole life — every retry
 *    attempt, backoff sleep, reconnect, queue admission, pipeline
 *    stage and triggered failpoint — identified by a nonzero 64-bit
 *    trace id allocated at the client (head-based sampling: the
 *    sampling decision is made once, at the root, and everything
 *    downstream inherits it).
 *  - A *span* is one timed node in that tree: 64-bit span id,
 *    parent span id, start/end timestamps (sinceStartNs timebase),
 *    thread id, a literal name and up to 4 preformatted key=value
 *    annotations. A zero-length span is an *instant* event.
 *  - The active {trace id, span id} pair is thread-local *trace
 *    context*; TraceSpan pushes itself as the context for its scope
 *    so children parent correctly, and ScopedTrace installs a
 *    context received from elsewhere (the wire, a request queue).
 *
 * Completed spans go into fixed-size per-thread SeqlockRings
 * (obs/seqlock_ring.hh): no locks, no allocation. A new thread
 * reuses an exited thread's ring, whose spans stay queryable until
 * overwritten. Readers (the query-traces op, the CLI) snapshot all
 * rings and skip slots mid-write. Overflow overwrites the oldest
 * span in that ring (drop-oldest; totalRecorded() minus the
 * snapshot size bounds the loss).
 *
 * Cost model: with no active context (unsampled request, or
 * tracing off) a TraceSpan is one thread-local load and a
 * predicted-not-taken branch — bench_trace_overhead gates the
 * end-to-end cost at 1% sampling under 5%.
 */

#ifndef LIVEPHASE_OBS_TRACE_HH
#define LIVEPHASE_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "obs/seqlock_ring.hh"

namespace livephase::obs
{

/** The propagated pair: which trace, and which span is the parent
 *  of whatever happens next. trace_id == 0 means "not sampled" —
 *  the universal off switch. */
struct TraceContext
{
    uint64_t trace_id = 0;
    uint64_t span_id = 0;

    bool sampled() const { return trace_id != 0; }
};

namespace detail
{
extern thread_local TraceContext current_trace;
} // namespace detail

// GCC 12's ASan rewrite of the TLS address computation for
// `current_trace` can split the flag-setting `add` into mov+lea,
// leaving UBSan's null-reference branch reading stale flags from the
// (always-zero) weak TLS-init-function test — a deterministic false
// "reference binding to null pointer" abort under
// -fsanitize=address,undefined. The address (%fs - offset) can never
// be null, so exempt just these two accessors from UBSan.
#if defined(__GNUC__) || defined(__clang__)
#define LIVEPHASE_TLS_NO_UBSAN __attribute__((no_sanitize("undefined")))
#else
#define LIVEPHASE_TLS_NO_UBSAN
#endif

/** This thread's active trace context ({0,0} when untraced). */
inline TraceContext LIVEPHASE_TLS_NO_UBSAN
currentTrace()
{
    return detail::current_trace;
}

/** Install a context directly (prefer ScopedTrace). */
inline void LIVEPHASE_TLS_NO_UBSAN
setCurrentTrace(TraceContext ctx)
{
    detail::current_trace = ctx;
}

/** RAII: adopt a context received from elsewhere (wire, queue) for
 *  the current scope, restoring the previous one on exit. */
class ScopedTrace
{
  public:
    explicit ScopedTrace(TraceContext ctx)
        : prev(currentTrace())
    {
        setCurrentTrace(ctx);
    }

    ~ScopedTrace() { setCurrentTrace(prev); }

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

  private:
    TraceContext prev;
};

/** One key=value span annotation, preformatted at the call site
 *  (same discipline as FlightRecorder::FieldArg: a span can never
 *  embed raw payload bytes unless a call site formats them in). */
struct TraceAnnotation
{
    static constexpr size_t KEY_LEN = 15;
    static constexpr size_t VALUE_LEN = 31;

    TraceAnnotation(const char *key, const char *value);
    TraceAnnotation(const char *key, const std::string &value);
    TraceAnnotation(const char *key, uint64_t value);
    TraceAnnotation(const char *key, int64_t value);
    TraceAnnotation(const char *key, double value);

    char key[KEY_LEN + 1] = {};
    char value[VALUE_LEN + 1] = {};
};

/** One completed span as read back out of a ring. */
struct SpanRecord
{
    static constexpr size_t NAME_LEN = 31;
    static constexpr size_t MAX_ANNOTATIONS = 4;

    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_id = 0; ///< 0 = root of its trace
    uint64_t start_ns = 0;  ///< sinceStartNs() timebase
    uint64_t end_ns = 0;    ///< == start_ns for instant events
    uint32_t tid = 0;       ///< obs::threadId()
    char name[NAME_LEN + 1] = {};
    uint8_t nannotations = 0;
    struct
    {
        char key[TraceAnnotation::KEY_LEN + 1] = {};
        char value[TraceAnnotation::VALUE_LEN + 1] = {};
    } annotations[MAX_ANNOTATIONS];
};

/**
 * Process-wide tracer: id allocation, the head-based sampling
 * decision, and the per-thread span rings.
 */
class Tracer
{
  public:
    /** Spans retained per recording thread before drop-oldest
     *  (~290 B/slot: 2048 slots ≈ 0.6 MB per thread). */
    static constexpr size_t DEFAULT_RING_SPANS = 2048;

    explicit Tracer(size_t ring_spans = DEFAULT_RING_SPANS);

    /** The tracer every instrumented call site reports into. */
    static Tracer &global();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Head-based sampling rate in [0, 1]; 0 (the default) disables
     *  tracing entirely, 1 traces every request. */
    void setSampleRate(double rate);
    double sampleRate() const;

    /**
     * Make the sampling decision for a new request. Returns a root
     * context {fresh trace id, span id 0} when sampled, {0, 0}
     * otherwise. Deterministic in the decision sequence number, so
     * two equal-rate runs sample the same request indices.
     */
    TraceContext startTrace();

    /** Allocate a fresh span id (never 0). */
    uint64_t nextSpanId();

    /** Record one completed span into this thread's ring. */
    void record(const SpanRecord &rec);

    /** Consistent best-effort copy of every ring, oldest first by
     *  start time. Slots being concurrently overwritten are
     *  skipped. */
    std::vector<SpanRecord> snapshotSpans() const;

    /** snapshotSpans() filtered to one trace id. */
    std::vector<SpanRecord> snapshotTrace(uint64_t trace_id) const;

    /** Spans ever recorded across all threads (minus what a
     *  snapshot returns = dropped to overwrite). */
    uint64_t totalRecorded() const
    {
        return total_recorded.load(std::memory_order_relaxed);
    }

    /** Drop all retained spans (tests / between CLI phases). Only
     *  safe while no thread is concurrently recording. */
    void reset();

    size_t ringSpans() const { return ring_spans; }

    /** Rings: bounded by the recording threads alive at once. */
    size_t ringCount() const { return rings.ringCount(); }

  private:
    SeqlockRing<SpanRecord> &threadRing();

    /** Never reused, so a thread's ring cache can key on it without
     *  aliasing a destroyed tracer (see threadRing()). */
    const uint64_t tracer_id;
    const size_t ring_spans;
    std::atomic<double> sample_rate{0.0};
    std::atomic<uint64_t> trace_seq{0};
    std::atomic<uint64_t> span_seq{0};
    std::atomic<uint64_t> total_recorded{0};
    ThreadRings<SpanRecord> rings;
};

/**
 * RAII span: when the thread has a sampled context at construction,
 * becomes the context for its scope and records itself into the
 * tracer on end()/destruction. Inert (one TLS load) otherwise.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name)
    {
        if (currentTrace().sampled())
            begin(name);
    }

    ~TraceSpan() { end(); }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach key=value (up to MAX_ANNOTATIONS; extras dropped). */
    void annotate(const TraceAnnotation &a);

    /** Record the span now (idempotent; the destructor calls it). */
    void end();

    /** This span's context ({0,0} when not sampled). */
    TraceContext context() const
    {
        return active ? TraceContext{rec.trace_id, rec.span_id}
                      : TraceContext{};
    }

    bool sampled() const { return active; }

  private:
    void begin(const char *name);

    bool active = false;
    TraceContext saved{};
    SpanRecord rec;
};

/** Record an instant event (zero-length span) under the current
 *  context; no-op when untraced. */
void traceInstant(const char *name,
                  std::initializer_list<TraceAnnotation> annotations = {});

/**
 * Render spans as Chrome trace-event JSON (load in Perfetto or
 * chrome://tracing): complete "X" events with microsecond ts/dur,
 * instants as "i" events, trace/span/parent ids in args.
 */
std::string chromeTraceJson(const std::vector<SpanRecord> &spans);

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_TRACE_HH
