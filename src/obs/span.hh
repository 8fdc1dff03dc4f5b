/**
 * @file
 * Scoped spans: RAII timers over the hot pipeline stages.
 *
 *     void Session::processBatch(...) {
 *         OBS_SPAN("service.session_batch");
 *         ...
 *     }
 *
 * Each OBS_SPAN site owns one histogram in the global registry,
 * named `livephase_span_us{span="<name>"}`, resolved once through a
 * function-local static. While a span is open its label sits on the
 * thread's span stack, so flight-recorder events record *where* in
 * the pipeline they happened (see obs/flight_recorder.hh).
 *
 * Every pass is counted, but only one pass in SPAN_SAMPLE_PERIOD
 * per site and thread is timed (the first always): a clock read
 * costs about as much as a whole pipeline stage of a small batch,
 * so timing every pass would make the instrument dearer than what
 * it measures. The timed pass records its duration with the weight
 * of the passes it stands for (Histogram::recordSampled), so the
 * count is exact and the sum and quantiles are estimates from a
 * uniform sample.
 *
 * Cost model:
 *  - runtime-disabled (the default): one relaxed atomic load and a
 *    predicted-not-taken branch;
 *  - enabled: a thread-local pass count and one atomic add; on a
 *    timed pass, two steady-clock reads plus one histogram record
 *    (back-to-back stages chained with OBS_SPAN_FROM share the read
 *    at each boundary).
 *
 * bench_obs_overhead holds the enabled end-to-end cost under the 5%
 * budget DESIGN.md §11 commits to.
 */

#ifndef LIVEPHASE_OBS_SPAN_HH
#define LIVEPHASE_OBS_SPAN_HH

#include "common/cycles.hh"
#include "obs/metrics.hh"
#include "obs/runtime.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"

namespace livephase::obs
{

/** Registry histogram backing one span site ("classify" ->
 *  livephase_span_us{span="classify"}). */
Histogram &spanHistogram(const char *name);

/** Windowed series backing one span site's cycle attribution
 *  ("core.predict" -> `cycles.core.predict`). */
WindowedHistogram &spanCycleSeries(const char *name);

namespace detail
{
extern std::atomic<bool> cycle_attribution;
}

/** True while OBS_SPAN sites also record TSC deltas into their
 *  `cycles.<name>` windowed series. */
inline bool
cycleAttributionEnabled()
{
    return detail::cycle_attribution.load(std::memory_order_relaxed);
}

/**
 * Turn per-stage cycle attribution on or off. Flipped by the
 * profiler's start/stop (obs/profiler.hh); refuses to enable —
 * returning false — while a virtual time source is installed, so a
 * deterministic simulation can never observe a raw TSC read
 * (common/cycles.hh seam guard). Disabling always succeeds.
 */
bool setCycleAttribution(bool on);

/** One pass in this many is timed, per span site and thread. */
constexpr uint64_t SPAN_SAMPLE_PERIOD = 64;

/** Clock and TSC readings at a span boundary (0 = not read). */
struct SpanStamp
{
    uint64_t ns = 0;
    uint64_t cycles = 0;
};

/**
 * RAII span: counts its scope into `hist`, times it on sampled
 * passes, and keeps `name` on the thread's span stack while alive.
 * No-op when obs is disabled at construction time.
 *
 * When the thread carries a sampled trace context (obs/trace.hh),
 * the scope additionally becomes a trace span of the same name
 * nested under that context — the aggregate histogram and the
 * per-request span tree come from one instrumentation site.
 */
class Span
{
  public:
    /** `passes` is the site's per-thread pass count, which picks
     *  the timed passes. `cycle_site` is the site's lazily resolved
     *  `cycles.<name>` series slot; null opts the site out of
     *  cycle attribution entirely. A nonzero field of `start` is
     *  taken as the span's opening reading in place of a fresh
     *  clock / TSC read (see end()). */
    Span(const char *name, Histogram &histogram, uint64_t &passes,
         std::atomic<WindowedHistogram *> *cycle_site = nullptr,
         SpanStamp start = {})
        : tspan(name)
    {
        if (!enabled())
            return;
        hist = &histogram;
        pushSpan(name);
        const uint64_t pass = passes++;
        if (pass % SPAN_SAMPLE_PERIOD != 0)
            return;
        weight = pass == 0 ? 1 : SPAN_SAMPLE_PERIOD;
        start_ns = start.ns != 0 ? start.ns : monoNowNs();
        if (cycle_site != nullptr && cycleAttributionEnabled()) {
            WindowedHistogram *w =
                cycle_site->load(std::memory_order_acquire);
            if (w == nullptr) {
                /* One registry lookup per site, and only on the
                 * first pass with attribution live — the
                 * attribution-off hot path never touches the
                 * registry. */
                w = &spanCycleSeries(name);
                cycle_site->store(w, std::memory_order_release);
            }
            cycles_out = w;
            start_cycles = start.cycles != 0 ? start.cycles : rdcycles();
        }
    }

    ~Span() { end(); }

    /**
     * Close the span now instead of at scope exit. Returns the
     * closing readings of a timed pass so a stage that starts right
     * here can open from them (OBS_SPAN_FROM) without reading the
     * clock again; all zero otherwise. Idempotent.
     */
    SpanStamp end()
    {
        SpanStamp now;
        if (hist) {
            popSpan();
            if (weight == 0) {
                hist->countUnsampled();
            } else {
                if (cycles_out != nullptr) {
                    now.cycles = rdcycles();
                    cycles_out->record(
                        static_cast<double>(now.cycles - start_cycles),
                        weight);
                }
                now.ns = monoNowNs();
                hist->recordSampled(
                    static_cast<double>(now.ns - start_ns) / 1e3,
                    weight);
            }
            hist = nullptr;
        }
        tspan.end();
        return now;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** The trace-side twin (inert when the request is unsampled);
     *  call sites annotate request-specific facts through it. */
    TraceSpan &trace() { return tspan; }

  private:
    TraceSpan tspan;
    Histogram *hist = nullptr;
    /** Passes this timed pass stands for; 0 = not timed. */
    uint64_t weight = 0;
    WindowedHistogram *cycles_out = nullptr;
    uint64_t start_ns = 0;
    uint64_t start_cycles = 0;
};

} // namespace livephase::obs

#define LIVEPHASE_OBS_CONCAT2(a, b) a##b
#define LIVEPHASE_OBS_CONCAT(a, b) LIVEPHASE_OBS_CONCAT2(a, b)

/** Span `var` timing its scope as span `name` (a string literal),
 *  opening from the SpanStamp after it (`{}` reads the clock). The
 *  per-site statics hold the site's histogram, its per-thread pass
 *  count, and the `cycles.<name>` windowed series once cycle
 *  attribution first sees the site (see Span). Back-to-back
 *  stages chain as `OBS_SPAN_FROM(b, "b", a.end())`, one clock read
 *  per boundary. */
#define OBS_SPAN_FROM(var, name, ...)                                \
    static ::livephase::obs::Histogram &LIVEPHASE_OBS_CONCAT(        \
        var, _obs_hist) = ::livephase::obs::spanHistogram(name);     \
    static thread_local uint64_t LIVEPHASE_OBS_CONCAT(var,           \
                                                      _obs_passes);  \
    static ::std::atomic<::livephase::obs::WindowedHistogram *>      \
        LIVEPHASE_OBS_CONCAT(var, _obs_cycles){nullptr};             \
    ::livephase::obs::Span var                                       \
    {                                                                \
        (name), LIVEPHASE_OBS_CONCAT(var, _obs_hist),                \
            LIVEPHASE_OBS_CONCAT(var, _obs_passes),                  \
            &LIVEPHASE_OBS_CONCAT(var, _obs_cycles), (__VA_ARGS__)   \
    }

/** Time the enclosing scope as span `name` (a string literal). */
#define OBS_SPAN(name)                                               \
    OBS_SPAN_FROM(LIVEPHASE_OBS_CONCAT(obs_span_, __LINE__), name,   \
                  ::livephase::obs::SpanStamp{})

#endif // LIVEPHASE_OBS_SPAN_HH
