/**
 * @file
 * Sharded, low-contention metrics registry.
 *
 * Five metric kinds, all updatable lock-free from any thread:
 *
 *  - Counter:   monotonically increasing u64 (events, intervals).
 *  - Gauge:     last-written double (queue depth, open sessions).
 *  - Histogram: log-bucketed distribution of non-negative values
 *               with exact count/sum/max and bounded memory
 *               (LOG_SUBBUCKETS equal-width sub-buckets per power
 *               of two, so a quantile read off the buckets carries
 *               a bounded relative error of at most
 *               1/LOG_SUBBUCKETS = 12.5%).
 *  - WindowedCounter / WindowedHistogram: rings of one-second cells
 *               read over 1 s / 10 s / 60 s sliding windows
 *               (obs/timeseries.hh). The registry owns their
 *               rotation schedule.
 *
 * Metric objects live as long as the registry and are handed out by
 * reference: look one up once (e.g. into a function-local static),
 * then update it with plain atomic ops — the name-to-metric map is
 * only touched at registration time, and is itself sharded by name
 * hash so concurrent registration from the worker pool does not
 * funnel through one mutex.
 *
 * Names follow the scheme documented in DESIGN.md §11:
 * `livephase_<layer>_<what>[_<unit>][_total]`, with an optional
 * trailing Prometheus label set baked into the registered name
 * (e.g. `livephase_service_op_latency_us{op="open"}`). Windowed
 * series use dotted names (`service.queue_wait_ms`, DESIGN.md §16).
 *
 * snapshot() produces an immutable, mergeable copy of the flat kinds
 * and windowSnapshot() a read of every windowed series; rendering to
 * Prometheus text or JSONL lives in obs/exposition.hh.
 */

#ifndef LIVEPHASE_OBS_METRICS_HH
#define LIVEPHASE_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

namespace livephase::obs
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void inc(uint64_t n = 1)
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> v{0};
};

/** Last-written instantaneous value. */
class Gauge
{
  public:
    void set(double x) { v.store(x, std::memory_order_relaxed); }

    void add(double delta)
    {
        double cur = v.load(std::memory_order_relaxed);
        while (!v.compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
        }
    }

    double value() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v{0.0};
};

/** Linear sub-buckets per power of two; 8 bounds the relative
 *  width of a bucket (and hence the quantile error) to 1/8 =
 *  12.5%, worst at the bottom of each octave. */
constexpr size_t LOG_SUBBUCKETS = 8;

/** Smallest/largest finitely resolved value exponent: buckets span
 *  [2^LOG_MIN_EXP, 2^LOG_MAX_EXP), i.e. [~1e-3, ~1e9] — nanoseconds
 *  to a quarter hour when recording microseconds. */
constexpr int LOG_MIN_EXP = -10;
constexpr int LOG_MAX_EXP = 30;

/** Resolved buckets plus one underflow (index 0) and one overflow
 *  (last index) bucket. */
constexpr size_t HISTOGRAM_BUCKETS =
    static_cast<size_t>(LOG_MAX_EXP - LOG_MIN_EXP) * LOG_SUBBUCKETS +
    2;

/** Immutable copy of a Histogram; mergeable across shards/hosts. */
struct HistogramSnapshot
{
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::vector<uint64_t> buckets; ///< HISTOGRAM_BUCKETS entries

    double mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }

    /**
     * Quantile estimate read off the buckets, linearly interpolated
     * inside the containing bucket and clamped to the exact max.
     * Ranks count the buckets' population, which is `count` except
     * for sampled streams (Histogram::recordSampled).
     * @param p percentile in [0, 100].
     */
    double quantile(double p) const;

    /** Element-wise accumulation (exact for count/sum, max of max). */
    void merge(const HistogramSnapshot &other);
};

/**
 * Lock-free log-bucketed histogram of non-negative values.
 */
class Histogram
{
  public:
    /** Record one value standing for `weight` events (1 = just
     *  itself); negative/NaN values clamp into the underflow
     *  bucket. */
    void record(double value, uint64_t weight = 1);

    /**
     * One event of a sampled stream that was measured and stands
     * for `weight` events (itself and the unmeasured ones before
     * it): the count grows by one, the buckets and the sum by
     * `weight` copies of `value`. Its unmeasured events call
     * countUnsampled(), so count() stays exact while the buckets,
     * sum and max describe the sample (obs/span.hh).
     */
    void recordSampled(double value, uint64_t weight);

    /** One event of a sampled stream that was not measured. */
    void countUnsampled() { n.fetch_add(1, std::memory_order_relaxed); }

    /** Bucket index a value lands in. */
    static size_t bucketIndex(double value);

    /** Inclusive lower bound of a bucket (0 for underflow). */
    static double bucketLowerBound(size_t bucket);

    /** Exclusive upper bound of a bucket (+inf for overflow). */
    static double bucketUpperBound(size_t bucket);

    uint64_t count() const
    {
        return n.load(std::memory_order_relaxed);
    }

    double sum() const
    {
        return total.load(std::memory_order_relaxed);
    }

    double max() const
    {
        return peak.load(std::memory_order_relaxed);
    }

    HistogramSnapshot snapshot() const;

    /**
     * Reset all buckets and aggregates to zero. NOT safe against
     * concurrent record() — callers must guarantee no writer is
     * touching this instance (the time-series ring clears only the
     * cell one full rotation away from the live one).
     */
    void clear();

  private:
    /** Buckets, sum and max; not the count. */
    void addToDistribution(double value, uint64_t weight);

    std::array<std::atomic<uint64_t>, HISTOGRAM_BUCKETS> buckets{};
    std::atomic<uint64_t> n{0};
    std::atomic<double> total{0.0};
    std::atomic<double> peak{0.0};
};

class WindowedCounter;
class WindowedHistogram;
enum class Window : uint8_t;
struct WindowStats;
struct TimeSeriesSnapshot;

/** In the order of MetricsRegistry::Slot's alternatives. */
enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
    WindowedCounter,
    WindowedHistogram
};

const char *metricKindName(MetricKind kind);

/** One named metric inside a MetricsSnapshot. */
struct MetricSample
{
    std::string name; ///< full name, optional {labels} suffix
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;      ///< counter/gauge
    HistogramSnapshot hist{}; ///< histogram only
};

/** Point-in-time copy of a registry, sorted by name. */
struct MetricsSnapshot
{
    std::vector<MetricSample> samples;

    /** nullptr when absent. */
    const MetricSample *find(const std::string &name) const;

    /**
     * Fold another snapshot in (same-name counters/gauge values
     * add, histograms merge; unmatched names are appended). Keeps
     * the by-name ordering.
     */
    void merge(const MetricsSnapshot &other);
};

/**
 * Name-sharded registry of metrics. Registration is mutex-guarded
 * per shard; handed-out references stay valid for the registry's
 * lifetime, so the hot path never touches the map again.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    /** The process-wide registry all instrumentation reports to. */
    static MetricsRegistry &global();

    /** Find-or-create. panic() when `name` is already registered as
     *  a different kind. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);
    WindowedCounter &windowedCounter(const std::string &name);
    WindowedHistogram &windowedHistogram(const std::string &name);

    /** The flat kinds (counter, gauge, histogram), sorted by name. */
    MetricsSnapshot snapshot() const;

    /** Every windowed series over all three windows, by name. */
    TimeSeriesSnapshot windowSnapshot() const;

    /**
     * Stats for a named windowed series over one window, without
     * creating it. False when no windowed series has that name —
     * the watchdog skips such rules instead of registering empty
     * series.
     */
    bool seriesStats(const std::string &name, Window w,
                     WindowStats &out) const;

    /**
     * Rotate every windowed series when a slot boundary has passed.
     * Any thread may drive it (the watchdog, the ratekeeper, each
     * exposition pass): callers race on one CAS on the deadline and
     * losers return immediately.
     * Catch-up after a stall rotates multiple times (capped at
     * TS_SLOTS) so stale cells cannot leak into fresh windows.
     * @return number of rotations performed by this caller.
     */
    size_t rotateIfDue(uint64_t now_ns);

    /** Convenience: rotateIfDue(monoNowNs()). */
    size_t rotateIfDue();

    /** Slot duration; default 1 s. Tests shrink it to drive windows
     *  quickly. Takes effect at the next rotation. */
    void setSlotDuration(uint64_t ns);

    uint64_t slotDurationNs() const
    {
        return slot_ns.load(std::memory_order_relaxed);
    }

    /**
     * Reset every windowed series (cells cleared, epochs zeroed)
     * and un-anchor the rotation schedule, WITHOUT invalidating
     * handed-out references. The simulator calls this before each
     * run so a replay inside a warm process starts from the same
     * window state as a cold one; not safe against concurrent
     * writers. Flat metrics are left as they are.
     */
    void resetWindowsForTest();

  private:
    static constexpr size_t SHARDS = 8;

    using Slot = std::variant<std::unique_ptr<Counter>,
                              std::unique_ptr<Gauge>,
                              std::unique_ptr<Histogram>,
                              std::unique_ptr<WindowedCounter>,
                              std::unique_ptr<WindowedHistogram>>;

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<std::string, Slot> metrics;
    };

    template <typename M>
    M &findOrCreate(const std::string &name, MetricKind kind);

    static size_t shardIndex(const std::string &name);

    void rotateAll();

    std::array<Shard, SHARDS> shards;
    std::atomic<uint64_t> slot_ns{1'000'000'000};
    std::atomic<uint64_t> next_rotation_ns{0};
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_METRICS_HH
