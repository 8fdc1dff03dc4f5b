/**
 * @file
 * Windowed time-series layer: sliding-window rates and quantiles
 * over the lock-free metric primitives in obs/metrics.hh. Series are
 * registered, rotated and read through MetricsRegistry, like every
 * other metric kind.
 *
 * Point-in-time counters answer "how many ever"; operating a fleet
 * needs "how many per second, right now" and "what is p99 over the
 * last minute". Each series here is a fixed ring of one-second
 * cells (Histogram or u64 counter). Writers record into the live
 * cell with the same relaxed atomics as the flat metrics — zero
 * allocation, no locks, no fences on the request path. A rotation
 * tick (MetricsRegistry::rotateIfDue(), driven by the watchdog
 * thread, the ratekeeper, or any exposition pass — whoever gets
 * there first wins a CAS) clears the *next* cell and advances the
 * epoch; readers merge the last k
 * closed cells plus the live one into an ordinary
 * HistogramSnapshot and read rate/p50/p99 off it.
 *
 * Consistency model: a writer that loads the epoch, then stalls for
 * a full ring revolution (SLOTS seconds) before recording, can land
 * one sample in a recycled cell. That mis-files a single sample by
 * a window — acceptable for telemetry, and the price of keeping the
 * record path wait-free. Rotation and reads never block writers.
 */

#ifndef LIVEPHASE_OBS_TIMESERIES_HH
#define LIVEPHASE_OBS_TIMESERIES_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace livephase::obs
{

/** Ring length. 64 one-second cells covers the longest queryable
 *  window (60 s) with spare cells so the live cell and the
 *  just-cleared cell never overlap a 60 s read. */
constexpr size_t TS_SLOTS = 64;

/** Sliding windows a series can be queried over. */
enum class Window : uint8_t
{
    OneSecond,
    TenSeconds,
    SixtySeconds,
};

const char *windowName(Window w);

/** Number of *closed* cells a window spans (the live cell is always
 *  merged in addition, so "1 s" reads live + 1 closed cell). */
size_t windowSlots(Window w);

/** Aggregate read off a windowed series. */
struct WindowStats
{
    uint64_t count = 0;  ///< samples (histogram) or events (counter)
    double rate = 0.0;   ///< count / window span (per second)
    double mean = 0.0;   ///< histogram only
    double p50 = 0.0;    ///< histogram only
    double p99 = 0.0;    ///< histogram only
    double max = 0.0;    ///< histogram only
};

/**
 * Ring of one-second Histogram cells. record() is wait-free;
 * window(k) merges the live cell plus the last k closed cells.
 */
class WindowedHistogram
{
  public:
    WindowedHistogram() = default;

    /** Record into the live cell. */
    void record(double value)
    {
        cells[epoch.load(std::memory_order_relaxed) % TS_SLOTS]
            .record(value);
    }

    /** Merged snapshot over the live cell + last `slots` closed
     *  cells. */
    HistogramSnapshot windowSnapshot(size_t slots) const;

    /** Stats over a named window at the current slot duration. */
    WindowStats stats(Window w, double slot_seconds) const;

    /** Advance the ring: clear the cell one step ahead, then make
     *  it live. Called only by the registry's rotation tick. */
    void rotate();

    /** Clear every cell and reset the epoch to 0. NOT safe against
     *  concurrent record(); single-threaded callers only (the
     *  simulator between replays, tests). */
    void resetForTest();

    uint64_t currentEpoch() const
    {
        return epoch.load(std::memory_order_relaxed);
    }

  private:
    // Heap-backed: HISTOGRAM_BUCKETS atomics x TS_SLOTS is ~165 KiB
    // per series, too big to inline into registry storage. Allocated
    // once at registration, never on the record path.
    std::unique_ptr<std::array<Histogram, TS_SLOTS>> cells_owner =
        std::make_unique<std::array<Histogram, TS_SLOTS>>();
    std::array<Histogram, TS_SLOTS> &cells = *cells_owner;
    std::atomic<uint64_t> epoch{0};
};

/**
 * Ring of one-second u64 counter cells, for event rates (admits,
 * sheds, evictions, mispredictions per second).
 */
class WindowedCounter
{
  public:
    void inc(uint64_t n = 1)
    {
        cells[epoch.load(std::memory_order_relaxed) % TS_SLOTS]
            .fetch_add(n, std::memory_order_relaxed);
    }

    /** Events in the live cell + last `slots` closed cells. */
    uint64_t windowCount(size_t slots) const;

    WindowStats stats(Window w, double slot_seconds) const;

    void rotate();

    /** Zero every cell and the epoch; see
     *  WindowedHistogram::resetForTest for the safety contract. */
    void resetForTest();

    uint64_t currentEpoch() const
    {
        return epoch.load(std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<uint64_t>, TS_SLOTS> cells{};
    std::atomic<uint64_t> epoch{0};
};

/** One named series inside a TimeSeriesSnapshot. */
struct SeriesSample
{
    std::string name;
    bool is_histogram = false;
    WindowStats w1s{};
    WindowStats w10s{};
    WindowStats w60s{};
};

/** Point-in-time read of every registered series, sorted by name. */
struct TimeSeriesSnapshot
{
    std::vector<SeriesSample> series;

    const SeriesSample *find(const std::string &name) const;
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_TIMESERIES_HH
