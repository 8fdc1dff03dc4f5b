/**
 * @file
 * Predictor-quality telemetry: the fleet-wide answer to "what
 * phases are my sessions in and is the predictor tracking them?"
 *
 * The core pipeline (service/session.cc) already counts
 * classifications, transitions, predictions and mispredictions as
 * flat totals. This module adds the operator's view on top:
 *
 *  - windowed prediction / misprediction series (via
 *    obs/timeseries.hh), so hit rate is readable over the last
 *    1 s / 10 s / 60 s instead of since process start;
 *  - a phase-transition matrix (from -> to interval counts);
 *  - per-phase residency (intervals spent in each phase);
 *  - DVFS-action attribution (intervals that drove each DVFS
 *    operating point, i.e. what the power policy actually did).
 *
 * Hot-path contract: every thread that records owns a PhaseShard
 * and adds into it directly while the session holds its own lock.
 * A shard has one writer, so an add is a plain load and store (no
 * locked read-modify-write, no allocation, no flush); exposition
 * sums the shards with relaxed loads and never blocks writers.
 */

#ifndef LIVEPHASE_OBS_PHASE_TELEMETRY_HH
#define LIVEPHASE_OBS_PHASE_TELEMETRY_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/timeseries.hh"

namespace livephase::obs
{

/** Phase classes tracked (paper Table 1 defines 6; headroom for
 *  custom classifiers). Phase ids above this fold into the last
 *  slot rather than being dropped. */
constexpr size_t PT_MAX_PHASES = 16;

/** DVFS operating points tracked (Pentium-M table has 6). */
constexpr size_t PT_MAX_ACTIONS = 16;

/**
 * One thread's share of the fleet-wide phase telemetry. Only the
 * thread that leased it (PhaseTelemetry::local()) writes it, so the
 * adds need no atomic read-modify-write; the cells are atomics only
 * so that snapshot() may read them while the owner writes.
 */
class alignas(64) PhaseShard
{
  public:
    // Inline: the session loops call these once per phase run,
    // transition or interval.
    void addResidency(int phase, uint64_t n = 1)
    {
        add(residency[slot(phase)], n);
    }
    void addTransition(int from, int to)
    {
        add(matrix[slot(from) * PT_MAX_PHASES + slot(to)], 1);
    }
    void addDvfsAction(uint32_t index, uint64_t n = 1)
    {
        add(dvfs[std::min(static_cast<size_t>(index),
                          PT_MAX_ACTIONS - 1)],
            n);
    }

    /** Array index of a phase: 1-based phases at phase - 1, ids
     *  below 1 in slot 0, ids past the end in the last slot. */
    static size_t slot(int phase)
    {
        // One compare on the hot path: valid phases fit directly.
        const size_t s = static_cast<size_t>(phase) - 1;
        if (s < PT_MAX_PHASES) [[likely]]
            return s;
        return phase < 1 ? 0 : PT_MAX_PHASES - 1;
    }

  private:
    friend class PhaseTelemetry;

    using Cell = std::atomic<uint64_t>;

    static void add(Cell &cell, uint64_t n)
    {
        cell.store(cell.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
    }

    Cell classified{0};
    Cell predictions{0};
    Cell mispredictions{0};
    Cell transitions{0};
    std::array<Cell, PT_MAX_PHASES> residency{};
    /** Row-major [from][to], 1-based phases at index phase-1. */
    std::array<Cell, PT_MAX_PHASES * PT_MAX_PHASES> matrix{};
    std::array<Cell, PT_MAX_ACTIONS> dvfs{};
};

/** Point-in-time copy of the fleet-wide phase telemetry. */
struct PhaseTelemetrySnapshot
{
    uint64_t classified = 0;
    uint64_t predictions = 0;
    uint64_t mispredictions = 0;
    uint64_t transitions = 0;
    std::array<uint64_t, PT_MAX_PHASES> residency{};
    std::array<uint64_t, PT_MAX_PHASES * PT_MAX_PHASES> matrix{};
    std::array<uint64_t, PT_MAX_ACTIONS> dvfs_actions{};
    /** Windowed prediction volume and hit rate. */
    WindowStats pred_1s{}, pred_10s{}, pred_60s{};
    double hit_rate_1s = 1.0, hit_rate_10s = 1.0, hit_rate_60s = 1.0;

    /** Cumulative hit rate since start (1.0 when no predictions). */
    double cumulativeHitRate() const;
};

/**
 * Process-global phase-quality aggregator: one PhaseShard per
 * recording thread, summed on read. A shard outlives its thread and
 * is handed to the next new thread, so the shard count follows the
 * peak number of live recording threads.
 */
class PhaseTelemetry
{
  public:
    static PhaseTelemetry &global();

    PhaseTelemetry(const PhaseTelemetry &) = delete;
    PhaseTelemetry &operator=(const PhaseTelemetry &) = delete;

    /** The calling thread's shard (leased on first use). */
    PhaseShard &local();

    /** Close one batch: its totals into `shard` (the caller's
     *  local()) and the windowed prediction series. */
    void recordBatch(PhaseShard &shard, uint64_t classified,
                     uint64_t predictions, uint64_t mispredictions,
                     uint64_t transitions);

    PhaseTelemetrySnapshot snapshot() const;

    /**
     * Bring the flat `livephase_core_*_total` registry counters up
     * to the fleet totals. The hot path counts only into the
     * shards; exposition calls this before reading the registry.
     * A reset (resetForTest) is carried over, so the counters
     * never go backwards.
     */
    void refreshCoreCounters();

    /**
     * Render the snapshot as JSON (query-phases response body and
     * the JSONL artifact line): fleet totals, windowed hit rates,
     * per-phase residency, nonzero transition-matrix cells, and
     * DVFS-action counts.
     */
    std::string renderJson() const;

    /**
     * Render Prometheus text lines for the nonzero labeled cells
     * (`livephase_phase_residency_total{phase="3"}`,
     * `livephase_phase_transition_total{from="2",to="3"}`,
     * `livephase_dvfs_action_total{index="1"}`, windowed hit-rate
     * gauges). Appended by the service's metricsText.
     */
    std::string renderPrometheus() const;

    /** Zero every shard — tests only (not thread-safe against
     *  concurrent recording). Windows are left alone. */
    void resetForTest();

  private:
    PhaseTelemetry();

    /** Return a departed thread's shard for reuse. */
    void release(PhaseShard *shard);

    mutable std::mutex mu; ///< the shard lists, not shard contents
    std::vector<std::unique_ptr<PhaseShard>> shards; ///< all
    std::vector<PhaseShard *> idle; ///< released, awaiting a thread
    /** Totals last published by refreshCoreCounters() (under mu):
     *  classified, transitions, predictions, mispredictions. */
    std::array<uint64_t, 4> published{};
    /** Windowed counters, registered in MetricsRegistry under
     *  "core.predictions" / "core.mispredictions" so watchdog rules
     *  can reference them by name. */
    WindowedCounter &pred_series;
    WindowedCounter &miss_series;
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_PHASE_TELEMETRY_HH
