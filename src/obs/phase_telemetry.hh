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
 * Hot-path contract: sessions accumulate a PhaseBatchDelta on the
 * stack while holding their own lock, then flush it here with one
 * relaxed atomic add per *nonzero* cell — no locks, no allocation,
 * nothing proportional to batch size. Exposition walks the atomics
 * and renders; it never blocks writers.
 */

#ifndef LIVEPHASE_OBS_PHASE_TELEMETRY_HH
#define LIVEPHASE_OBS_PHASE_TELEMETRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/timeseries.hh"

namespace livephase::obs
{

/** Phase classes tracked (paper Table 1 defines 6; headroom for
 *  custom classifiers). Phase ids above this fold into the last
 *  slot rather than being dropped. */
constexpr size_t PT_MAX_PHASES = 16;

/** DVFS operating points tracked (Pentium-M table has 6). */
constexpr size_t PT_MAX_ACTIONS = 16;

/** One batch's worth of phase-quality deltas, accumulated on the
 *  session's stack and flushed in a single call. */
struct PhaseBatchDelta
{
    uint64_t classified = 0;
    uint64_t predictions = 0;
    uint64_t mispredictions = 0;
    uint64_t transitions = 0;
    std::array<uint32_t, PT_MAX_PHASES> residency{};
    /** Row-major [from][to], 1-based phases at index phase-1. */
    std::array<uint32_t, PT_MAX_PHASES * PT_MAX_PHASES> matrix{};
    std::array<uint32_t, PT_MAX_ACTIONS> dvfs_actions{};

    void addResidency(int phase, uint32_t n = 1);
    void addTransition(int from, int to);
    void addDvfsAction(uint32_t index, uint32_t n = 1);
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
 * Process-global phase-quality aggregator. All sessions flush into
 * one instance; the transition matrix and residency arrays are
 * fixed-size atomics, so recording is wait-free and exposition is
 * a plain load sweep.
 */
class PhaseTelemetry
{
  public:
    static PhaseTelemetry &global();

    PhaseTelemetry();

    /** Flush one batch's deltas (relaxed adds on nonzero cells). */
    void recordBatch(const PhaseBatchDelta &delta);

    PhaseTelemetrySnapshot snapshot() const;

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

    /** Reset all cells and windows — tests only (not thread-safe
     *  against concurrent recordBatch). */
    void resetForTest();

  private:
    std::atomic<uint64_t> classified_total{0};
    std::atomic<uint64_t> predictions_total{0};
    std::atomic<uint64_t> mispredictions_total{0};
    std::atomic<uint64_t> transitions_total{0};
    std::array<std::atomic<uint64_t>, PT_MAX_PHASES> residency{};
    std::array<std::atomic<uint64_t>,
               PT_MAX_PHASES * PT_MAX_PHASES>
        matrix{};
    std::array<std::atomic<uint64_t>, PT_MAX_ACTIONS> dvfs{};
    /** Windowed counters, registered in MetricsRegistry under
     *  "core.predictions" / "core.mispredictions" so watchdog rules
     *  can reference them by name. */
    WindowedCounter &pred_series;
    WindowedCounter &miss_series;
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_PHASE_TELEMETRY_HH
