/**
 * @file
 * Exposition: rendering a MetricsSnapshot for external consumers.
 *
 * Two formats:
 *  - Prometheus text format (v0.0.4): counters and gauges as typed
 *    single lines; histograms as summaries (p50/p90/p99 quantile
 *    lines plus _sum and _count). Registered names may carry a
 *    label set in braces; the renderer splices extra labels (e.g.
 *    quantile="0.99") into it.
 *  - JSONL: one self-describing JSON object per metric per line.
 *
 * The service's query-metrics op (LivePhaseService::metricsText) is
 * the one export path: it refreshes the runtime gauges, then renders
 * the flat metrics, the windowed series and the phase telemetry.
 */

#ifndef LIVEPHASE_OBS_EXPOSITION_HH
#define LIVEPHASE_OBS_EXPOSITION_HH

#include <string>

#include "obs/metrics.hh"
#include "obs/timeseries.hh"

namespace livephase::obs
{

/** Wire values of the query-metrics format selector (u16). */
enum class ExpositionFormat : uint16_t
{
    Prometheus = 0,
    Jsonl = 1,
    Trace = 2, ///< flight-recorder dump, not a metrics rendering
};

/** nullopt for unknown raw values. */
const char *expositionFormatName(ExpositionFormat format);

/** Prometheus text format. */
std::string renderPrometheus(const MetricsSnapshot &snap);

/** One JSON object per metric per line. */
std::string renderJsonl(const MetricsSnapshot &snap);

/**
 * Windowed time-series exposition (obs/timeseries.hh): per series,
 * gauge lines `livephase_window{series="...",window="10s",
 * stat="p99"}` (Prometheus) or one JSON object per series per line
 * carrying all three windows (JSONL).
 */
std::string renderTimeSeriesPrometheus(
    const TimeSeriesSnapshot &snap);
std::string renderTimeSeriesJsonl(const TimeSeriesSnapshot &snap);

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_EXPOSITION_HH
