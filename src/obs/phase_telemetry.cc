#include "obs/phase_telemetry.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace livephase::obs
{

namespace
{

size_t
clampPhase(int phase)
{
    if (phase < 1)
        return 0;
    return std::min(static_cast<size_t>(phase - 1),
                    PT_MAX_PHASES - 1);
}

double
hitRate(uint64_t predictions, uint64_t mispredictions)
{
    if (predictions == 0)
        return 1.0;
    const uint64_t hits =
        predictions > mispredictions ? predictions - mispredictions
                                     : 0;
    return static_cast<double>(hits) /
        static_cast<double>(predictions);
}

void
appendf(std::string &out, const char *fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    const int n = vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min(static_cast<size_t>(n),
                                 sizeof buf - 1));
}

} // namespace

void
PhaseBatchDelta::addResidency(int phase, uint32_t n)
{
    residency[clampPhase(phase)] += n;
}

void
PhaseBatchDelta::addTransition(int from, int to)
{
    matrix[clampPhase(from) * PT_MAX_PHASES + clampPhase(to)] += 1;
}

void
PhaseBatchDelta::addDvfsAction(uint32_t index, uint32_t n)
{
    dvfs_actions[std::min(static_cast<size_t>(index),
                          PT_MAX_ACTIONS - 1)] += n;
}

double
PhaseTelemetrySnapshot::cumulativeHitRate() const
{
    return hitRate(predictions, mispredictions);
}

PhaseTelemetry &
PhaseTelemetry::global()
{
    static PhaseTelemetry telemetry;
    return telemetry;
}

PhaseTelemetry::PhaseTelemetry()
    : pred_series(MetricsRegistry::global().windowedCounter(
          "core.predictions")),
      miss_series(MetricsRegistry::global().windowedCounter(
          "core.mispredictions"))
{
}

void
PhaseTelemetry::recordBatch(const PhaseBatchDelta &delta)
{
    if (delta.classified)
        classified_total.fetch_add(delta.classified,
                                   std::memory_order_relaxed);
    if (delta.predictions) {
        predictions_total.fetch_add(delta.predictions,
                                    std::memory_order_relaxed);
        pred_series.inc(delta.predictions);
    }
    if (delta.mispredictions) {
        mispredictions_total.fetch_add(delta.mispredictions,
                                       std::memory_order_relaxed);
        miss_series.inc(delta.mispredictions);
    }
    if (delta.transitions)
        transitions_total.fetch_add(delta.transitions,
                                    std::memory_order_relaxed);
    for (size_t p = 0; p < PT_MAX_PHASES; ++p) {
        if (delta.residency[p])
            residency[p].fetch_add(delta.residency[p],
                                   std::memory_order_relaxed);
    }
    // Transitions are sparse within a batch (steady phases are the
    // common case), so the nonzero sweep touches a handful of the
    // 256 cells.
    for (size_t c = 0; c < PT_MAX_PHASES * PT_MAX_PHASES; ++c) {
        if (delta.matrix[c])
            matrix[c].fetch_add(delta.matrix[c],
                                std::memory_order_relaxed);
    }
    for (size_t a = 0; a < PT_MAX_ACTIONS; ++a) {
        if (delta.dvfs_actions[a])
            dvfs[a].fetch_add(delta.dvfs_actions[a],
                              std::memory_order_relaxed);
    }
}

PhaseTelemetrySnapshot
PhaseTelemetry::snapshot() const
{
    PhaseTelemetrySnapshot snap;
    snap.classified =
        classified_total.load(std::memory_order_relaxed);
    snap.predictions =
        predictions_total.load(std::memory_order_relaxed);
    snap.mispredictions =
        mispredictions_total.load(std::memory_order_relaxed);
    snap.transitions =
        transitions_total.load(std::memory_order_relaxed);
    for (size_t p = 0; p < PT_MAX_PHASES; ++p)
        snap.residency[p] =
            residency[p].load(std::memory_order_relaxed);
    for (size_t c = 0; c < PT_MAX_PHASES * PT_MAX_PHASES; ++c)
        snap.matrix[c] = matrix[c].load(std::memory_order_relaxed);
    for (size_t a = 0; a < PT_MAX_ACTIONS; ++a)
        snap.dvfs_actions[a] =
            dvfs[a].load(std::memory_order_relaxed);

    const double slot_s =
        static_cast<double>(
            MetricsRegistry::global().slotDurationNs()) *
        1e-9;
    snap.pred_1s = pred_series.stats(Window::OneSecond, slot_s);
    snap.pred_10s = pred_series.stats(Window::TenSeconds, slot_s);
    snap.pred_60s = pred_series.stats(Window::SixtySeconds, slot_s);
    const WindowStats m1 =
        miss_series.stats(Window::OneSecond, slot_s);
    const WindowStats m10 =
        miss_series.stats(Window::TenSeconds, slot_s);
    const WindowStats m60 =
        miss_series.stats(Window::SixtySeconds, slot_s);
    snap.hit_rate_1s = hitRate(snap.pred_1s.count, m1.count);
    snap.hit_rate_10s = hitRate(snap.pred_10s.count, m10.count);
    snap.hit_rate_60s = hitRate(snap.pred_60s.count, m60.count);
    return snap;
}

std::string
PhaseTelemetry::renderJson() const
{
    const PhaseTelemetrySnapshot s = snapshot();
    std::string out;
    out.reserve(1024);
    out += "{";
    appendf(out,
            "\"classified\":%llu,\"predictions\":%llu,"
            "\"mispredictions\":%llu,\"transitions\":%llu,",
            static_cast<unsigned long long>(s.classified),
            static_cast<unsigned long long>(s.predictions),
            static_cast<unsigned long long>(s.mispredictions),
            static_cast<unsigned long long>(s.transitions));
    appendf(out, "\"hit_rate\":%.6f,", s.cumulativeHitRate());
    appendf(out,
            "\"hit_rate_1s\":%.6f,\"hit_rate_10s\":%.6f,"
            "\"hit_rate_60s\":%.6f,",
            s.hit_rate_1s, s.hit_rate_10s, s.hit_rate_60s);
    appendf(out, "\"prediction_rate_10s\":%.3f,", s.pred_10s.rate);

    out += "\"residency\":{";
    bool first = true;
    for (size_t p = 0; p < PT_MAX_PHASES; ++p) {
        if (!s.residency[p])
            continue;
        appendf(out, "%s\"%zu\":%llu", first ? "" : ",", p + 1,
                static_cast<unsigned long long>(s.residency[p]));
        first = false;
    }
    out += "},\"transitions_matrix\":[";
    first = true;
    for (size_t from = 0; from < PT_MAX_PHASES; ++from) {
        for (size_t to = 0; to < PT_MAX_PHASES; ++to) {
            const uint64_t n = s.matrix[from * PT_MAX_PHASES + to];
            if (!n)
                continue;
            appendf(out,
                    "%s{\"from\":%zu,\"to\":%zu,\"count\":%llu}",
                    first ? "" : ",", from + 1, to + 1,
                    static_cast<unsigned long long>(n));
            first = false;
        }
    }
    out += "],\"dvfs_actions\":{";
    first = true;
    for (size_t a = 0; a < PT_MAX_ACTIONS; ++a) {
        if (!s.dvfs_actions[a])
            continue;
        appendf(out, "%s\"%zu\":%llu", first ? "" : ",", a,
                static_cast<unsigned long long>(s.dvfs_actions[a]));
        first = false;
    }
    out += "}}";
    return out;
}

std::string
PhaseTelemetry::renderPrometheus() const
{
    const PhaseTelemetrySnapshot s = snapshot();
    std::string out;
    out.reserve(1024);
    out += "# TYPE livephase_phase_hit_rate gauge\n";
    appendf(out, "livephase_phase_hit_rate{window=\"1s\"} %.6f\n",
            s.hit_rate_1s);
    appendf(out, "livephase_phase_hit_rate{window=\"10s\"} %.6f\n",
            s.hit_rate_10s);
    appendf(out, "livephase_phase_hit_rate{window=\"60s\"} %.6f\n",
            s.hit_rate_60s);
    appendf(out,
            "livephase_phase_hit_rate{window=\"cumulative\"} "
            "%.6f\n",
            s.cumulativeHitRate());
    out += "# TYPE livephase_phase_residency_total counter\n";
    for (size_t p = 0; p < PT_MAX_PHASES; ++p) {
        if (!s.residency[p])
            continue;
        appendf(out,
                "livephase_phase_residency_total{phase=\"%zu\"} "
                "%llu\n",
                p + 1,
                static_cast<unsigned long long>(s.residency[p]));
    }
    out += "# TYPE livephase_phase_transition_total counter\n";
    for (size_t from = 0; from < PT_MAX_PHASES; ++from) {
        for (size_t to = 0; to < PT_MAX_PHASES; ++to) {
            const uint64_t n = s.matrix[from * PT_MAX_PHASES + to];
            if (!n)
                continue;
            appendf(out,
                    "livephase_phase_transition_total{from=\"%zu\","
                    "to=\"%zu\"} %llu\n",
                    from + 1, to + 1,
                    static_cast<unsigned long long>(n));
        }
    }
    out += "# TYPE livephase_dvfs_action_total counter\n";
    for (size_t a = 0; a < PT_MAX_ACTIONS; ++a) {
        if (!s.dvfs_actions[a])
            continue;
        appendf(out,
                "livephase_dvfs_action_total{index=\"%zu\"} %llu\n",
                a,
                static_cast<unsigned long long>(s.dvfs_actions[a]));
    }
    return out;
}

void
PhaseTelemetry::resetForTest()
{
    classified_total.store(0, std::memory_order_relaxed);
    predictions_total.store(0, std::memory_order_relaxed);
    mispredictions_total.store(0, std::memory_order_relaxed);
    transitions_total.store(0, std::memory_order_relaxed);
    for (auto &a : residency)
        a.store(0, std::memory_order_relaxed);
    for (auto &a : matrix)
        a.store(0, std::memory_order_relaxed);
    for (auto &a : dvfs)
        a.store(0, std::memory_order_relaxed);
}

} // namespace livephase::obs
