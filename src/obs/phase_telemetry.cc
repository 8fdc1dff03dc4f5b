#include "obs/phase_telemetry.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace livephase::obs
{

namespace
{

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

double
PhaseTelemetrySnapshot::cumulativeHitRate() const
{
    return hitRate(predictions, mispredictions);
}

PhaseTelemetry &
PhaseTelemetry::global()
{
    // Never destroyed: a thread that exits after static destruction
    // still hands its shard back (local()).
    static PhaseTelemetry *const telemetry = new PhaseTelemetry;
    return *telemetry;
}

PhaseTelemetry::PhaseTelemetry()
    : pred_series(MetricsRegistry::global().windowedCounter(
          "core.predictions")),
      miss_series(MetricsRegistry::global().windowedCounter(
          "core.mispredictions"))
{
}

PhaseShard &
PhaseTelemetry::local()
{
    // One lease per thread: taken on the thread's first batch,
    // returned when the thread exits. Only global() exists, so the
    // lease never needs to tell aggregators apart.
    struct Lease
    {
        PhaseShard *shard = nullptr;
        ~Lease()
        {
            if (shard != nullptr)
                PhaseTelemetry::global().release(shard);
        }
    };
    static thread_local Lease lease;
    if (lease.shard == nullptr) {
        std::lock_guard lock(mu);
        if (idle.empty()) {
            lease.shard =
                shards.emplace_back(std::make_unique<PhaseShard>())
                    .get();
        } else {
            lease.shard = idle.back();
            idle.pop_back();
        }
    }
    return *lease.shard;
}

void
PhaseTelemetry::release(PhaseShard *shard)
{
    std::lock_guard lock(mu);
    idle.push_back(shard);
}

void
PhaseTelemetry::recordBatch(PhaseShard &shard, uint64_t classified,
                            uint64_t predictions,
                            uint64_t mispredictions,
                            uint64_t transitions)
{
    PhaseShard::add(shard.classified, classified);
    PhaseShard::add(shard.predictions, predictions);
    PhaseShard::add(shard.mispredictions, mispredictions);
    PhaseShard::add(shard.transitions, transitions);
    if (predictions)
        pred_series.inc(predictions);
    if (mispredictions)
        miss_series.inc(mispredictions);
}

PhaseTelemetrySnapshot
PhaseTelemetry::snapshot() const
{
    PhaseTelemetrySnapshot snap;
    const auto sum = [](const PhaseShard::Cell &cell, uint64_t &out) {
        out += cell.load(std::memory_order_relaxed);
    };
    {
        std::lock_guard lock(mu);
        for (const auto &shard : shards) {
            sum(shard->classified, snap.classified);
            sum(shard->predictions, snap.predictions);
            sum(shard->mispredictions, snap.mispredictions);
            sum(shard->transitions, snap.transitions);
            for (size_t p = 0; p < PT_MAX_PHASES; ++p)
                sum(shard->residency[p], snap.residency[p]);
            for (size_t c = 0; c < PT_MAX_PHASES * PT_MAX_PHASES; ++c)
                sum(shard->matrix[c], snap.matrix[c]);
            for (size_t a = 0; a < PT_MAX_ACTIONS; ++a)
                sum(shard->dvfs[a], snap.dvfs_actions[a]);
        }
    }

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

void
PhaseTelemetry::refreshCoreCounters()
{
    std::lock_guard lock(mu);
    std::array<uint64_t, 4> totals{};
    for (const auto &shard : shards) {
        totals[0] += shard->classified.load(std::memory_order_relaxed);
        totals[1] += shard->transitions.load(std::memory_order_relaxed);
        totals[2] += shard->predictions.load(std::memory_order_relaxed);
        totals[3] +=
            shard->mispredictions.load(std::memory_order_relaxed);
    }
    if (totals[0] == 0)
        return; // registered with the first batch, as before
    MetricsRegistry &reg = MetricsRegistry::global();
    static Counter *const core[] = {
        &reg.counter("livephase_core_intervals_classified_total"),
        &reg.counter("livephase_core_phase_transitions_total"),
        &reg.counter("livephase_core_predictions_total"),
        &reg.counter("livephase_core_mispredictions_total"),
    };
    for (size_t k = 0; k < totals.size(); ++k) {
        // Below the last publish means the shards were reset: all
        // of the new total is new.
        core[k]->inc(totals[k] >= published[k]
                         ? totals[k] - published[k]
                         : totals[k]);
        published[k] = totals[k];
    }
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
    std::lock_guard lock(mu);
    for (const auto &shard : shards) {
        shard->classified.store(0, std::memory_order_relaxed);
        shard->predictions.store(0, std::memory_order_relaxed);
        shard->mispredictions.store(0, std::memory_order_relaxed);
        shard->transitions.store(0, std::memory_order_relaxed);
        for (auto &a : shard->residency)
            a.store(0, std::memory_order_relaxed);
        for (auto &a : shard->matrix)
            a.store(0, std::memory_order_relaxed);
        for (auto &a : shard->dvfs)
            a.store(0, std::memory_order_relaxed);
    }
}

} // namespace livephase::obs
