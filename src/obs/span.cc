#include "obs/span.hh"

#include "common/clock.hh"

namespace livephase::obs
{

namespace detail
{
std::atomic<bool> cycle_attribution{false};
}

Histogram &
spanHistogram(const char *name)
{
    std::string metric = "livephase_span_us{span=\"";
    metric += name;
    metric += "\"}";
    return MetricsRegistry::global().histogram(metric);
}

WindowedHistogram &
spanCycleSeries(const char *name)
{
    std::string series = "cycles.";
    series += name;
    return MetricsRegistry::global().windowedHistogram(series);
}

bool
setCycleAttribution(bool on)
{
    if (on && timebase::virtualized()) {
        /* A simulated run must never read the real TSC: the values
         * would differ between replays of the same seed. */
        return false;
    }
    detail::cycle_attribution.store(on, std::memory_order_relaxed);
    return true;
}

} // namespace livephase::obs
