#include "obs/timeseries.hh"

#include <algorithm>

namespace livephase::obs
{

const char *
windowName(Window w)
{
    switch (w) {
      case Window::OneSecond: return "1s";
      case Window::TenSeconds: return "10s";
      case Window::SixtySeconds: return "60s";
    }
    return "window-?";
}

size_t
windowSlots(Window w)
{
    switch (w) {
      case Window::OneSecond: return 1;
      case Window::TenSeconds: return 10;
      case Window::SixtySeconds: return 60;
    }
    return 1;
}

// --- windowed histogram ------------------------------------------

HistogramSnapshot
WindowedHistogram::windowSnapshot(size_t slots) const
{
    slots = std::min(slots, TS_SLOTS - 2);
    const uint64_t cur = epoch.load(std::memory_order_relaxed);
    HistogramSnapshot merged;
    merged.buckets.resize(HISTOGRAM_BUCKETS);
    // Live cell plus the `slots` most recently closed cells. Early
    // in the ring's life there are fewer closed cells than asked
    // for; stop at epoch 0 rather than wrapping into unused cells.
    for (size_t back = 0; back <= slots; ++back) {
        if (back > cur)
            break;
        merged.merge(cells[(cur - back) % TS_SLOTS].snapshot());
    }
    return merged;
}

WindowStats
WindowedHistogram::stats(Window w, double slot_seconds) const
{
    const size_t slots = windowSlots(w);
    const HistogramSnapshot snap = windowSnapshot(slots);
    WindowStats s;
    s.count = snap.count;
    const double span =
        static_cast<double>(slots) * std::max(slot_seconds, 1e-9);
    s.rate = static_cast<double>(snap.count) / span;
    s.mean = snap.mean();
    s.p50 = snap.quantile(50.0);
    s.p99 = snap.quantile(99.0);
    s.max = snap.max;
    return s;
}

void
WindowedHistogram::rotate()
{
    const uint64_t cur = epoch.load(std::memory_order_relaxed);
    // Clear the next cell *before* making it live so writers always
    // see either the old closed data or a clean cell, never a
    // half-cleared live cell.
    cells[(cur + 1) % TS_SLOTS].clear();
    epoch.store(cur + 1, std::memory_order_release);
}

void
WindowedHistogram::resetForTest()
{
    for (Histogram &cell : cells)
        cell.clear();
    epoch.store(0, std::memory_order_release);
}

// --- windowed counter --------------------------------------------

uint64_t
WindowedCounter::windowCount(size_t slots) const
{
    slots = std::min(slots, TS_SLOTS - 2);
    const uint64_t cur = epoch.load(std::memory_order_relaxed);
    uint64_t total = 0;
    for (size_t back = 0; back <= slots; ++back) {
        if (back > cur)
            break;
        total += cells[(cur - back) % TS_SLOTS].load(
            std::memory_order_relaxed);
    }
    return total;
}

WindowStats
WindowedCounter::stats(Window w, double slot_seconds) const
{
    const size_t slots = windowSlots(w);
    WindowStats s;
    s.count = windowCount(slots);
    const double span =
        static_cast<double>(slots) * std::max(slot_seconds, 1e-9);
    s.rate = static_cast<double>(s.count) / span;
    return s;
}

void
WindowedCounter::rotate()
{
    const uint64_t cur = epoch.load(std::memory_order_relaxed);
    cells[(cur + 1) % TS_SLOTS].store(0, std::memory_order_relaxed);
    epoch.store(cur + 1, std::memory_order_release);
}

void
WindowedCounter::resetForTest()
{
    for (std::atomic<uint64_t> &cell : cells)
        cell.store(0, std::memory_order_relaxed);
    epoch.store(0, std::memory_order_release);
}

// --- snapshot ----------------------------------------------------

const SeriesSample *
TimeSeriesSnapshot::find(const std::string &name) const
{
    for (const SeriesSample &s : series) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

} // namespace livephase::obs
