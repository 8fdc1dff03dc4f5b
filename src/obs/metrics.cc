#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/logging.hh"
#include "obs/runtime.hh"
#include "obs/timeseries.hh"

namespace livephase::obs
{

// --- histogram ---------------------------------------------------

size_t
Histogram::bucketIndex(double value)
{
    if (!(value >= std::ldexp(1.0, LOG_MIN_EXP)))
        return 0; // underflow; also catches negatives and NaN
    if (value >= std::ldexp(1.0, LOG_MAX_EXP))
        return HISTOGRAM_BUCKETS - 1;
    int exp;
    const double mantissa = std::frexp(value, &exp); // in [0.5, 1)
    // value = mantissa * 2^exp, so floor(log2(value)) == exp - 1.
    const int octave = exp - 1 - LOG_MIN_EXP;
    const auto sub = static_cast<size_t>(
        (mantissa * 2.0 - 1.0) * static_cast<double>(LOG_SUBBUCKETS));
    return 1 + static_cast<size_t>(octave) * LOG_SUBBUCKETS +
        std::min(sub, LOG_SUBBUCKETS - 1);
}

double
Histogram::bucketLowerBound(size_t bucket)
{
    if (bucket == 0)
        return 0.0;
    if (bucket >= HISTOGRAM_BUCKETS - 1)
        return std::ldexp(1.0, LOG_MAX_EXP);
    const size_t step = bucket - 1;
    const auto octave = static_cast<int>(step / LOG_SUBBUCKETS);
    const auto sub = static_cast<double>(step % LOG_SUBBUCKETS);
    return std::ldexp(1.0 + sub / LOG_SUBBUCKETS,
                      LOG_MIN_EXP + octave);
}

double
Histogram::bucketUpperBound(size_t bucket)
{
    if (bucket >= HISTOGRAM_BUCKETS - 1)
        return std::numeric_limits<double>::infinity();
    return bucketLowerBound(bucket + 1);
}

void
Histogram::record(double value)
{
    buckets[bucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    n.fetch_add(1, std::memory_order_relaxed);
    double cur = total.load(std::memory_order_relaxed);
    while (!total.compare_exchange_weak(cur, cur + value,
                                        std::memory_order_relaxed)) {
    }
    double m = peak.load(std::memory_order_relaxed);
    while (value > m &&
           !peak.compare_exchange_weak(m, value,
                                       std::memory_order_relaxed)) {
    }
}

void
Histogram::clear()
{
    for (size_t b = 0; b < HISTOGRAM_BUCKETS; ++b)
        buckets[b].store(0, std::memory_order_relaxed);
    n.store(0, std::memory_order_relaxed);
    total.store(0.0, std::memory_order_relaxed);
    peak.store(0.0, std::memory_order_relaxed);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.count = count();
    snap.sum = sum();
    snap.max = max();
    snap.buckets.resize(HISTOGRAM_BUCKETS);
    for (size_t b = 0; b < HISTOGRAM_BUCKETS; ++b)
        snap.buckets[b] = buckets[b].load(std::memory_order_relaxed);
    return snap;
}

double
HistogramSnapshot::quantile(double p) const
{
    if (count == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // 1-based rank of the requested order statistic.
    const auto target = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    const uint64_t rank = std::max<uint64_t>(target, 1);
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        if (seen + buckets[b] >= rank) {
            const double lo = Histogram::bucketLowerBound(b);
            const double hi = b + 1 == buckets.size()
                ? max // overflow bucket: best bound we have
                : Histogram::bucketUpperBound(b);
            const double frac = static_cast<double>(rank - seen) /
                static_cast<double>(buckets[b]);
            return std::min(lo + (hi - lo) * frac, max);
        }
        seen += buckets[b];
    }
    return max;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
    if (buckets.size() < other.buckets.size())
        buckets.resize(other.buckets.size());
    for (size_t b = 0; b < other.buckets.size(); ++b)
        buckets[b] += other.buckets[b];
}

// --- snapshot ----------------------------------------------------

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
      case MetricKind::WindowedCounter: return "windowed_counter";
      case MetricKind::WindowedHistogram: return "windowed_histogram";
    }
    return "kind-?";
}

const MetricSample *
MetricsSnapshot::find(const std::string &name) const
{
    for (const MetricSample &s : samples)
        if (s.name == name)
            return &s;
    return nullptr;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const MetricSample &theirs : other.samples) {
        bool merged = false;
        for (MetricSample &ours : samples) {
            if (ours.name != theirs.name)
                continue;
            if (ours.kind == MetricKind::Histogram)
                ours.hist.merge(theirs.hist);
            else
                ours.value += theirs.value;
            merged = true;
            break;
        }
        if (!merged)
            samples.push_back(theirs);
    }
    std::sort(samples.begin(), samples.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
}

// --- registry ----------------------------------------------------

namespace
{

/** The metric a registry slot holds when it is an M, else null. */
template <typename M, typename Slot>
M *
as(const Slot &slot)
{
    const auto *owner = std::get_if<std::unique_ptr<M>>(&slot);
    return owner ? owner->get() : nullptr;
}

/** fn(series) when the slot holds a windowed kind; false when flat.
 *  Both windowed kinds share rotate/resetForTest/stats. */
template <typename Slot, typename Fn>
bool
visitWindowed(const Slot &slot, Fn &&fn)
{
    if (auto *c = as<WindowedCounter>(slot))
        fn(*c);
    else if (auto *h = as<WindowedHistogram>(slot))
        fn(*h);
    else
        return false;
    return true;
}

} // namespace

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

size_t
MetricsRegistry::shardIndex(const std::string &name)
{
    return std::hash<std::string>{}(name) % SHARDS;
}

template <typename M>
M &
MetricsRegistry::findOrCreate(const std::string &name, MetricKind kind)
{
    Shard &shard = shards[shardIndex(name)];
    std::lock_guard lock(shard.mu);
    auto it = shard.metrics.find(name);
    if (it == shard.metrics.end())
        it = shard.metrics.emplace(name, std::make_unique<M>()).first;
    M *metric = as<M>(it->second);
    if (metric == nullptr) {
        panic("MetricsRegistry: '%s' registered as %s, requested as "
              "%s",
              name.c_str(),
              metricKindName(
                  static_cast<MetricKind>(it->second.index())),
              metricKindName(kind));
    }
    return *metric;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return findOrCreate<Counter>(name, MetricKind::Counter);
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return findOrCreate<Gauge>(name, MetricKind::Gauge);
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return findOrCreate<Histogram>(name, MetricKind::Histogram);
}

WindowedCounter &
MetricsRegistry::windowedCounter(const std::string &name)
{
    return findOrCreate<WindowedCounter>(name,
                                         MetricKind::WindowedCounter);
}

WindowedHistogram &
MetricsRegistry::windowedHistogram(const std::string &name)
{
    return findOrCreate<WindowedHistogram>(
        name, MetricKind::WindowedHistogram);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    for (const Shard &shard : shards) {
        std::lock_guard lock(shard.mu);
        for (const auto &[name, slot] : shard.metrics) {
            MetricSample sample;
            sample.name = name;
            sample.kind = static_cast<MetricKind>(slot.index());
            if (const auto *c = as<Counter>(slot))
                sample.value = static_cast<double>(c->value());
            else if (const auto *g = as<Gauge>(slot))
                sample.value = g->value();
            else if (const auto *h = as<Histogram>(slot))
                sample.hist = h->snapshot();
            else
                continue; // windowed: see windowSnapshot()
            snap.samples.push_back(std::move(sample));
        }
    }
    std::sort(snap.samples.begin(), snap.samples.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return snap;
}

TimeSeriesSnapshot
MetricsRegistry::windowSnapshot() const
{
    const double slot_s = static_cast<double>(slotDurationNs()) * 1e-9;
    TimeSeriesSnapshot snap;
    for (const Shard &shard : shards) {
        std::lock_guard lock(shard.mu);
        for (const auto &[name, slot] : shard.metrics) {
            SeriesSample s;
            const bool windowed =
                visitWindowed(slot, [&](const auto &series) {
                    s.w1s = series.stats(Window::OneSecond, slot_s);
                    s.w10s = series.stats(Window::TenSeconds, slot_s);
                    s.w60s =
                        series.stats(Window::SixtySeconds, slot_s);
                });
            if (!windowed)
                continue;
            s.name = name;
            s.is_histogram = as<WindowedHistogram>(slot) != nullptr;
            snap.series.push_back(std::move(s));
        }
    }
    std::sort(snap.series.begin(), snap.series.end(),
              [](const SeriesSample &a, const SeriesSample &b) {
                  return a.name < b.name;
              });
    return snap;
}

bool
MetricsRegistry::seriesStats(const std::string &name, Window w,
                             WindowStats &out) const
{
    const double slot_s = static_cast<double>(slotDurationNs()) * 1e-9;
    const Shard &shard = shards[shardIndex(name)];
    std::lock_guard lock(shard.mu);
    const auto it = shard.metrics.find(name);
    return it != shard.metrics.end() &&
        visitWindowed(it->second, [&](const auto &series) {
               out = series.stats(w, slot_s);
           });
}

void
MetricsRegistry::rotateAll()
{
    for (Shard &shard : shards) {
        std::lock_guard lock(shard.mu);
        for (const auto &[name, slot] : shard.metrics)
            visitWindowed(slot, [](auto &series) { series.rotate(); });
    }
}

size_t
MetricsRegistry::rotateIfDue(uint64_t now_ns)
{
    const uint64_t slot = slot_ns.load(std::memory_order_relaxed);
    size_t rotations = 0;
    // Rotate once per elapsed slot boundary, capped at a full ring
    // revolution: past that, older cells would be recycled anyway,
    // so extra rotations only waste clears.
    while (rotations < TS_SLOTS) {
        uint64_t due = next_rotation_ns.load(
            std::memory_order_relaxed);
        if (due == 0) {
            // First caller anchors the schedule; no rotation yet.
            next_rotation_ns.compare_exchange_strong(
                due, now_ns + slot, std::memory_order_relaxed);
            return rotations;
        }
        if (now_ns < due)
            return rotations;
        if (!next_rotation_ns.compare_exchange_strong(
                due, due + slot, std::memory_order_relaxed))
            continue; // another thread claimed this boundary
        rotateAll();
        ++rotations;
    }
    return rotations;
}

size_t
MetricsRegistry::rotateIfDue()
{
    return rotateIfDue(monoNowNs());
}

void
MetricsRegistry::setSlotDuration(uint64_t ns)
{
    slot_ns.store(std::max<uint64_t>(ns, 1000),
                  std::memory_order_relaxed);
    // Re-anchor so the next caller schedules off the new duration
    // instead of draining boundaries computed from the old one.
    next_rotation_ns.store(0, std::memory_order_relaxed);
}

void
MetricsRegistry::resetWindowsForTest()
{
    for (Shard &shard : shards) {
        std::lock_guard lock(shard.mu);
        for (const auto &[name, slot] : shard.metrics)
            visitWindowed(slot,
                          [](auto &series) { series.resetForTest(); });
    }
    next_rotation_ns.store(0, std::memory_order_relaxed);
}

} // namespace livephase::obs
