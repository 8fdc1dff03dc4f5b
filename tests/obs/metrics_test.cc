/**
 * @file
 * MetricsRegistry / Histogram unit tests: bucket geometry, quantile
 * error bounds, exact aggregates, snapshot merging, and concurrent
 * registration + update from 8 threads.
 */

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exposition.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "test_util.hh"

using namespace livephase;
using namespace livephase::obs;

namespace
{

/** Worst-case relative quantile error: one bucket's relative width,
 *  2^(1/LOG_SUBBUCKETS) - 1, with interpolation headroom. */
constexpr double QUANTILE_REL_ERROR = 0.20;

TEST(Histogram, BucketBoundsContainTheirValues)
{
    for (const double v :
         {1e-3, 0.01, 0.5, 1.0, 1.5, 2.0, 3.7, 100.0, 12345.6,
          1e6, 5e8}) {
        const size_t b = Histogram::bucketIndex(v);
        EXPECT_GE(v, Histogram::bucketLowerBound(b)) << "v=" << v;
        EXPECT_LT(v, Histogram::bucketUpperBound(b)) << "v=" << v;
    }
}

TEST(Histogram, BucketRelativeWidthIsBounded)
{
    // Every resolved bucket's width obeys the documented error
    // bound: linear sub-buckets make the worst (first-in-octave)
    // bucket 1 + 1/LOG_SUBBUCKETS times its lower bound.
    const double max_ratio =
        1.0 + 1.0 / static_cast<double>(LOG_SUBBUCKETS) + 1e-12;
    for (size_t b = 1; b + 1 < HISTOGRAM_BUCKETS; ++b) {
        const double lo = Histogram::bucketLowerBound(b);
        const double hi = Histogram::bucketUpperBound(b);
        ASSERT_GT(lo, 0.0);
        EXPECT_LE(hi / lo, max_ratio) << "bucket " << b;
    }
}

TEST(Histogram, UnderflowAndOverflowClamp)
{
    Histogram h;
    h.record(-5.0);
    h.record(0.0);
    h.record(std::nan(""));
    h.record(1e30); // beyond 2^LOG_MAX_EXP
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 4u);
    EXPECT_EQ(snap.buckets.front(), 3u);
    EXPECT_EQ(snap.buckets.back(), 1u);
}

TEST(Histogram, ExactCountSumMax)
{
    Histogram h;
    double sum = 0.0;
    for (int i = 1; i <= 1000; ++i) {
        h.record(static_cast<double>(i));
        sum += static_cast<double>(i);
    }
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.sum(), sum);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_DOUBLE_EQ(h.snapshot().mean(), sum / 1000.0);
}

TEST(Histogram, QuantilesWithinDocumentedErrorBound)
{
    Histogram h;
    for (int i = 1; i <= 10000; ++i)
        h.record(static_cast<double>(i) * 0.1); // 0.1 .. 1000
    const HistogramSnapshot snap = h.snapshot();
    for (const double p : {10.0, 50.0, 90.0, 99.0}) {
        const double exact = 1000.0 * p / 100.0;
        const double est = snap.quantile(p);
        EXPECT_NEAR(est, exact, exact * QUANTILE_REL_ERROR)
            << "p" << p;
    }
    // Extremes behave: p100 is the exact max, p0 is positive.
    EXPECT_DOUBLE_EQ(snap.quantile(100.0), 1000.0);
    EXPECT_GT(snap.quantile(0.0), 0.0);
}

TEST(Histogram, MergeEqualsSingleRecording)
{
    Histogram a, b, all;
    for (int i = 1; i <= 500; ++i) {
        a.record(static_cast<double>(i));
        all.record(static_cast<double>(i));
    }
    for (int i = 501; i <= 1000; ++i) {
        b.record(static_cast<double>(i));
        all.record(static_cast<double>(i));
    }
    HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    const HistogramSnapshot whole = all.snapshot();
    EXPECT_EQ(merged.count, whole.count);
    EXPECT_DOUBLE_EQ(merged.sum, whole.sum);
    EXPECT_DOUBLE_EQ(merged.max, whole.max);
    EXPECT_EQ(merged.buckets, whole.buckets);
    EXPECT_DOUBLE_EQ(merged.quantile(50.0), whole.quantile(50.0));
}

TEST(MetricsRegistry, FindOrCreateIsStable)
{
    MetricsRegistry reg;
    Counter &c1 = reg.counter("livephase_test_events_total");
    Counter &c2 = reg.counter("livephase_test_events_total");
    EXPECT_EQ(&c1, &c2);
    c1.inc(3);
    EXPECT_EQ(c2.value(), 3u);
    EXPECT_EQ(reg.snapshot().samples.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchPanics)
{
    MetricsRegistry reg;
    reg.counter("livephase_test_thing");
    EXPECT_FAILURE(reg.gauge("livephase_test_thing"));
}

TEST(MetricsRegistry, WindowedSeriesShareTheMap)
{
    MetricsRegistry reg;
    reg.counter("livephase_test_flat_total").inc(2);
    WindowedCounter &events = reg.windowedCounter("test.events");
    EXPECT_EQ(&events, &reg.windowedCounter("test.events"));
    events.inc(3);
    reg.windowedHistogram("test.lat_ms").record(1.0);

    // One map, one kind per name, whichever kind came first.
    EXPECT_FAILURE(reg.counter("test.events"));
    EXPECT_FAILURE(reg.windowedHistogram("test.events"));
    EXPECT_FAILURE(reg.windowedCounter("livephase_test_flat_total"));

    // Each snapshot carries its own kinds only.
    const MetricsSnapshot flat = reg.snapshot();
    ASSERT_EQ(flat.samples.size(), 1u);
    EXPECT_EQ(flat.samples[0].name, "livephase_test_flat_total");
    const TimeSeriesSnapshot windows = reg.windowSnapshot();
    ASSERT_EQ(windows.series.size(), 2u);
    EXPECT_EQ(windows.series[0].name, "test.events");
    EXPECT_FALSE(windows.series[0].is_histogram);
    EXPECT_EQ(windows.series[0].w1s.count, 3u);
    EXPECT_TRUE(windows.series[1].is_histogram);

    // A watchdog rule naming a flat metric reads no window.
    WindowStats stats;
    EXPECT_TRUE(reg.seriesStats("test.events", Window::TenSeconds,
                                stats));
    EXPECT_EQ(stats.count, 3u);
    EXPECT_FALSE(reg.seriesStats("livephase_test_flat_total",
                                 Window::TenSeconds, stats));
    EXPECT_FALSE(
        reg.seriesStats("test.absent", Window::TenSeconds, stats));
    EXPECT_EQ(reg.windowSnapshot().series.size(), 2u);
}

TEST(MetricsRegistry, RotationTouchesOnlyWindowedSeries)
{
    MetricsRegistry reg;
    Counter &flat = reg.counter("livephase_test_flat_total");
    WindowedCounter &events = reg.windowedCounter("test.events");
    flat.inc(5);
    events.inc(5);
    const uint64_t slot = reg.slotDurationNs();
    EXPECT_EQ(reg.rotateIfDue(1000 * slot), 0u); // anchors
    EXPECT_EQ(reg.rotateIfDue(1002 * slot), 2u);
    EXPECT_EQ(events.currentEpoch(), 2u);
    EXPECT_EQ(flat.value(), 5u);

    reg.resetWindowsForTest();
    EXPECT_EQ(events.currentEpoch(), 0u);
    EXPECT_EQ(events.windowCount(TS_SLOTS), 0u);
    EXPECT_EQ(flat.value(), 5u);
    EXPECT_EQ(reg.rotateIfDue(2000 * slot), 0u); // re-anchors
}

TEST(MetricsRegistry, SnapshotSortedAndMergeable)
{
    MetricsRegistry reg;
    reg.counter("livephase_test_b_total").inc(2);
    reg.gauge("livephase_test_a").set(1.5);
    reg.histogram("livephase_test_c_us").record(4.0);

    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 3u);
    EXPECT_TRUE(std::is_sorted(
        snap.samples.begin(), snap.samples.end(),
        [](const MetricSample &x, const MetricSample &y) {
            return x.name < y.name;
        }));

    MetricsRegistry other;
    other.counter("livephase_test_b_total").inc(5);
    other.counter("livephase_test_d_total").inc(1);
    snap.merge(other.snapshot());
    ASSERT_EQ(snap.samples.size(), 4u);
    const MetricSample *b = snap.find("livephase_test_b_total");
    ASSERT_NE(b, nullptr);
    EXPECT_DOUBLE_EQ(b->value, 7.0);
    EXPECT_NE(snap.find("livephase_test_d_total"), nullptr);
    EXPECT_EQ(snap.find("livephase_test_missing"), nullptr);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndUpdates)
{
    MetricsRegistry reg;
    constexpr size_t THREADS = 8;
    constexpr size_t INCS = 20000;

    std::vector<std::thread> threads;
    for (size_t t = 0; t < THREADS; ++t) {
        threads.emplace_back([&reg, t] {
            // Every thread races registration of the shared metrics
            // AND registers one name of its own.
            Counter &shared =
                reg.counter("livephase_test_shared_total");
            Histogram &hist =
                reg.histogram("livephase_test_shared_us");
            Counter &own = reg.counter(
                "livephase_test_thread_" + std::to_string(t) +
                "_total");
            for (size_t i = 0; i < INCS; ++i) {
                shared.inc();
                own.inc();
                hist.record(static_cast<double>(i % 100) + 1.0);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(reg.snapshot().samples.size(), THREADS + 2);
    EXPECT_EQ(reg.counter("livephase_test_shared_total").value(),
              THREADS * INCS);
    EXPECT_EQ(reg.histogram("livephase_test_shared_us").count(),
              THREADS * INCS);
    for (size_t t = 0; t < THREADS; ++t)
        EXPECT_EQ(reg.counter("livephase_test_thread_" +
                              std::to_string(t) + "_total")
                      .value(),
                  INCS);
}

TEST(Exposition, PrometheusRendersAllKinds)
{
    MetricsRegistry reg;
    reg.counter("livephase_test_events_total").inc(7);
    reg.gauge("livephase_test_depth").set(2.5);
    Histogram &h =
        reg.histogram("livephase_test_lat_us{op=\"open\"}");
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));

    const std::string text = renderPrometheus(reg.snapshot());
    EXPECT_NE(text.find("# TYPE livephase_test_events_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("livephase_test_events_total 7"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE livephase_test_depth gauge"),
              std::string::npos);
    // Labelled histogram: quantile spliced into the label set,
    // _sum/_count keep the base name + original labels.
    EXPECT_NE(text.find("livephase_test_lat_us{op=\"open\","
                        "quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("livephase_test_lat_us_count{op=\"open\"} "
                        "100"),
              std::string::npos);
}

TEST(Exposition, JsonlOneObjectPerLine)
{
    MetricsRegistry reg;
    reg.counter("livephase_test_events_total").inc(3);
    reg.histogram("livephase_test_lat_us").record(2.0);
    const std::string text = renderJsonl(reg.snapshot());
    EXPECT_NE(
        text.find("{\"name\": \"livephase_test_events_total\", "
                  "\"kind\": \"counter\", \"value\": 3}"),
        std::string::npos);
    EXPECT_NE(text.find("\"kind\": \"histogram\""),
              std::string::npos);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

} // namespace
