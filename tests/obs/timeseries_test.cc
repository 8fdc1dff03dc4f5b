/**
 * @file
 * Windowed time-series tests: ring rotation semantics (the live
 * cell, the cleared-next-cell invariant, catch-up after a stall),
 * window stats over 1s/10s/60s, registry rotation races (many
 * threads, one winner per boundary), and exposition rendered
 * *during* active rotation — the case scripts/verify.sh --tsan
 * cares about, since readers merge cells writers are recording
 * into.
 */

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exposition.hh"
#include "obs/phase_telemetry.hh"
#include "obs/timeseries.hh"

using namespace livephase;
using namespace livephase::obs;

namespace
{

TEST(TimeSeries, WindowedHistogramLiveCellStats)
{
    WindowedHistogram h;
    for (int i = 0; i < 100; ++i)
        h.record(10.0);
    // Live cell only (epoch 0, no closed cells yet).
    const WindowStats w = h.stats(Window::OneSecond, 1.0);
    EXPECT_EQ(w.count, 100u);
    // Rate divides by the window's nominal span (1 s); the live
    // cell rides along with the closed cells it will soon join.
    EXPECT_DOUBLE_EQ(w.rate, 100.0);
    // Log-bucketed quantiles: within the documented 12.5% error.
    EXPECT_NEAR(w.p50, 10.0, 10.0 * 0.125);
    EXPECT_NEAR(w.p99, 10.0, 10.0 * 0.125);
    EXPECT_NEAR(w.max, 10.0, 10.0 * 0.125);
}

TEST(TimeSeries, RotationMovesSamplesIntoClosedCells)
{
    WindowedHistogram h;
    h.record(5.0);
    h.rotate();
    // The old cell is closed; a 1 s window still sees it.
    EXPECT_EQ(h.stats(Window::OneSecond, 1.0).count, 1u);
    h.record(7.0);
    EXPECT_EQ(h.stats(Window::OneSecond, 1.0).count, 2u);
    // A 10 s window sees both as well.
    EXPECT_EQ(h.stats(Window::TenSeconds, 1.0).count, 2u);
}

TEST(TimeSeries, OldSamplesAgeOutOfTheWindow)
{
    WindowedHistogram h;
    h.record(5.0);
    // Push the sample beyond the 1 s window (live + 1 closed cell):
    // after two rotations it sits two cells back.
    h.rotate();
    h.rotate();
    EXPECT_EQ(h.stats(Window::OneSecond, 1.0).count, 0u);
    // ... but a 10 s window still covers it.
    EXPECT_EQ(h.stats(Window::TenSeconds, 1.0).count, 1u);
    // After a full ring revolution the cell is recycled and cleared.
    for (size_t i = 0; i < TS_SLOTS; ++i)
        h.rotate();
    EXPECT_EQ(h.stats(Window::SixtySeconds, 1.0).count, 0u);
}

TEST(TimeSeries, WindowedCounterRates)
{
    WindowedCounter c;
    c.inc(30);
    c.rotate();
    c.inc(10);
    const WindowStats w1 = c.stats(Window::OneSecond, 1.0);
    EXPECT_EQ(w1.count, 40u);
    EXPECT_DOUBLE_EQ(w1.rate, 40.0); // nominal 1 s span
    // Shrunk slot duration scales the rate accordingly.
    const WindowStats w_fast = c.stats(Window::OneSecond, 0.1);
    EXPECT_DOUBLE_EQ(w_fast.rate, 400.0);
}

TEST(TimeSeries, RegistryFindOrCreateAndSnapshot)
{
    auto &reg = MetricsRegistry::global();
    WindowedHistogram &h = reg.windowedHistogram("test.ts.reg_hist");
    WindowedCounter &c = reg.windowedCounter("test.ts.reg_counter");
    // Same name -> same instance.
    EXPECT_EQ(&h, &reg.windowedHistogram("test.ts.reg_hist"));
    EXPECT_EQ(&c, &reg.windowedCounter("test.ts.reg_counter"));
    h.record(1.0);
    c.inc(3);

    const TimeSeriesSnapshot snap = reg.windowSnapshot();
    const SeriesSample *hs = snap.find("test.ts.reg_hist");
    const SeriesSample *cs = snap.find("test.ts.reg_counter");
    ASSERT_NE(hs, nullptr);
    ASSERT_NE(cs, nullptr);
    EXPECT_TRUE(hs->is_histogram);
    EXPECT_FALSE(cs->is_histogram);
    EXPECT_GE(hs->w60s.count, 1u);
    EXPECT_GE(cs->w60s.count, 3u);

    WindowStats stats;
    EXPECT_TRUE(reg.seriesStats("test.ts.reg_counter",
                                Window::SixtySeconds, stats));
    EXPECT_GE(stats.count, 3u);
    EXPECT_FALSE(
        reg.seriesStats("test.ts.does_not_exist",
                        Window::OneSecond, stats));
    // The non-creating lookup must not have registered the name.
    EXPECT_EQ(snap.find("test.ts.does_not_exist"), nullptr);
}

TEST(TimeSeries, RotateIfDueSingleWinnerPerBoundary)
{
    auto &reg = MetricsRegistry::global();
    WindowedCounter &c = reg.windowedCounter("test.ts.rotate_race");
    const uint64_t slot = reg.slotDurationNs();

    // Re-anchor the schedule (same duration, zeroed deadline) so
    // this test controls the clock, then cross exactly one boundary
    // from many threads: exactly one rotation total.
    reg.setSlotDuration(slot);
    const uint64_t t0 = 1'000'000'000'000'000ull;
    EXPECT_EQ(reg.rotateIfDue(t0), 0u); // anchors, never rotates
    const uint64_t before = c.currentEpoch();
    std::atomic<size_t> total{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&] {
            total += reg.rotateIfDue(t0 + slot);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(total.load(), 1u);
    EXPECT_EQ(c.currentEpoch(), before + 1);

    // A stall of many slots catches up, capped at TS_SLOTS.
    const size_t caught =
        reg.rotateIfDue(t0 + slot * (TS_SLOTS + 10));
    EXPECT_LE(caught, TS_SLOTS);
    EXPECT_GE(caught, 1u);

    // Hand the schedule back to real time for later tests.
    reg.setSlotDuration(slot);
}

TEST(TimeSeries, ExpositionDuringActiveRotation)
{
    auto &reg = MetricsRegistry::global();
    WindowedHistogram &h = reg.windowedHistogram("test.ts.expose_hist");
    WindowedCounter &c = reg.windowedCounter("test.ts.expose_counter");

    // Writers + a rotator churn while renders run: no torn reads,
    // no crashes, output always well-formed. TSan verifies the
    // absence of lock-order and data-race bugs here.
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            h.record(2.5);
            c.inc();
        }
    });
    std::thread rotator([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            h.rotate();
            c.rotate();
            std::this_thread::yield();
        }
    });

    for (int i = 0; i < 50; ++i) {
        const TimeSeriesSnapshot snap = reg.windowSnapshot();
        const std::string prom = renderTimeSeriesPrometheus(snap);
        const std::string jsonl = renderTimeSeriesJsonl(snap);
        EXPECT_NE(prom.find("livephase_window{series="),
                  std::string::npos);
        EXPECT_NE(jsonl.find("\"series\""), std::string::npos);
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    rotator.join();
}

TEST(TimeSeries, PrometheusRenderingEscapesLabelQuotes)
{
    auto &reg = MetricsRegistry::global();
    reg.windowedCounter("test.ts.labeled{tag=\"interactive\"}").inc();
    const std::string prom =
        renderTimeSeriesPrometheus(reg.windowSnapshot());
    // The embedded quotes must be escaped inside the series label.
    EXPECT_NE(
        prom.find("series=\"test.ts.labeled{tag=\\\"interactive"),
        std::string::npos);
}

TEST(PhaseTelemetry, BatchDeltaFlushAndSnapshot)
{
    auto &pt = PhaseTelemetry::global();
    pt.resetForTest();
    // resetForTest() clears the totals but not the windowed series
    // (those live in the global registry); drain them by cycling
    // the full ring so the window assertions below are exact.
    auto &reg = MetricsRegistry::global();
    for (size_t i = 0; i < TS_SLOTS; ++i) {
        reg.windowedCounter("core.predictions").rotate();
        reg.windowedCounter("core.mispredictions").rotate();
    }

    PhaseBatchDelta delta;
    delta.classified = 10;
    delta.predictions = 9;
    delta.mispredictions = 3;
    delta.transitions = 2;
    delta.addResidency(3, 7);
    delta.addResidency(5, 3);
    delta.addTransition(3, 5);
    delta.addTransition(5, 3);
    delta.addDvfsAction(2, 10);
    pt.recordBatch(delta);

    const PhaseTelemetrySnapshot snap = pt.snapshot();
    EXPECT_EQ(snap.classified, 10u);
    EXPECT_EQ(snap.predictions, 9u);
    EXPECT_EQ(snap.mispredictions, 3u);
    EXPECT_EQ(snap.transitions, 2u);
    EXPECT_EQ(snap.residency[2], 7u); // phase 3 -> index 2
    EXPECT_EQ(snap.residency[4], 3u);
    EXPECT_EQ(snap.matrix[2 * PT_MAX_PHASES + 4], 1u); // 3 -> 5
    EXPECT_EQ(snap.matrix[4 * PT_MAX_PHASES + 2], 1u); // 5 -> 3
    EXPECT_EQ(snap.dvfs_actions[2], 10u);
    EXPECT_NEAR(snap.cumulativeHitRate(), 6.0 / 9.0, 1e-9);
    // Windowed series carry the same volume.
    EXPECT_GE(snap.pred_60s.count, 9u);
    EXPECT_NEAR(snap.hit_rate_60s, 6.0 / 9.0, 1e-9);

    const std::string json = pt.renderJson();
    EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
    EXPECT_NE(json.find("\"from\":3"), std::string::npos);
    const std::string prom = pt.renderPrometheus();
    EXPECT_NE(prom.find(
                  "livephase_phase_residency_total{phase=\"3\"} 7"),
              std::string::npos);
    EXPECT_NE(
        prom.find(
            "livephase_phase_transition_total{from=\"3\",to=\"5\"}"),
        std::string::npos);
    EXPECT_NE(prom.find("livephase_dvfs_action_total{index=\"2\"}"),
              std::string::npos);
    pt.resetForTest();
}

TEST(PhaseTelemetry, OutOfRangePhasesFoldIntoEdgeSlots)
{
    auto &pt = PhaseTelemetry::global();
    pt.resetForTest();
    PhaseBatchDelta delta;
    delta.addResidency(0);   // invalid -> slot 0
    delta.addResidency(999); // overflow -> last slot
    pt.recordBatch(delta);
    const PhaseTelemetrySnapshot snap = pt.snapshot();
    EXPECT_EQ(snap.residency[0], 1u);
    EXPECT_EQ(snap.residency[PT_MAX_PHASES - 1], 1u);
    pt.resetForTest();
}

} // namespace
