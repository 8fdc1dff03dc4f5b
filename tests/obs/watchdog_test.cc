/**
 * @file
 * SLO watchdog tests: the rule grammar round-trip, breach/recover
 * edges driven deterministically through evalOnce(), for=N streaks,
 * ratio rules with empty denominators (no signal is not a breach),
 * the health gauge + ratekeeper-facing degraded() flag, alert-ring
 * JSONL, the flight-dump cooldown satellite, and the evaluation
 * thread's start/stop/restart lifecycle (the case scripts/verify.sh
 * --tsan runs under TSan).
 */

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "obs/watchdog.hh"

using namespace livephase;
using namespace livephase::obs;

namespace
{

TEST(WatchdogRules, ParseAndFormatRoundTrip)
{
    const std::string spec =
        "wait:svc.wait_ms:p99:10s:>:500:for=3;"
        "acc:core.miss/core.pred:ratio:60s:>:0.5";
    const auto rules = parseWatchdogRules(spec);
    ASSERT_TRUE(rules.has_value());
    ASSERT_EQ(rules->size(), 2u);

    const WatchdogRule &wait = (*rules)[0];
    EXPECT_EQ(wait.name, "wait");
    EXPECT_EQ(wait.series, "svc.wait_ms");
    EXPECT_TRUE(wait.denominator.empty());
    EXPECT_EQ(wait.stat, RuleStat::P99);
    EXPECT_EQ(wait.window, Window::TenSeconds);
    EXPECT_TRUE(wait.breach_above);
    EXPECT_DOUBLE_EQ(wait.threshold, 500.0);
    EXPECT_EQ(wait.for_windows, 3u);

    const WatchdogRule &acc = (*rules)[1];
    EXPECT_EQ(acc.series, "core.miss");
    EXPECT_EQ(acc.denominator, "core.pred");
    EXPECT_EQ(acc.stat, RuleStat::Ratio);
    EXPECT_EQ(acc.window, Window::SixtySeconds);
    EXPECT_EQ(acc.for_windows, 1u);

    // Round-trip through the formatter re-parses identically.
    const auto again = parseWatchdogRules(formatWatchdogRules(*rules));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(formatWatchdogRules(*again),
              formatWatchdogRules(*rules));
}

TEST(WatchdogRules, MalformedSpecsAreRejected)
{
    const char *bad[] = {
        "no-colons",
        "x:series:p99:10s:>",            // missing threshold
        "x:series:p99:10s:>:notanumber", // bad threshold
        "x:series:p42:10s:>:1",          // unknown stat
        "x:series:p99:5s:>:1",           // unknown window
        "x:series:p99:10s:=:1",          // unknown cmp
        "x:series:ratio:10s:>:1",        // ratio without denominator
        "x:a/b/c:ratio:10s:>:1",         // too many slashes
        "x:series:p99:10s:>:1:for=zero", // bad for=
    };
    for (const char *spec : bad)
        EXPECT_FALSE(parseWatchdogRules(spec).has_value())
            << "accepted: " << spec;
    // Empty spec parses to an empty rule list (caller substitutes
    // the defaults), not an error.
    const auto empty = parseWatchdogRules("");
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());
}

TEST(WatchdogRules, DefaultRulesParse)
{
    const auto rules = defaultWatchdogRules();
    EXPECT_GE(rules.size(), 4u);
    // The defaults must reference the series the service feeds.
    bool has_accuracy = false;
    for (const auto &r : rules)
        if (r.series == "core.mispredictions" &&
            r.denominator == "core.predictions")
            has_accuracy = true;
    EXPECT_TRUE(has_accuracy);
}

/** A watchdog over one synthetic counter rule, evaluated by hand. */
struct RigConfig
{
    std::string series = "test.wd.events";
    double threshold = 100.0;
    uint32_t for_windows = 1;
};

WatchdogConfig
ruleOver(const RigConfig &rig)
{
    WatchdogConfig cfg;
    WatchdogRule rule;
    rule.name = "test-rule";
    rule.series = rig.series;
    rule.stat = RuleStat::Count;
    rule.window = Window::OneSecond;
    rule.breach_above = true;
    rule.threshold = rig.threshold;
    rule.for_windows = rig.for_windows;
    cfg.rules = {rule};
    cfg.dump_on_breach = false; // dump cooldown tested separately
    return cfg;
}

TEST(Watchdog, BreachAndRecoverEdges)
{
    auto &reg = MetricsRegistry::global();
    WindowedCounter &events = reg.windowedCounter("test.wd.edge_events");
    RigConfig rig;
    rig.series = "test.wd.edge_events";
    Watchdog wd(ruleOver(rig));

    Gauge &health =
        MetricsRegistry::global().gauge("livephase_slo_health");

    wd.evalOnce();
    EXPECT_FALSE(wd.degraded());
    EXPECT_DOUBLE_EQ(health.value(), 1.0);

    events.inc(500); // over the 100-count threshold
    wd.evalOnce();
    EXPECT_TRUE(wd.degraded());
    EXPECT_EQ(wd.alertCount(), 1u);
    EXPECT_DOUBLE_EQ(health.value(), 0.0);
    ASSERT_EQ(wd.firingRules().size(), 1u);
    EXPECT_EQ(wd.firingRules()[0], "test-rule");

    // Still breaching: no second alert (edge-triggered).
    wd.evalOnce();
    EXPECT_EQ(wd.alertCount(), 1u);

    // Age the burst out of the 1 s window -> recovery edge.
    for (int i = 0; i < 3; ++i)
        events.rotate();
    wd.evalOnce();
    EXPECT_FALSE(wd.degraded());
    EXPECT_DOUBLE_EQ(health.value(), 1.0);
    EXPECT_TRUE(wd.firingRules().empty());

    // The ring holds the breach and the recovery, oldest first.
    const auto alerts = wd.alerts();
    ASSERT_EQ(alerts.size(), 2u);
    EXPECT_FALSE(alerts[0].recovered);
    EXPECT_TRUE(alerts[1].recovered);
    EXPECT_DOUBLE_EQ(alerts[0].value, 500.0);

    const std::string jsonl = wd.alertsJsonl();
    EXPECT_NE(jsonl.find("\"rule\":\"test-rule\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"event\":\"breach\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"event\":\"recover\""),
              std::string::npos);
}

TEST(Watchdog, ForWindowsRequiresConsecutiveBreaches)
{
    auto &reg = MetricsRegistry::global();
    WindowedCounter &events =
        reg.windowedCounter("test.wd.streak_events");
    RigConfig rig;
    rig.series = "test.wd.streak_events";
    rig.for_windows = 3;
    Watchdog wd(ruleOver(rig));

    events.inc(500);
    wd.evalOnce(); // streak 1
    wd.evalOnce(); // streak 2
    EXPECT_FALSE(wd.degraded());
    wd.evalOnce(); // streak 3 -> fire
    EXPECT_TRUE(wd.degraded());
    EXPECT_EQ(wd.alertCount(), 1u);

    // A clean evaluation resets the streak.
    for (int i = 0; i < 3; ++i)
        events.rotate();
    wd.evalOnce(); // recover
    events.inc(500);
    wd.evalOnce(); // streak 1 again
    wd.evalOnce(); // streak 2
    EXPECT_FALSE(
        wd.alertCount() > 1 && wd.degraded()); // not yet re-fired
}

TEST(Watchdog, RatioRuleSkipsEmptyDenominator)
{
    auto &reg = MetricsRegistry::global();
    WindowedCounter &miss = reg.windowedCounter("test.wd.ratio_miss");
    WindowedCounter &pred = reg.windowedCounter("test.wd.ratio_pred");

    WatchdogConfig cfg;
    WatchdogRule rule;
    rule.name = "ratio-rule";
    rule.series = "test.wd.ratio_miss";
    rule.denominator = "test.wd.ratio_pred";
    rule.stat = RuleStat::Ratio;
    rule.window = Window::OneSecond;
    rule.threshold = 0.5;
    cfg.rules = {rule};
    cfg.dump_on_breach = false;
    Watchdog wd(cfg);

    // Numerator alone: no denominator signal -> rule skipped, not
    // breached (a cold-start all-miss reading would be a false
    // positive).
    miss.inc(10);
    wd.evalOnce();
    EXPECT_FALSE(wd.degraded());

    // With volume, the ratio fires...
    pred.inc(10);
    wd.evalOnce();
    EXPECT_TRUE(wd.degraded());

    // ...and an *absent* series auto-recovers rather than pinning
    // the breach forever (stopped workload).
    for (int i = 0; i < 3; ++i) {
        miss.rotate();
        pred.rotate();
    }
    wd.evalOnce();
    EXPECT_FALSE(wd.degraded());
}

TEST(Watchdog, MissingSeriesIsNotABreach)
{
    WatchdogConfig cfg;
    WatchdogRule rule;
    rule.name = "ghost";
    rule.series = "test.wd.never_registered";
    rule.stat = RuleStat::Rate;
    rule.window = Window::OneSecond;
    rule.threshold = 1.0;
    cfg.rules = {rule};
    cfg.dump_on_breach = false;
    Watchdog wd(cfg);
    wd.evalOnce();
    EXPECT_FALSE(wd.degraded());
    EXPECT_EQ(wd.alertCount(), 0u);
}

TEST(Watchdog, LifecycleStartStopRestart)
{
    auto &reg = MetricsRegistry::global();
    reg.windowedCounter("test.wd.lifecycle_events");
    RigConfig rig;
    rig.series = "test.wd.lifecycle_events";
    WatchdogConfig cfg = ruleOver(rig);
    cfg.eval_interval_ns = 2'000'000; // 2 ms: many ticks per stop
    Watchdog wd(cfg);

    EXPECT_FALSE(wd.running());
    wd.start();
    EXPECT_TRUE(wd.running());
    wd.start(); // idempotent
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    wd.stop();
    EXPECT_FALSE(wd.running());
    wd.stop(); // idempotent

    // Restart after stop works and the thread evaluates again.
    wd.start();
    EXPECT_TRUE(wd.running());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    wd.stop();
    EXPECT_FALSE(wd.running());
}

TEST(Watchdog, ConcurrentLifecycleHammer)
{
    RigConfig rig;
    rig.series = "test.wd.hammer_events";
    MetricsRegistry::global().windowedCounter(rig.series);
    WatchdogConfig cfg = ruleOver(rig);
    cfg.eval_interval_ns = 1'000'000;
    Watchdog wd(cfg);

    // start/stop from several threads while the eval thread runs:
    // the lifecycle lock must serialize them without deadlock or
    // double-join (TSan validates the rest).
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 20; ++i) {
                wd.start();
                std::this_thread::yield();
                wd.stop();
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_FALSE(wd.running());
}

TEST(FlightDump, CooldownRateLimitsRepeatedDumps)
{
    auto &rec = FlightRecorder::global();
    std::ostringstream os;
    rec.setDumpSink(&os);
    rec.resetDumpLatches();
    const uint64_t old_cooldown = rec.dumpCooldownNs();
    const uint64_t suppressed_before = rec.suppressedDumps();

    // Long cooldown: first dump per reason passes, repeats within
    // the window are suppressed and counted.
    rec.setDumpCooldown(60'000'000'000ull);
    EXPECT_TRUE(rec.autoDump("test-cooldown-a"));
    EXPECT_FALSE(rec.autoDump("test-cooldown-a"));
    EXPECT_FALSE(rec.autoDump("test-cooldown-a"));
    EXPECT_EQ(rec.suppressedDumps(), suppressed_before + 2);
    // A distinct cause has its own latch.
    EXPECT_TRUE(rec.autoDump("test-cooldown-b"));

    // Zero cooldown disarms the limit entirely.
    rec.setDumpCooldown(0);
    EXPECT_TRUE(rec.autoDump("test-cooldown-a"));
    EXPECT_TRUE(rec.autoDump("test-cooldown-a"));

    // Tiny cooldown expires and re-arms.
    rec.setDumpCooldown(1); // 1 ns
    EXPECT_TRUE(rec.autoDump("test-cooldown-c"));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(rec.autoDump("test-cooldown-c"));

    rec.setDumpCooldown(old_cooldown);
    rec.resetDumpLatches();
    rec.setDumpSink(nullptr);
}

} // namespace
