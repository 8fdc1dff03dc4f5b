/**
 * @file
 * Profiling-plane tests (obs/profiler.hh): ring overflow keeps the
 * newest samples (drop-oldest, the flight-recorder contract),
 * symbolization resolves an exported function in folded output, the
 * perf-denied path degrades to timer-only without losing stack
 * sampling, and the health/export surfaces stay coherent. All cases
 * use standalone Profiler instances so the global plane — shared
 * with the service tests in this binary — is never armed here.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/profiler.hh"

using namespace livephase;
using namespace livephase::obs;

/* External linkage + noinline so dladdr can resolve the frame by
 * name (tests/CMakeLists.txt builds test_obs with ENABLE_EXPORTS).
 * extern "C" keeps the folded-stack frame free of mangling. */
extern "C" __attribute__((noinline)) uint64_t
livephaseProfilerSpinForTest(uint64_t rounds)
{
    volatile uint64_t acc = 0;
    for (uint64_t i = 0; i < rounds; ++i) {
        acc = acc + i * i + (acc >> 3);
    }
    asm volatile("" ::: "memory");
    return acc;
}

namespace
{

double
globalGauge(const std::string &name)
{
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    for (const MetricSample &s : snap.samples) {
        if (s.name == name)
            return s.value;
    }
    return -1.0;
}

TEST(Profiler, RingOverflowDropsOldestKeepsNewest)
{
    Profiler p(8);
    for (uint64_t i = 0; i < 13; ++i) {
        const uint64_t pcs[2] = {0x1000 + i, 0x2000 + i};
        p.recordSampleForTest(pcs, 2);
    }

    EXPECT_EQ(p.samplesTotal(), 13u);
    const std::vector<StackSample> snap = p.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    // Oldest first; samples 0..4 were overwritten.
    for (size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].pc[0], 0x1000 + 5 + i) << "slot " << i;
        EXPECT_EQ(snap[i].pc[1], 0x2000 + 5 + i) << "slot " << i;
        EXPECT_EQ(snap[i].depth, 2u);
        EXPECT_STREQ(snap[i].thread_name, "test");
        EXPECT_NE(snap[i].tid, 0u);
    }
}

TEST(Profiler, OverDeepStacksClampToMaxDepth)
{
    Profiler p;
    uint64_t pcs[StackSample::MAX_DEPTH + 16];
    for (size_t i = 0; i < StackSample::MAX_DEPTH + 16; ++i)
        pcs[i] = 0x4000 + i;
    p.recordSampleForTest(pcs, StackSample::MAX_DEPTH + 16);

    const std::vector<StackSample> snap = p.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].depth, StackSample::MAX_DEPTH);
}

TEST(Profiler, RenderFoldedAggregatesIdenticalStacks)
{
    Profiler p;
    const uint64_t hot[2] = {0x10, 0x20};
    const uint64_t cold[1] = {0x30};
    p.recordSampleForTest(hot, 2);
    p.recordSampleForTest(hot, 2);
    p.recordSampleForTest(hot, 2);
    p.recordSampleForTest(cold, 1);

    const std::string folded = p.renderFolded();
    // Two distinct stacks, one line each, counts aggregated.
    EXPECT_EQ(std::count(folded.begin(), folded.end(), '\n'), 2);
    EXPECT_NE(folded.find(" 3\n"), std::string::npos) << folded;
    EXPECT_NE(folded.find(" 1\n"), std::string::npos) << folded;
    // Every line roots at the registered thread name.
    EXPECT_NE(folded.find("test;"), std::string::npos) << folded;
}

TEST(Profiler, RenderJsonlCarriesMetaLineAndSamples)
{
    Profiler p;
    const uint64_t pcs[1] = {0x50};
    p.recordSampleForTest(pcs, 1);

    const std::string jsonl = p.renderJsonl();
    EXPECT_NE(jsonl.find("\"profiler\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"samples_total\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"stack\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"thread\":\"test\""), std::string::npos)
        << jsonl;
}

TEST(Profiler, ResetDropsRetainedSamples)
{
    Profiler p;
    const uint64_t pcs[1] = {0x60};
    p.recordSampleForTest(pcs, 1);
    ASSERT_FALSE(p.snapshot().empty());

    p.reset();
    EXPECT_TRUE(p.snapshot().empty());
    EXPECT_EQ(p.samplesTotal(), 0u);
}

TEST(Profiler, SymbolizationResolvesExportedFunction)
{
    Profiler p;
    ThreadProfile guard("spin", p);

    ProfilerConfig cfg;
    cfg.sample_hz = 997;
    cfg.counters = false;
    if (!p.start(cfg))
        GTEST_SKIP() << "per-thread CPU timers unavailable";

    // Burn CPU until samples land (bounded: CPU-time timers only
    // tick with consumed cycles, so a busy loop must trip them).
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::seconds(5);
    while (p.samplesTotal() < 5 &&
           std::chrono::steady_clock::now() < deadline) {
        livephaseProfilerSpinForTest(2'000'000);
    }
    p.stop();

    ASSERT_GE(p.samplesTotal(), 5u) << "no SIGPROF delivery";
    const std::string folded = p.renderFolded();
    EXPECT_NE(folded.find("livephaseProfilerSpinForTest"),
              std::string::npos)
        << folded;
    EXPECT_NE(folded.find("spin;"), std::string::npos) << folded;
}

TEST(Profiler, PerfDeniedFallsBackToTimerOnly)
{
    const bool prev = Profiler::setForcePerfDeniedForTest(true);

    Profiler p;
    ThreadProfile guard("fallback", p);
    ProfilerConfig cfg;
    cfg.sample_hz = 997;
    cfg.counters = true; // requested, but denied at open time
    if (!p.start(cfg)) {
        Profiler::setForcePerfDeniedForTest(prev);
        GTEST_SKIP() << "per-thread CPU timers unavailable";
    }

    EXPECT_EQ(p.mode(), ProfilerMode::TimerOnly);
    EXPECT_FALSE(p.countersLive());
    EXPECT_EQ(p.armFailures(), 0u)
        << "denied PMCs must not count as an arm failure";

    // Stack sampling still works one rung down the ladder.
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::seconds(5);
    while (p.samplesTotal() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
        livephaseProfilerSpinForTest(2'000'000);
    }
    p.stop();
    Profiler::setForcePerfDeniedForTest(prev);

    EXPECT_GE(p.samplesTotal(), 1u);
    EXPECT_EQ(p.mode(), ProfilerMode::Off) << "stop resets the rung";
}

TEST(Profiler, StartStopIdempotentAndHealthGaugeTracks)
{
    Profiler p;
    p.healthTick();
    EXPECT_EQ(globalGauge("livephase_profiler_health"), 1.0)
        << "stopped plane is vacuously healthy";
    EXPECT_EQ(globalGauge("livephase_profiler_mode"), 0.0);

    ProfilerConfig cfg;
    cfg.counters = false;
    if (!p.start(cfg))
        GTEST_SKIP() << "per-thread CPU timers unavailable";
    EXPECT_TRUE(p.running());
    EXPECT_TRUE(p.start(cfg)) << "second start is idempotent";

    p.healthTick();
    EXPECT_EQ(globalGauge("livephase_profiler_health"), 1.0);
    EXPECT_GE(globalGauge("livephase_profiler_mode"), 1.0);

    p.stop();
    p.stop(); // idempotent
    EXPECT_FALSE(p.running());
    p.healthTick();
    EXPECT_EQ(globalGauge("livephase_profiler_mode"), 0.0);
}

TEST(Profiler, StoppedProfilerHoldsNoRings)
{
    // Registering costs no sample ring while the profiler is stopped;
    // arming allocates one per thread, and threads registering later
    // reuse the rings of threads that are gone.
    Profiler p;
    constexpr size_t THREADS = 4;
    std::mutex mu;
    std::condition_variable cv;
    size_t registered = 0;
    bool release = false;
    auto runThreads = [&] {
        std::vector<std::thread> threads;
        for (size_t t = 0; t < THREADS; ++t)
            threads.emplace_back([&] {
                ThreadProfile guard("idle", p);
                std::unique_lock lock(mu);
                ++registered;
                cv.notify_all();
                cv.wait(lock, [&] { return release; });
            });
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return registered == THREADS; });
        return threads;
    };
    auto joinThreads = [&](std::vector<std::thread> &threads) {
        {
            std::lock_guard lock(mu);
            release = true;
        }
        cv.notify_all();
        for (std::thread &t : threads)
            t.join();
        registered = 0;
        release = false;
    };

    std::vector<std::thread> first = runThreads();
    EXPECT_EQ(p.ringCount(), 0u) << "registration allocates no ring";
    ProfilerConfig cfg;
    cfg.counters = false;
    const bool armed = p.start(cfg);
    const size_t after_start = p.ringCount();
    p.stop();
    joinThreads(first);
    if (!armed)
        GTEST_SKIP() << "per-thread CPU timers unavailable";
    EXPECT_EQ(after_start, THREADS) << "one ring per armed thread";

    std::vector<std::thread> second = runThreads();
    EXPECT_TRUE(p.start(cfg));
    const size_t after_restart = p.ringCount();
    p.stop();
    joinThreads(second);
    EXPECT_EQ(after_restart, THREADS)
        << "new threads reuse the rings of departed ones";
}

TEST(Profiler, ModeNamesAreStable)
{
    EXPECT_STREQ(profilerModeName(ProfilerMode::Off), "off");
    EXPECT_STREQ(profilerModeName(ProfilerMode::TimerOnly),
                 "timer-only");
    EXPECT_STREQ(profilerModeName(ProfilerMode::Full), "full");
}

} // namespace
