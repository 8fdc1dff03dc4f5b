/**
 * @file
 * Span tests: histogram recording when enabled, strict no-op when
 * disabled, nested span paths, and the runtime helpers backing them.
 */

#include <thread>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/runtime.hh"
#include "obs/span.hh"

using namespace livephase;
using namespace livephase::obs;

namespace
{

class ScopedObsEnable
{
  public:
    explicit ScopedObsEnable(bool on) : was(enabled())
    {
        setEnabled(on);
    }
    ~ScopedObsEnable() { setEnabled(was); }

  private:
    bool was;
};

TEST(Span, RecordsDurationWhenEnabled)
{
    ScopedObsEnable on(true);
    Histogram &hist = spanHistogram("test.enabled_span");
    const uint64_t before = hist.count();
    {
        OBS_SPAN("test.enabled_span");
    }
    EXPECT_EQ(hist.count(), before + 1);
    // Same site on a later pass reuses the same histogram.
    {
        OBS_SPAN("test.enabled_span");
    }
    EXPECT_EQ(hist.count(), before + 2);
    EXPECT_NE(MetricsRegistry::global().snapshot().find(
                  "livephase_span_us{span=\"test.enabled_span\"}"),
              nullptr);
}

TEST(Span, CountsEveryPassAndTimesOneInPeriod)
{
    ScopedObsEnable on(true);
    Histogram &hist = spanHistogram("test.sampled_span");
    const uint64_t passes = 3 * SPAN_SAMPLE_PERIOD + 5;
    // A fresh thread starts the site's pass count at zero.
    std::thread([&] {
        for (uint64_t i = 0; i < passes; ++i) {
            OBS_SPAN("test.sampled_span");
        }
    }).join();
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, passes);
    // Timed passes 0, P, 2P, 3P stand for 1 + 3P passes; the four
    // after the last timed one are counted but not yet weighed.
    uint64_t population = 0;
    for (const uint64_t b : snap.buckets)
        population += b;
    EXPECT_EQ(population, 1 + 3 * SPAN_SAMPLE_PERIOD);
}

TEST(Span, NoRecordingWhenDisabled)
{
    ScopedObsEnable off(false);
    Histogram &hist = spanHistogram("test.disabled_span");
    const uint64_t before = hist.count();
    {
        OBS_SPAN("test.disabled_span");
    }
    EXPECT_EQ(hist.count(), before);
}

TEST(Span, NestedPathsRenderOuterToInner)
{
    ScopedObsEnable on(true);
    char path[128];
    {
        OBS_SPAN("alpha");
        {
            OBS_SPAN("beta");
            currentSpanPath(path, sizeof(path));
            EXPECT_STREQ(path, "alpha/beta");
        }
        currentSpanPath(path, sizeof(path));
        EXPECT_STREQ(path, "alpha");
    }
    currentSpanPath(path, sizeof(path));
    EXPECT_STREQ(path, "");
}

TEST(Span, StackDepthOverflowIsSafe)
{
    ScopedObsEnable on(true);
    // Push past SPAN_STACK_DEPTH: the excess frames are dropped
    // from the rendered path but pairing stays balanced.
    {
        OBS_SPAN("d1");
        OBS_SPAN("d2");
        OBS_SPAN("d3");
        OBS_SPAN("d4");
        OBS_SPAN("d5");
        OBS_SPAN("d6");
        OBS_SPAN("d7");
        OBS_SPAN("d8");
        OBS_SPAN("d9");
        OBS_SPAN("d10");
        char path[256];
        currentSpanPath(path, sizeof(path));
        EXPECT_EQ(std::string(path).rfind("d1/", 0), 0u)
            << "path=" << path;
    }
    char path[16];
    currentSpanPath(path, sizeof(path));
    EXPECT_STREQ(path, "");
}

TEST(Runtime, ThreadIdsAreSmallAndStable)
{
    const uint32_t mine = threadId();
    EXPECT_GT(mine, 0u);
    EXPECT_EQ(threadId(), mine);
}

TEST(Runtime, MonotonicClockAdvances)
{
    const uint64_t a = monoNowNs();
    const uint64_t b = monoNowNs();
    EXPECT_GE(b, a);
    EXPECT_GE(sinceStartNs(), 0u);
}

} // namespace
