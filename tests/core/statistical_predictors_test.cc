/**
 * @file
 * Tests for the statistical predictors of Section 3: last value,
 * fixed window, variable window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/random.hh"
#include "core/fixed_window_predictor.hh"
#include "core/last_value_predictor.hh"
#include "core/variable_window_predictor.hh"
#include "test_util.hh"

namespace livephase
{
namespace
{

TEST(LastValue, PredictsLastObservation)
{
    LastValuePredictor p;
    EXPECT_EQ(p.predict(), INVALID_PHASE);
    p.observePhase(3);
    EXPECT_EQ(p.predict(), 3);
    p.observePhase(5);
    EXPECT_EQ(p.predict(), 5);
}

TEST(LastValue, ResetForgets)
{
    LastValuePredictor p;
    p.observePhase(2);
    p.reset();
    EXPECT_EQ(p.predict(), INVALID_PHASE);
}

TEST(LastValue, Name)
{
    EXPECT_EQ(LastValuePredictor().name(), "LastValue");
}

TEST(FixedWindow, MajorityVoteWins)
{
    FixedWindowPredictor p(4);
    p.observePhase(1);
    p.observePhase(2);
    p.observePhase(2);
    p.observePhase(3);
    // Window {3, 2, 2, 1}: majority 2.
    EXPECT_EQ(p.predict(), 2);
}

TEST(FixedWindow, TieBreaksToMostRecent)
{
    FixedWindowPredictor p(4);
    p.observePhase(1);
    p.observePhase(1);
    p.observePhase(2);
    p.observePhase(2);
    // 2 and 1 tie; 2 is more recent.
    EXPECT_EQ(p.predict(), 2);
}

TEST(FixedWindow, MajorityMatchesAFreshVoteOverTheWindow)
{
    // Running tallies must agree with counting the window afresh:
    // the most frequent phase, ties to the one seen most recently.
    Rng rng(11);
    for (size_t window : {1, 2, 5, 8, 33}) {
        FixedWindowPredictor p(window);
        std::deque<PhaseId> recent; // newest first
        for (int i = 0; i < 2000; ++i) {
            const auto phase =
                static_cast<PhaseId>(rng.uniformInt(1, 4));
            p.observePhase(phase);
            recent.push_front(phase);
            if (recent.size() > window)
                recent.pop_back();
            PhaseId want = INVALID_PHASE;
            long best = 0;
            for (PhaseId q : recent) {
                const long n = std::count(recent.begin(),
                                          recent.end(), q);
                if (n > best) {
                    best = n;
                    want = q;
                }
            }
            ASSERT_EQ(p.predict(), want) << window << " at " << i;
        }
    }
}

TEST(FixedWindow, OldSamplesFallOut)
{
    FixedWindowPredictor p(3);
    p.observePhase(6);
    p.observePhase(6);
    p.observePhase(6);
    for (int i = 0; i < 3; ++i)
        p.observePhase(1);
    EXPECT_EQ(p.predict(), 1);
    EXPECT_EQ(p.occupancy(), 3u);
}

TEST(FixedWindow, WindowOfOneIsLastValue)
{
    FixedWindowPredictor p(1);
    for (PhaseId phase : {1, 4, 2, 6}) {
        p.observePhase(phase);
        EXPECT_EQ(p.predict(), phase);
    }
}

TEST(FixedWindow, SlowToReactToTransitions)
{
    // The paper's key weakness of large fixed windows: after a phase
    // change the stale majority keeps winning for ~window/2 samples.
    FixedWindowPredictor p(128);
    for (int i = 0; i < 128; ++i)
        p.observePhase(1);
    for (int i = 0; i < 60; ++i) {
        p.observePhase(6);
        EXPECT_EQ(p.predict(), 1) << "sample " << i;
    }
    for (int i = 0; i < 10; ++i)
        p.observePhase(6);
    EXPECT_EQ(p.predict(), 6);
}

TEST(FixedWindow, AverageSelectorRoundsMean)
{
    FixedWindowPredictor p(4, FixedWindowPredictor::Selector::Average);
    p.observePhase(1);
    p.observePhase(2);
    p.observePhase(5);
    p.observePhase(6);
    // mean 3.5 -> rounds to 4.
    EXPECT_EQ(p.predict(), 4);
}

TEST(FixedWindow, EwmaSelectorTracksRecentBehavior)
{
    FixedWindowPredictor p(64, FixedWindowPredictor::Selector::Ewma,
                           0.5);
    for (int i = 0; i < 20; ++i)
        p.observePhase(2);
    EXPECT_EQ(p.predict(), 2);
    for (int i = 0; i < 6; ++i)
        p.observePhase(6);
    EXPECT_EQ(p.predict(), 6); // alpha 0.5 converges fast
}

TEST(FixedWindow, NamesEncodeConfiguration)
{
    EXPECT_EQ(FixedWindowPredictor(8).name(), "FixWindow_8");
    EXPECT_EQ(FixedWindowPredictor(128).name(), "FixWindow_128");
    EXPECT_EQ(FixedWindowPredictor(
                  16, FixedWindowPredictor::Selector::Ewma).name(),
              "FixWindow_16_ewma");
}

TEST(FixedWindow, ResetEmptiesWindow)
{
    FixedWindowPredictor p(8);
    p.observePhase(4);
    p.reset();
    EXPECT_EQ(p.predict(), INVALID_PHASE);
    EXPECT_EQ(p.occupancy(), 0u);
}

TEST(FixedWindow, InvalidConfigIsFatal)
{
    EXPECT_FAILURE(FixedWindowPredictor(0));
    EXPECT_FAILURE(FixedWindowPredictor(
        8, FixedWindowPredictor::Selector::Ewma, 0.0));
    EXPECT_FAILURE(FixedWindowPredictor(
        8, FixedWindowPredictor::Selector::Ewma, 1.5));
}

TEST(VariableWindow, FlushesHistoryAtTransition)
{
    VariableWindowPredictor p(128, 0.005);
    // Long phase-2 history at metric 0.007.
    for (int i = 0; i < 100; ++i)
        p.observe({2, 0.007});
    EXPECT_EQ(p.predict(), 2);
    // A jump to 0.035 (phase 6) exceeds the 0.005 threshold: the
    // stale history must be flushed so the prediction flips at once.
    p.observe({6, 0.035});
    EXPECT_EQ(p.predict(), 6);
    EXPECT_EQ(p.occupancy(), 1u);
    EXPECT_EQ(p.flushCount(), 1u);
}

TEST(VariableWindow, LargeThresholdKeepsHistory)
{
    // With the paper's 0.030 threshold, a 0.007 -> 0.018 move does
    // not flush, so the majority stays with the old phase.
    VariableWindowPredictor p(128, 0.030);
    for (int i = 0; i < 100; ++i)
        p.observe({2, 0.007});
    p.observe({4, 0.018});
    EXPECT_EQ(p.predict(), 2);
    EXPECT_EQ(p.flushCount(), 0u);
}

TEST(VariableWindow, SmallDriftDoesNotFlush)
{
    VariableWindowPredictor p(16, 0.005);
    p.observe({1, 0.002});
    p.observe({1, 0.004});
    p.observe({1, 0.003});
    EXPECT_EQ(p.flushCount(), 0u);
    EXPECT_EQ(p.occupancy(), 3u);
}

TEST(VariableWindow, WindowCapStillApplies)
{
    VariableWindowPredictor p(4, 0.005);
    for (int i = 0; i < 10; ++i)
        p.observe({3, 0.012});
    EXPECT_EQ(p.occupancy(), 4u);
}

TEST(VariableWindow, ResetClearsEverything)
{
    VariableWindowPredictor p(8, 0.005);
    p.observe({2, 0.007});
    p.observe({6, 0.05});
    p.reset();
    EXPECT_EQ(p.predict(), INVALID_PHASE);
    EXPECT_EQ(p.occupancy(), 0u);
    EXPECT_EQ(p.flushCount(), 0u);
}

TEST(VariableWindow, NameEncodesConfiguration)
{
    EXPECT_EQ(VariableWindowPredictor(128, 0.005).name(),
              "VarWindow_128_0.005");
    EXPECT_EQ(VariableWindowPredictor(128, 0.030).name(),
              "VarWindow_128_0.030");
}

TEST(VariableWindow, InvalidConfigIsFatal)
{
    EXPECT_FAILURE(VariableWindowPredictor(0, 0.005));
    EXPECT_FAILURE(VariableWindowPredictor(8, -0.1));
}

} // namespace
} // namespace livephase
