/**
 * @file
 * Tests for phase-behaviour statistics.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/phase_stats.hh"
#include "workload/spec2000.hh"
#include "test_util.hh"

namespace livephase
{
namespace
{

IntervalTrace
traceFromLevels(const std::vector<double> &levels)
{
    IntervalTrace t("levels");
    for (double m : levels) {
        Interval ivl;
        ivl.uops = 100e6;
        ivl.mem_per_uop = m;
        t.append(ivl);
    }
    return t;
}

TEST(PhaseStats, OccupancyAndRuns)
{
    // Phases: 1,1,1,6,6,1 -> phase 1: 4 samples, 2 runs (3 and 1);
    // phase 6: 2 samples, 1 run of 2.
    const IntervalTrace t = traceFromLevels(
        {0.001, 0.001, 0.001, 0.05, 0.05, 0.001});
    const PhaseStats stats =
        computePhaseStats(t, PhaseClassifier::table1());
    EXPECT_EQ(stats.total_samples, 6u);
    EXPECT_EQ(stats.of(1).samples, 4u);
    EXPECT_EQ(stats.of(1).runs, 2u);
    EXPECT_DOUBLE_EQ(stats.of(1).mean_run_length, 2.0);
    EXPECT_EQ(stats.of(1).max_run_length, 3u);
    EXPECT_NEAR(stats.of(1).residency, 4.0 / 6.0, 1e-12);
    EXPECT_EQ(stats.of(6).samples, 2u);
    EXPECT_EQ(stats.of(6).runs, 1u);
    EXPECT_EQ(stats.of(6).max_run_length, 2u);
    EXPECT_EQ(stats.of(3).samples, 0u);
    EXPECT_EQ(stats.phasesVisited(), 2);
}

TEST(PhaseStats, TransitionMatrixAndRate)
{
    const IntervalTrace t = traceFromLevels(
        {0.001, 0.001, 0.001, 0.05, 0.05, 0.001});
    const PhaseStats stats =
        computePhaseStats(t, PhaseClassifier::table1());
    // Boundaries: 1->1, 1->1, 1->6, 6->6, 6->1.
    EXPECT_EQ(stats.transition_counts[0][0], 2u);
    EXPECT_EQ(stats.transition_counts[0][5], 1u);
    EXPECT_EQ(stats.transition_counts[5][5], 1u);
    EXPECT_EQ(stats.transition_counts[5][0], 1u);
    EXPECT_NEAR(stats.transition_rate, 2.0 / 5.0, 1e-12);
}

TEST(PhaseStats, ConstantTraceHasZeroEntropy)
{
    const IntervalTrace t =
        traceFromLevels(std::vector<double>(40, 0.012));
    const PhaseStats stats =
        computePhaseStats(t, PhaseClassifier::table1());
    EXPECT_DOUBLE_EQ(stats.transition_rate, 0.0);
    EXPECT_DOUBLE_EQ(stats.conditionalEntropyBits(), 0.0);
    EXPECT_EQ(stats.of(3).runs, 1u);
    EXPECT_EQ(stats.of(3).max_run_length, 40u);
}

TEST(PhaseStats, AlternationHasZeroConditionalEntropy)
{
    // 1,6,1,6: next phase is fully determined by the current one.
    std::vector<double> levels;
    for (int i = 0; i < 40; ++i)
        levels.push_back(i % 2 == 0 ? 0.001 : 0.05);
    const PhaseStats stats = computePhaseStats(
        traceFromLevels(levels), PhaseClassifier::table1());
    EXPECT_DOUBLE_EQ(stats.transition_rate, 1.0);
    EXPECT_NEAR(stats.conditionalEntropyBits(), 0.0, 1e-12);
}

TEST(PhaseStats, FairCoinHasOneBitOfEntropy)
{
    // Phases 1 and 6 in a balanced, maximally unpredictable
    // alternation pattern: 1,1,6,6 repeated gives each current
    // phase a 50/50 successor split.
    std::vector<double> levels;
    for (int i = 0; i < 400; ++i)
        levels.push_back((i / 2) % 2 == 0 ? 0.001 : 0.05);
    const PhaseStats stats = computePhaseStats(
        traceFromLevels(levels), PhaseClassifier::table1());
    EXPECT_NEAR(stats.conditionalEntropyBits(), 1.0, 0.02);
}

TEST(PhaseStats, ExplainsLastValueAccuracy)
{
    // Last-value accuracy == 1 - transition rate, by construction.
    const IntervalTrace applu =
        Spec2000Suite::byName("applu_in").makeTrace(500, 1);
    const PhaseStats stats =
        computePhaseStats(applu, PhaseClassifier::table1());
    EXPECT_GT(stats.transition_rate, 0.4);
    EXPECT_GT(stats.phasesVisited(), 2);
}

TEST(PhaseStats, ValidationAndAccessors)
{
    IntervalTrace empty("empty");
    EXPECT_FAILURE(
        computePhaseStats(empty, PhaseClassifier::table1()));
    const PhaseStats stats = computePhaseStats(
        traceFromLevels({0.001}), PhaseClassifier::table1());
    EXPECT_FAILURE(stats.of(0));
    EXPECT_FAILURE(stats.of(7));
    EXPECT_DOUBLE_EQ(stats.transition_rate, 0.0);
}

} // namespace
} // namespace livephase
