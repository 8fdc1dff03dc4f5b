/**
 * @file
 * Tests for phase-behaviour statistics and GPHT state persistence.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "analysis/phase_stats.hh"
#include "core/gpht_predictor.hh"
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

TEST(GphtPersistence, SaveLoadRoundTripPreservesPredictions)
{
    for (size_t sets : {1, 16}) {
        GphtPredictor original(8, 64, sets);
        const std::vector<PhaseId> period{1, 1, 4, 4, 1, 1, 5, 5};
        for (int rep = 0; rep < 30; ++rep)
            for (PhaseId p : period)
                original.observePhase(p);

        std::stringstream state;
        original.saveState(state);
        GphtPredictor restored(8, 64, sets);
        restored.loadState(state);

        // Both predictors must now behave identically on a further
        // pass over the pattern.
        for (int rep = 0; rep < 3; ++rep) {
            for (PhaseId p : period) {
                original.observePhase(p);
                restored.observePhase(p);
                EXPECT_EQ(original.predict(), restored.predict());
            }
        }
        EXPECT_EQ(original.phtOccupancy(), restored.phtOccupancy());
        EXPECT_EQ(original.gphrContents(), restored.gphrContents());
    }
}

TEST(GphtPersistence, WarmStartSkipsRelearning)
{
    // A freshly loaded predictor must predict the learned pattern
    // correctly right away (modulo the one pending training step).
    GphtPredictor trained(8, 64);
    const std::vector<PhaseId> period{1, 2, 1, 6, 1, 2, 1, 5};
    for (int rep = 0; rep < 40; ++rep)
        for (PhaseId p : period)
            trained.observePhase(p);
    std::stringstream state;
    trained.saveState(state);

    GphtPredictor warm(8, 64);
    warm.loadState(state);
    int correct = 0, scored = 0;
    PhaseId pending = warm.predict();
    for (int rep = 0; rep < 4; ++rep) {
        for (PhaseId p : period) {
            if (pending != INVALID_PHASE) {
                ++scored;
                if (pending == p)
                    ++correct;
            }
            warm.observePhase(p);
            pending = warm.predict();
        }
    }
    EXPECT_GE(correct, scored - 2);
}

TEST(GphtPersistence, RejectsCorruptOrMismatchedState)
{
    GphtPredictor p(8, 64);
    {
        std::stringstream garbage("not a state file");
        EXPECT_FAILURE(p.loadState(garbage));
    }
    {
        GphtPredictor other(4, 64);
        std::stringstream state;
        other.saveState(state);
        EXPECT_FAILURE(p.loadState(state)); // depth mismatch
    }
    {
        GphtPredictor other(8, 128);
        std::stringstream state;
        other.saveState(state);
        EXPECT_FAILURE(p.loadState(state)); // capacity mismatch
    }
    {
        GphtPredictor other(8, 64, 16);
        std::stringstream state;
        other.saveState(state);
        EXPECT_FAILURE(p.loadState(state)); // sets mismatch
        std::stringstream again;
        p.saveState(again);
        EXPECT_FAILURE(other.loadState(again));
        GphtPredictor fewer_sets(8, 64, 8);
        std::stringstream hashed;
        other.saveState(hashed);
        EXPECT_FAILURE(fewer_sets.loadState(hashed));
    }
    {
        std::stringstream truncated("GPHT-STATE 1\n8 64\n");
        EXPECT_FAILURE(p.loadState(truncated));
    }
}

} // namespace
} // namespace livephase
