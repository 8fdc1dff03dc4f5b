/**
 * @file
 * Tests for the GPHT predictor — pattern learning, LRU replacement,
 * last-value fallback and the paper's convergence claims — at the
 * fully associative (sets == 1) and hashed set-associative
 * geometries.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "core/gpht_predictor.hh"
#include "core/last_value_predictor.hh"
#include "test_util.hh"

namespace livephase
{
namespace
{

/** Drive a predictor over a sequence; return #correct and #scored. */
std::pair<int, int>
score(PhasePredictor &p, const std::vector<PhaseId> &seq)
{
    p.reset();
    int correct = 0, scored = 0;
    PhaseId pending = INVALID_PHASE;
    for (PhaseId actual : seq) {
        if (pending != INVALID_PHASE) {
            ++scored;
            if (pending == actual)
                ++correct;
        }
        p.observePhase(actual);
        pending = p.predict();
    }
    return {correct, scored};
}

std::vector<PhaseId>
repeatPattern(const std::vector<PhaseId> &period, size_t times)
{
    std::vector<PhaseId> seq;
    for (size_t i = 0; i < times; ++i)
        seq.insert(seq.end(), period.begin(), period.end());
    return seq;
}

TEST(Gpht, ColdPredictorIsInvalid)
{
    for (size_t sets : {1, 32, 128}) {
        GphtPredictor p(8, 128, sets);
        EXPECT_EQ(p.predict(), INVALID_PHASE) << sets;
    }
}

TEST(Gpht, ActsAsLastValueUntilGphrFills)
{
    GphtPredictor p(4, 16);
    p.observePhase(2);
    EXPECT_EQ(p.predict(), 2);
    p.observePhase(5);
    EXPECT_EQ(p.predict(), 5);
    p.observePhase(1);
    EXPECT_EQ(p.predict(), 1);
}

TEST(Gpht, LearnsAlternatingPatternPerfectly)
{
    // 1,2,1,2,... defeats last value completely; the GPHT must
    // converge to 100% after warm-up.
    GphtPredictor p(4, 16);
    const auto seq = repeatPattern({1, 2}, 100);
    auto [correct, scored] = score(p, seq);
    // Allow the learning prefix; after that, perfect.
    EXPECT_GE(correct, scored - 12);
}

TEST(Gpht, LearnsLongPeriodicPattern)
{
    GphtPredictor p(8, 128);
    const auto seq = repeatPattern({1, 1, 4, 4, 1, 1, 5, 5, 3, 3}, 40);
    auto [correct, scored] = score(p, seq);
    const double acc = double(correct) / scored;
    EXPECT_GT(acc, 0.9);

    // Last value manages only ~50% on the same sequence.
    LastValuePredictor lv;
    auto [lv_correct, lv_scored] = score(lv, seq);
    EXPECT_LT(double(lv_correct) / lv_scored, 0.55);
}

TEST(Gpht, RelearnsAfterRegionChange)
{
    GphtPredictor p(8, 128);
    auto seq = repeatPattern({1, 3, 1, 3}, 50);
    const auto region_b = repeatPattern({2, 6, 6, 2}, 50);
    seq.insert(seq.end(), region_b.begin(), region_b.end());
    // Return to region A: patterns must still be resident.
    const auto region_a = repeatPattern({1, 3, 1, 3}, 25);
    seq.insert(seq.end(), region_a.begin(), region_a.end());
    auto [correct, scored] = score(p, seq);
    EXPECT_GT(double(correct) / scored, 0.85);
}

TEST(Gpht, ConstantInputIsPerfectAfterFirst)
{
    GphtPredictor p(8, 128);
    const std::vector<PhaseId> seq(200, 4);
    auto [correct, scored] = score(p, seq);
    EXPECT_EQ(correct, scored);
}

TEST(Gpht, NeverWorseThanLastValueOnRandomInput)
{
    // On pattern-free input the GPHT must degrade gracefully to
    // last-value behaviour (paper: fallback guarantees worst-case
    // parity). Allow a small learning tax.
    Rng rng(77);
    std::vector<PhaseId> seq;
    for (int i = 0; i < 2000; ++i)
        seq.push_back(static_cast<PhaseId>(rng.uniformInt(1, 6)));

    GphtPredictor gpht(8, 1024);
    LastValuePredictor lv;
    auto [g_correct, g_scored] = score(gpht, seq);
    auto [l_correct, l_scored] = score(lv, seq);
    ASSERT_EQ(g_scored, l_scored);
    EXPECT_GE(g_correct, l_correct - l_scored / 20);
}

TEST(Gpht, SingleEntryPhtConvergesToLastValue)
{
    // Paper Figure 5: with 1 PHT entry nearly every lookup misses,
    // so predictions equal GPHR[0] (last value).
    GphtPredictor gpht(8, 1);
    LastValuePredictor lv;
    Rng rng(5);
    std::vector<PhaseId> seq;
    for (int i = 0; i < 500; ++i)
        seq.push_back(static_cast<PhaseId>(rng.uniformInt(1, 6)));
    // Compare prediction streams sample by sample.
    gpht.reset();
    lv.reset();
    int disagreements = 0;
    for (PhaseId actual : seq) {
        gpht.observePhase(actual);
        lv.observePhase(actual);
        if (gpht.predict() != lv.predict())
            ++disagreements;
    }
    // Identical except when the single entry happens to hit.
    EXPECT_LT(disagreements, 25);
}

TEST(Gpht, PhtOccupancyIsBounded)
{
    GphtPredictor p(4, 8);
    Rng rng(9);
    for (int i = 0; i < 500; ++i)
        p.observePhase(static_cast<PhaseId>(rng.uniformInt(1, 6)));
    EXPECT_LE(p.phtOccupancy(), 8u);
    EXPECT_GT(p.phtOccupancy(), 0u);
}

TEST(Gpht, LruReplacementEvictsColdPatterns)
{
    // Depth 2, capacity 3: the cycle 1,1,2 produces exactly three
    // distinct history patterns, which all fit — lookups hit. Then
    // flood with fresh patterns and check LRU replacements occur.
    GphtPredictor p(2, 3);
    for (int i = 0; i < 30; ++i) {
        p.observePhase(1);
        p.observePhase(1);
        p.observePhase(2);
    }
    const auto hits_before = p.stats().hits;
    EXPECT_GT(hits_before, 0u);
    for (PhaseId ph : {3, 4, 5, 6, 3, 5, 4, 6})
        p.observePhase(ph);
    EXPECT_GT(p.stats().replacements, 0u);
}

/** Stats invariants of one predictor driven over a periodic
 *  sequence; shared by the fully associative and hashed cases. */
void
expectConsistentStats(GphtPredictor &p,
                      const std::vector<PhaseId> &period)
{
    score(p, repeatPattern(period, 40));
    const auto &s = p.stats();
    EXPECT_GT(s.lookups, 0u) << p.name();
    EXPECT_GT(s.hits, 0u) << p.name();
    EXPECT_GT(s.insertions, 0u) << p.name();
    EXPECT_LE(s.hits, s.lookups) << p.name();
    EXPECT_EQ(s.hits + s.insertions, s.lookups) << p.name();
}

/** Train, reset, and check every piece of state is cold again. */
void
expectResetIsCold(GphtPredictor &p)
{
    for (int i = 0; i < 50; ++i)
        p.observePhase(1 + (i % 3));
    p.reset();
    EXPECT_EQ(p.predict(), INVALID_PHASE) << p.name();
    EXPECT_EQ(p.phtOccupancy(), 0u) << p.name();
    EXPECT_EQ(p.stats().lookups, 0u) << p.name();
    EXPECT_EQ(p.gphrContents(),
              std::vector<PhaseId>(p.gphrDepth(), INVALID_PHASE))
        << p.name();
}

TEST(Gpht, StatsAccounting)
{
    GphtPredictor p(2, 16);
    expectConsistentStats(p, {1, 2, 3});
}

TEST(Gpht, ResetRestoresColdState)
{
    GphtPredictor p(4, 32);
    expectResetIsCold(p);
}

TEST(Gpht, GphrShiftsNewestFirst)
{
    GphtPredictor p(3, 8);
    p.observePhase(1);
    p.observePhase(2);
    p.observePhase(3);
    EXPECT_EQ(p.gphrContents(), (std::vector<PhaseId>{3, 2, 1}));
    p.observePhase(4);
    EXPECT_EQ(p.gphrContents(), (std::vector<PhaseId>{4, 3, 2}));
}

TEST(Gpht, NameEncodesConfiguration)
{
    EXPECT_EQ(GphtPredictor(8, 1024).name(), "GPHT_8_1024");
    EXPECT_EQ(GphtPredictor(8, 128).name(), "GPHT_8_128");
    EXPECT_EQ(GphtPredictor(8, 128, 1).name(), "GPHT_8_128");
}

TEST(Gpht, InvalidConfigIsFatal)
{
    EXPECT_FAILURE(GphtPredictor(0, 128));
    EXPECT_FAILURE(GphtPredictor(8, 0));
}

/**
 * Property sweep: for every (depth, entries) configuration, a
 * periodic pattern whose windows are unambiguous converges to
 * high accuracy once the PHT can hold the period's patterns.
 */
class GphtConfigSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(GphtConfigSweep, PeriodicPatternAccuracy)
{
    const auto [depth, entries] = GetParam();
    GphtPredictor p(depth, entries);
    // Period 8 with all circular 4-grams distinct: depth >= 4
    // disambiguates fully.
    const auto seq = repeatPattern({1, 1, 2, 2, 1, 1, 5, 5}, 60);
    auto [correct, scored] = score(p, seq);
    const double acc = double(correct) / scored;
    if (depth >= 4 && entries >= 8) {
        // Window disambiguates the period and all patterns fit:
        // near perfect.
        EXPECT_GT(acc, 0.9) << "depth=" << depth
                            << " entries=" << entries;
    } else if (depth >= 2 || entries == 1) {
        // Degraded configurations (partial pattern coverage, or
        // miss-dominated tables falling back to last value) must
        // still clearly beat random guessing.
        EXPECT_GT(acc, 0.3) << "depth=" << depth
                            << " entries=" << entries;
    } else {
        // depth 1 with a large PHT is the known pathological
        // corner: single-phase histories are deeply ambiguous and
        // stale trained predictions can lag systematically. Sanity
        // only.
        EXPECT_GE(acc, 0.0);
        EXPECT_LE(acc, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GphtConfigSweep,
    ::testing::Combine(::testing::Values(size_t(1), size_t(2),
                                         size_t(4), size_t(8),
                                         size_t(12)),
                       ::testing::Values(size_t(1), size_t(8),
                                         size_t(64), size_t(128),
                                         size_t(1024))));

TEST(SetAssocGpht, GeometryAndName)
{
    const GphtPredictor p(8, 128, 32);
    EXPECT_EQ(p.phtEntries(), 128u);
    EXPECT_EQ(p.sets(), 32u);
    EXPECT_EQ(p.ways(), 4u);
    EXPECT_EQ(p.gphrDepth(), 8u);
    EXPECT_EQ(p.name(), "GPHTsa_8_32x4");
    EXPECT_EQ(GphtPredictor(8, 128, 128).name(), "GPHTsa_8_128x1");
}

TEST(SetAssocGpht, FallsBackToLastValueBeforeWarmup)
{
    GphtPredictor p(4, 16, 8);
    p.observePhase(3);
    EXPECT_EQ(p.predict(), 3);
    p.observePhase(5);
    EXPECT_EQ(p.predict(), 5);
    p.observePhase(1);
    EXPECT_EQ(p.predict(), 1);
}

TEST(SetAssocGpht, StatsAreConsistent)
{
    GphtPredictor deep(4, 8, 4);
    expectConsistentStats(deep, {1, 2, 3, 4, 5, 6});
    GphtPredictor shallow(2, 16, 8);
    expectConsistentStats(shallow, {1, 2, 3});
}

TEST(SetAssocGpht, ResetRestoresColdState)
{
    GphtPredictor p(4, 16, 8);
    expectResetIsCold(p);
}

TEST(SetAssocGpht, InvalidGeometryIsFatal)
{
    EXPECT_FAILURE(GphtPredictor(0, 16, 8));
    EXPECT_FAILURE(GphtPredictor(8, 0, 8));   // zero ways
    EXPECT_FAILURE(GphtPredictor(8, 16, 0));  // zero sets
    EXPECT_FAILURE(GphtPredictor(8, 10, 4));  // 10 % 4 != 0
    EXPECT_FAILURE(GphtPredictor(8, 8, 16));  // more sets than entries
}

TEST(SetAssocGpht, LearnsPeriodicPatterns)
{
    GphtPredictor p(8, 128, 32);
    const auto seq =
        repeatPattern({1, 1, 4, 4, 1, 1, 5, 5, 3, 3}, 50);
    auto [correct, scored] = score(p, seq);
    EXPECT_GT(double(correct) / scored, 0.9);
}

TEST(SetAssocGpht, MatchesFullyAssociativeAtEqualCapacity)
{
    // Same capacity, structured workload: the hashed design should
    // track the fully associative one closely.
    GphtPredictor hashed(8, 128, 32);
    GphtPredictor full(8, 128);
    const auto seq =
        repeatPattern({1, 2, 2, 6, 6, 1, 3, 3, 1, 2, 5, 5}, 60);
    auto [h_correct, n1] = score(hashed, seq);
    auto [f_correct, n2] = score(full, seq);
    ASSERT_EQ(n1, n2);
    EXPECT_GE(h_correct, f_correct - n1 / 20);
}

TEST(SetAssocGpht, DirectMappedSuffersConflicts)
{
    // 128 sets x 1 way vs 32 x 4: same capacity, but the
    // direct-mapped table cannot keep colliding patterns resident.
    // With many distinct patterns, the 4-way design replaces less
    // or hits more.
    Rng rng(3);
    std::vector<PhaseId> period;
    for (int i = 0; i < 40; ++i)
        period.push_back(static_cast<PhaseId>(rng.uniformInt(1, 6)));
    const auto seq = repeatPattern(period, 30);

    GphtPredictor direct(8, 128, 128);
    GphtPredictor assoc(8, 128, 32);
    auto [d_correct, n1] = score(direct, seq);
    auto [a_correct, n2] = score(assoc, seq);
    ASSERT_EQ(n1, n2);
    // Associativity never hurts on this workload.
    EXPECT_GE(a_correct, d_correct);
}

/** Property: across geometries of equal capacity, accuracy on a
 *  structured workload stays within a band of the full-assoc
 *  reference. */
class GeometrySweep
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(GeometrySweep, NearFullAssociativeAccuracy)
{
    const auto [sets, ways] = GetParam();
    GphtPredictor hashed(8, sets * ways, sets);
    GphtPredictor full(8, sets * ways);
    const auto seq =
        repeatPattern({1, 1, 2, 2, 1, 1, 5, 5, 3, 3, 6, 6}, 60);
    auto [h_correct, n1] = score(hashed, seq);
    auto [f_correct, n2] = score(full, seq);
    ASSERT_EQ(n1, n2);
    EXPECT_GE(h_correct, f_correct - n1 / 10)
        << sets << "x" << ways;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(std::pair<size_t, size_t>{128, 1},
                      std::pair<size_t, size_t>{64, 2},
                      std::pair<size_t, size_t>{32, 4},
                      std::pair<size_t, size_t>{16, 8},
                      std::pair<size_t, size_t>{8, 16}));

} // namespace
} // namespace livephase
