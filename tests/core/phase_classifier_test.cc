/**
 * @file
 * Tests for phase classification (paper Table 1).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/phase_classifier.hh"
#include "test_util.hh"

namespace livephase
{
namespace
{

TEST(PhaseClassifier, Table1BucketsMatchPaper)
{
    const PhaseClassifier c = PhaseClassifier::table1();
    EXPECT_EQ(c.numPhases(), 6);
    EXPECT_EQ(c.classify(0.000), 1);
    EXPECT_EQ(c.classify(0.004), 1);
    EXPECT_EQ(c.classify(0.005), 2);
    EXPECT_EQ(c.classify(0.009), 2);
    EXPECT_EQ(c.classify(0.010), 3);
    EXPECT_EQ(c.classify(0.014), 3);
    EXPECT_EQ(c.classify(0.015), 4);
    EXPECT_EQ(c.classify(0.019), 4);
    EXPECT_EQ(c.classify(0.020), 5);
    EXPECT_EQ(c.classify(0.029), 5);
    EXPECT_EQ(c.classify(0.030), 6);
    EXPECT_EQ(c.classify(0.110), 6);
}

TEST(PhaseClassifier, SampleCarriesRawMetric)
{
    const PhaseClassifier c = PhaseClassifier::table1();
    const PhaseSample s = c.sample(0.0123);
    EXPECT_EQ(s.phase, 3);
    EXPECT_DOUBLE_EQ(s.metric, 0.0123);
}

TEST(PhaseClassifier, CustomBoundaries)
{
    PhaseClassifier c({0.01, 0.02});
    EXPECT_EQ(c.numPhases(), 3);
    EXPECT_EQ(c.classify(0.005), 1);
    EXPECT_EQ(c.classify(0.015), 2);
    EXPECT_EQ(c.classify(0.5), 3);
}

TEST(PhaseClassifier, RepresentativeMetricsClassifyBack)
{
    const PhaseClassifier c = PhaseClassifier::table1();
    for (PhaseId p = 1; p <= c.numPhases(); ++p)
        EXPECT_EQ(c.classify(c.representativeMetric(p)), p)
            << "phase " << p;
}

TEST(PhaseClassifier, RepresentativeMetricOutOfRangePanics)
{
    const PhaseClassifier c = PhaseClassifier::table1();
    EXPECT_FAILURE(c.representativeMetric(0));
    EXPECT_FAILURE(c.representativeMetric(7));
}

TEST(PhaseClassifier, RejectsBadBoundaries)
{
    EXPECT_FAILURE(PhaseClassifier({}));
    EXPECT_FAILURE(PhaseClassifier({0.01, 0.01}));
    EXPECT_FAILURE(PhaseClassifier({0.02, 0.01}));
    EXPECT_FAILURE(PhaseClassifier({-0.01, 0.01}));
    std::vector<double> bounds;
    for (int i = 1; i < MAX_PHASES; ++i)
        bounds.push_back(0.01 * i);
    EXPECT_EQ(PhaseClassifier(bounds).numPhases(), MAX_PHASES);
    bounds.push_back(1.0);
    EXPECT_FAILURE(PhaseClassifier{bounds});
}

TEST(PhaseClassifier, NegativeMetricPanics)
{
    const PhaseClassifier c = PhaseClassifier::table1();
    EXPECT_FAILURE(c.classify(-0.001));
}

TEST(PhaseName, Formats)
{
    EXPECT_EQ(phaseName(3), "phase 3");
    EXPECT_EQ(phaseName(INVALID_PHASE), "invalid");
}

/** Property: classification is monotone in the metric. */
class ClassifierMonotone : public ::testing::TestWithParam<double>
{
};

TEST_P(ClassifierMonotone, NondecreasingInMetric)
{
    const PhaseClassifier c = PhaseClassifier::table1();
    const double m = GetParam();
    EXPECT_LE(c.classify(m), c.classify(m + 0.001));
    EXPECT_LE(c.classify(m), c.classify(m * 2.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(MetricGrid, ClassifierMonotone,
                         ::testing::Values(0.0, 0.0049, 0.005, 0.0099,
                                           0.012, 0.0199, 0.025,
                                           0.0299, 0.03, 0.1));

} // namespace
} // namespace livephase
