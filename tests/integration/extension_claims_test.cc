/**
 * @file
 * Integration tests pinning the *extension* experiments' shapes:
 * sampling-granularity trade-off, transition-cost erosion, GPHR
 * depth knee, multiprogramming, and PHT-organization parity. These
 * guard the ablation benches' stories against regressions.
 */

#include <gtest/gtest.h>

#include "analysis/accuracy.hh"
#include "analysis/power_perf.hh"
#include "core/gpht_predictor.hh"
#include "core/system.hh"
#include "kernel/scheduler.hh"
#include "workload/spec2000.hh"
#include "test_util.hh"

namespace livephase
{
namespace
{

constexpr uint64_t SEED = 1;

TEST(ExtensionClaims, CoarserSamplingCostsAccuracyOnVariableCode)
{
    // 500M-uop samples average applu's sub-second phases away.
    const IntervalTrace applu =
        Spec2000Suite::byName("applu_in").makeTrace(300, SEED);

    auto accuracy_at = [&](uint64_t sample_uops) {
        System::Config cfg;
        cfg.kernel.sample_uops = sample_uops;
        const System system(cfg);
        return system
            .run(applu, makeGphtGovernor(DvfsTable::pentiumM()))
            .prediction_accuracy;
    };
    EXPECT_GT(accuracy_at(100'000'000), 0.85);
    EXPECT_LT(accuracy_at(500'000'000),
              accuracy_at(100'000'000) - 0.05);
}

TEST(ExtensionClaims, HandlerOverheadScalesInverselyWithGranularity)
{
    const IntervalTrace trace =
        Spec2000Suite::byName("crafty_in").makeTrace(50, SEED);
    auto handler_share = [&](uint64_t sample_uops) {
        System::Config cfg;
        cfg.kernel.sample_uops = sample_uops;
        const System system(cfg);
        const auto r = system.runBaseline(trace);
        return static_cast<double>(r.samples.size()) *
            cfg.kernel.handler_overhead_us * 1e-6 / r.exact.seconds;
    };
    const double fine = handler_share(10'000'000);
    const double deployed = handler_share(100'000'000);
    EXPECT_NEAR(fine / deployed, 10.0, 0.5);
    EXPECT_LT(deployed, 1e-4); // the paper's invisibility claim
}

TEST(ExtensionClaims, LargeTransitionCostsErodeTheBenefit)
{
    const IntervalTrace applu =
        Spec2000Suite::byName("applu_in").makeTrace(300, SEED);
    auto edp_at = [&](double transition_us) {
        System::Config cfg;
        cfg.core.transition_us = transition_us;
        const System system(cfg);
        return compareToBaseline(
                   system, applu,
                   []() {
                       return makeGphtGovernor(DvfsTable::pentiumM());
                   })
            .relative.edpImprovement();
    };
    const double cheap = edp_at(10.0);
    const double expensive = edp_at(20000.0);
    EXPECT_GT(cheap, 0.15);
    EXPECT_LT(expensive, cheap - 0.05);
    // 100 us (the paper's upper bound) is still essentially free.
    EXPECT_NEAR(edp_at(100.0), cheap, 0.01);
}

TEST(ExtensionClaims, GphrDepthKneeIsAtEight)
{
    // Averaged over three structurally different variable
    // benchmarks: depth 1 is crippled, depth 4 helps, the paper's
    // depth 8 disambiguates the longer runs (mgrid/bzip2).
    const PhaseClassifier classifier = PhaseClassifier::table1();
    auto average_at = [&](size_t depth) {
        double sum = 0.0;
        int n = 0;
        for (const char *name :
             {"applu_in", "mgrid_in", "bzip2_program"}) {
            const IntervalTrace trace =
                Spec2000Suite::byName(name).makeTrace(600, SEED);
            GphtPredictor gpht(depth, 128);
            sum += evaluatePredictor(trace, classifier, gpht)
                       .accuracy();
            ++n;
        }
        return sum / n;
    };
    const double d1 = average_at(1);
    const double d4 = average_at(4);
    const double d8 = average_at(8);
    EXPECT_LT(d1, d4 - 0.05);
    EXPECT_LT(d4, d8 - 0.02);
    EXPECT_GT(d8, 0.9);
}

TEST(ExtensionClaims, SetAssociativePhtMatchesFullAssocOnSpec)
{
    const PhaseClassifier classifier = PhaseClassifier::table1();
    for (const auto *bench : Spec2000Suite::variableSet()) {
        const IntervalTrace trace = bench->makeTrace(400, SEED);
        GphtPredictor full(8, 128);
        GphtPredictor hashed(8, 128, 32);
        const double full_acc =
            evaluatePredictor(trace, classifier, full).accuracy();
        const double hashed_acc =
            evaluatePredictor(trace, classifier, hashed).accuracy();
        EXPECT_GT(hashed_acc, full_acc - 0.03) << bench->name();
    }
}

TEST(ExtensionClaims, QuantumInterleavingDefeatsReactiveNotGpht)
{
    // The multiprogramming story: a merged stream alternating
    // phases every sample is worst-case for reactive management and
    // trivial for the GPHT.
    auto co_run = [](Governor governor) {
        Core core;
        PhaseKernelModule module(core, std::move(governor));
        module.load();
        Scheduler::Config cfg;
        cfg.quantum_uops = 100'000'000;
        Scheduler sched(core, cfg);
        sched.addTask(Spec2000Suite::byName("crafty_in")
                          .makeTrace(60, SEED));
        sched.addTask(Spec2000Suite::byName("swim_in")
                          .makeTrace(60, SEED));
        sched.runToCompletion();
        struct Out
        {
            double accuracy;
            PowerPerf perf;
        } out{module.log().predictionAccuracy(),
              PowerPerf{core.totals().instructions,
                        core.totals().seconds,
                        core.totals().joules}};
        module.unload();
        return out;
    };
    const auto baseline = co_run(makeBaselineGovernor());
    const auto reactive =
        co_run(makeReactiveGovernor(DvfsTable::pentiumM()));
    const auto gpht = co_run(makeGphtGovernor(DvfsTable::pentiumM()));

    EXPECT_LT(reactive.accuracy, 0.1);
    EXPECT_GT(gpht.accuracy, 0.9);
    const double reactive_edp_gain =
        1.0 - reactive.perf.edp() / baseline.perf.edp();
    const double gpht_edp_gain =
        1.0 - gpht.perf.edp() / baseline.perf.edp();
    EXPECT_GT(gpht_edp_gain, 0.2);
    EXPECT_GT(gpht_edp_gain, reactive_edp_gain + 0.2);
}

TEST(ExtensionClaims, BoundedGovernorComposesWithSystemHarness)
{
    const TimingModel timing;
    const System system;
    const IntervalTrace trace =
        Spec2000Suite::byName("equake_in").makeTrace(300, SEED);
    const auto result = compareToBaseline(
        system, trace, [&timing]() {
            return makeBoundedGovernor(timing, DvfsTable::pentiumM(),
                                       0.10);
        });
    EXPECT_LT(result.relative.perfDegradation(), 0.105);
    EXPECT_GT(result.relative.edpImprovement(), 0.0);
}

} // namespace
} // namespace livephase
