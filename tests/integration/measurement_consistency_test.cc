/**
 * @file
 * Cross-subsystem consistency checks: the DAQ measurement chain,
 * the kernel log and the simulator's exact accounting must all tell
 * one coherent story — as the paper's platform does when the DAQ,
 * the parallel port and the LKM agree on per-phase power.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/gpht_predictor.hh"
#include "core/system.hh"
#include "workload/spec2000.hh"
#include "test_util.hh"

namespace livephase
{
namespace
{

System::Config
daqConfig()
{
    System::Config cfg;
    cfg.use_daq = true;
    return cfg;
}

TEST(MeasurementConsistency, PhaseWindowEnergySumsToAppEnergy)
{
    const System system(daqConfig());
    const IntervalTrace trace =
        Spec2000Suite::byName("mgrid_in").makeTrace(40, 1);
    const auto run = system.runBaseline(trace);
    const double window_joules = std::accumulate(
        run.phase_power.begin(), run.phase_power.end(), 0.0,
        [](double acc, const LoggingMachine::PhasePower &w) {
            return acc + w.joules;
        });
    EXPECT_NEAR(window_joules, run.measured.joules,
                run.measured.joules * 0.01);
}

TEST(MeasurementConsistency, DaqWindowsAlignWithKernelLogPeriods)
{
    const System system(daqConfig());
    const IntervalTrace trace =
        Spec2000Suite::byName("swim_in").makeTrace(30, 1);
    const auto run = system.runBaseline(trace);
    // One DAQ window per kernel-log sample (within edge effects of
    // one window at the end of the run).
    EXPECT_NEAR(static_cast<double>(run.phase_power.size()),
                static_cast<double>(run.samples.size()), 1.0);
    // And window durations match the log's period durations at the
    // 40 us sampling quantization.
    const size_t n =
        std::min(run.phase_power.size(), run.samples.size());
    for (size_t i = 1; i + 1 < n; ++i) {
        const double log_duration =
            run.samples[i].t_end - run.samples[i].t_start;
        EXPECT_NEAR(run.phase_power[i].seconds(), log_duration,
                    log_duration * 0.02 + 2e-4)
            << "sample " << i;
    }
}

TEST(MeasurementConsistency, PerPhasePowerTracksPhaseIdentity)
{
    // Alternating hot/cool samples: the DAQ's per-window watts must
    // alternate in lockstep with the kernel log's phase ids.
    IntervalTrace trace("alternating");
    for (int i = 0; i < 20; ++i) {
        Interval ivl;
        ivl.uops = 100e6;
        ivl.mem_per_uop = i % 2 == 0 ? 0.001 : 0.05;
        ivl.core_ipc = i % 2 == 0 ? 1.8 : 0.9;
        trace.append(ivl);
    }
    const System system(daqConfig());
    const auto run = system.runBaseline(trace);
    const size_t n =
        std::min(run.phase_power.size(), run.samples.size());
    ASSERT_GT(n, 10u);
    for (size_t i = 0; i + 1 < n; ++i) {
        const bool hot = run.samples[i].actual_phase == 1;
        const bool hotter_than_next = run.phase_power[i].watts() >
            run.phase_power[i + 1].watts();
        EXPECT_EQ(hot, hotter_than_next) << "sample " << i;
    }
}

TEST(MeasurementConsistency, LoggedFrequencyMatchesAppliedSetting)
{
    const System system;
    const IntervalTrace trace =
        Spec2000Suite::byName("swim_in").makeTrace(20, 1);
    const auto run =
        system.run(trace, makeGphtGovernor(DvfsTable::pentiumM()));
    const DvfsTable &table = DvfsTable::pentiumM();
    for (size_t i = 1; i < run.samples.size(); ++i) {
        // Sample i ran at the setting applied at sample i-1.
        const double expected =
            table.at(run.samples[i - 1].dvfs_index).freq_mhz;
        EXPECT_NEAR(run.samples[i].freq_mhz, expected,
                    expected * 0.01)
            << "sample " << i;
    }
}

TEST(MeasurementConsistency, DecisionHookOverridesPolicy)
{
    Core core;
    PhaseKernelModule::Config cfg;
    cfg.sample_uops = 10'000'000;
    PhaseKernelModule module(
        core, makeGphtGovernor(core.dvfs().table()), cfg);
    // Force everything to 1000 MHz regardless of the policy.
    module.setDecisionHook(
        [](PhaseId, size_t) -> size_t { return 3; });
    module.load();
    Interval ivl;
    ivl.uops = 100e6;
    ivl.mem_per_uop = 0.05; // policy alone would pick 600 MHz
    core.execute(ivl);
    EXPECT_EQ(core.dvfs().currentIndex(), 3u);
    // Clearing the hook restores pure policy behaviour.
    module.setDecisionHook(nullptr);
    core.execute(ivl);
    EXPECT_EQ(core.dvfs().currentIndex(), 5u);
}

TEST(MeasurementConsistency, OutOfRangeHookDecisionPanics)
{
    Core core;
    PhaseKernelModule::Config cfg;
    cfg.sample_uops = 10'000'000;
    PhaseKernelModule module(
        core, makeGphtGovernor(core.dvfs().table()), cfg);
    module.setDecisionHook(
        [](PhaseId, size_t) -> size_t { return 99; });
    module.load();
    Interval ivl;
    ivl.uops = 20e6;
    ivl.mem_per_uop = 0.05;
    EXPECT_FAILURE(core.execute(ivl));
}

TEST(MeasurementConsistency, CustomPredictorGovernorThroughSystem)
{
    // The Governor abstraction accepts any PhasePredictor — run the
    // set-associative GPHT through the full System harness.
    PhaseClassifier classifier = PhaseClassifier::table1();
    DvfsPolicy policy =
        DvfsPolicy::table2(classifier, DvfsTable::pentiumM());
    Governor governor(
        "gpht-sa", std::move(classifier),
        std::make_unique<GphtPredictor>(8, 128, 32),
        std::move(policy), true);
    const System system;
    const IntervalTrace trace =
        Spec2000Suite::byName("applu_in").makeTrace(300, 1);
    const auto run = system.run(trace, std::move(governor));
    EXPECT_GT(run.prediction_accuracy, 0.85);
    EXPECT_GT(run.dvfs_transitions, 0u);
}

} // namespace
} // namespace livephase
