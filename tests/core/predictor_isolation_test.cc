/**
 * @file
 * Predictor state-isolation tests backing the multi-session service:
 * two instances fed interleaved streams must behave exactly like two
 * sequential single-stream runs, and clone() must produce a deep,
 * independent copy (mid-stream continuation and clone()->reset() ==
 * fresh instance).
 */

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/confidence_predictor.hh"
#include "core/fixed_window_predictor.hh"
#include "core/gpht_predictor.hh"
#include "core/last_value_predictor.hh"
#include "core/markov_predictor.hh"
#include "core/run_length_predictor.hh"
#include "core/variable_window_predictor.hh"

using namespace livephase;

namespace
{

struct Factory
{
    const char *label;
    std::function<PredictorPtr()> make;
};

std::vector<Factory>
allFactories()
{
    return {
        {"lastvalue",
         [] { return std::make_unique<LastValuePredictor>(); }},
        {"fixedwindow",
         [] { return std::make_unique<FixedWindowPredictor>(8); }},
        {"varwindow",
         [] {
             return std::make_unique<VariableWindowPredictor>(
                 64, 0.005);
         }},
        {"gpht",
         [] { return std::make_unique<GphtPredictor>(8, 128); }},
        {"setassoc",
         [] {
             return std::make_unique<GphtPredictor>(8, 128, 32);
         }},
        {"markov",
         [] { return std::make_unique<MarkovPredictor>(); }},
        {"runlength",
         [] { return std::make_unique<RunLengthPredictor>(); }},
        {"confidence",
         [] {
             return std::make_unique<ConfidenceGatedPredictor>(
                 std::make_unique<GphtPredictor>(8, 128));
         }},
    };
}

/** Phased sample stream with per-seed shape (phases 1..6). */
std::vector<PhaseSample>
makeStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<PhaseSample> stream;
    stream.reserve(n);
    const int period = 3 + static_cast<int>(seed % 5);
    for (size_t i = 0; i < n; ++i) {
        PhaseId phase = static_cast<PhaseId>(
            1 + (i / period + seed) % DEFAULT_NUM_PHASES);
        if (rng.chance(0.1)) // occasional noise transitions
            phase = static_cast<PhaseId>(rng.uniformInt(1, 6));
        stream.push_back(
            {phase, 0.005 * static_cast<double>(phase)});
    }
    return stream;
}

/** observe/predict the whole stream on one instance. */
std::vector<PhaseId>
run(PhasePredictor &pred, const std::vector<PhaseSample> &stream)
{
    std::vector<PhaseId> out;
    out.reserve(stream.size());
    for (const PhaseSample &sample : stream) {
        pred.observe(sample);
        out.push_back(pred.predict());
    }
    return out;
}

TEST(PredictorIsolation, InterleavedStreamsMatchSequentialRuns)
{
    for (const Factory &factory : allFactories()) {
        const auto stream_a = makeStream(17, 256);
        const auto stream_b = makeStream(99, 256);

        // Reference: each stream through its own fresh instance.
        PredictorPtr ref_a = factory.make();
        PredictorPtr ref_b = factory.make();
        const auto expect_a = run(*ref_a, stream_a);
        const auto expect_b = run(*ref_b, stream_b);

        // Interleave the two streams across two live instances,
        // alternating in uneven bursts, as concurrent sessions do.
        PredictorPtr a = factory.make();
        PredictorPtr b = factory.make();
        std::vector<PhaseId> got_a, got_b;
        Rng rng(5);
        size_t at_a = 0, at_b = 0;
        while (at_a < stream_a.size() || at_b < stream_b.size()) {
            size_t burst = static_cast<size_t>(rng.uniformInt(1, 9));
            for (; burst && at_a < stream_a.size(); --burst) {
                a->observe(stream_a[at_a++]);
                got_a.push_back(a->predict());
            }
            burst = static_cast<size_t>(rng.uniformInt(1, 9));
            for (; burst && at_b < stream_b.size(); --burst) {
                b->observe(stream_b[at_b++]);
                got_b.push_back(b->predict());
            }
        }

        EXPECT_EQ(got_a, expect_a) << factory.label;
        EXPECT_EQ(got_b, expect_b) << factory.label;
    }
}

TEST(PredictorIsolation, CloneContinuesIdentically)
{
    for (const Factory &factory : allFactories()) {
        const auto stream = makeStream(31, 200);
        const size_t split = 80;

        PredictorPtr original = factory.make();
        for (size_t i = 0; i < split; ++i)
            original->observe(stream[i]);

        // The clone carries the learned state forward...
        PredictorPtr copy = original->clone();
        EXPECT_EQ(copy->name(), original->name()) << factory.label;
        EXPECT_EQ(copy->predict(), original->predict())
            << factory.label;

        std::vector<PhaseId> from_original, from_copy;
        for (size_t i = split; i < stream.size(); ++i) {
            original->observe(stream[i]);
            from_original.push_back(original->predict());
        }
        for (size_t i = split; i < stream.size(); ++i) {
            copy->observe(stream[i]);
            from_copy.push_back(copy->predict());
        }
        EXPECT_EQ(from_copy, from_original) << factory.label;
    }
}

TEST(PredictorIsolation, CloneIsIndependentOfOriginal)
{
    for (const Factory &factory : allFactories()) {
        const auto stream_a = makeStream(7, 150);
        const auto stream_b = makeStream(8, 150);

        PredictorPtr original = factory.make();
        PredictorPtr copy = original->clone();

        // Divergent training must not leak across the copy.
        const auto got_a = run(*original, stream_a);
        const auto got_b = run(*copy, stream_b);

        PredictorPtr ref_b = factory.make();
        EXPECT_EQ(got_b, run(*ref_b, stream_b)) << factory.label;
        PredictorPtr ref_a = factory.make();
        EXPECT_EQ(got_a, run(*ref_a, stream_a)) << factory.label;
    }
}

TEST(PredictorIsolation, CloneThenResetMatchesFreshInstance)
{
    for (const Factory &factory : allFactories()) {
        const auto train = makeStream(3, 120);
        const auto probe = makeStream(4, 120);

        PredictorPtr trained = factory.make();
        run(*trained, train);

        PredictorPtr recycled = trained->clone();
        recycled->reset();

        PredictorPtr fresh = factory.make();
        EXPECT_EQ(run(*recycled, probe), run(*fresh, probe))
            << factory.label;
    }
}

} // namespace
