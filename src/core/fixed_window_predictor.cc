#include "core/fixed_window_predictor.hh"

#include <cmath>

#include "common/logging.hh"

namespace livephase
{

FixedWindowPredictor::FixedWindowPredictor(size_t window,
                                           Selector selector,
                                           double ewma_alpha)
    : win_size(window), sel(selector), alpha(ewma_alpha),
      ewma_value(0.0), ewma_seeded(false)
{
    if (win_size == 0)
        fatal("FixedWindowPredictor: window must be non-zero");
    if (alpha <= 0.0 || alpha > 1.0)
        fatal("FixedWindowPredictor: EWMA alpha %f outside (0, 1]",
              alpha);
}

void
FixedWindowPredictor::observe(const PhaseSample &sample)
{
    if (sample.phase < 0 || sample.phase > MAX_PHASES)
        panic("FixedWindowPredictor: phase %d outside 0..%d",
              sample.phase, MAX_PHASES);
    const auto phase = static_cast<size_t>(sample.phase);
    ++tallies[phase].count;
    tallies[phase].newest = ++observations;
    history.push_front(sample.phase);
    if (history.size() > win_size) {
        --tallies[static_cast<size_t>(history.back())].count;
        history.pop_back();
    }
    if (ewma_seeded) {
        ewma_value =
            alpha * static_cast<double>(sample.phase) +
            (1.0 - alpha) * ewma_value;
    } else {
        ewma_value = static_cast<double>(sample.phase);
        ewma_seeded = true;
    }
}

PhaseId
FixedWindowPredictor::predict() const
{
    if (history.empty())
        return INVALID_PHASE;
    switch (sel) {
      case Selector::Majority:
        return majorityVote();
      case Selector::Average:
        return roundedAverage();
      case Selector::Ewma:
        return static_cast<PhaseId>(std::lround(ewma_value));
    }
    panic("FixedWindowPredictor: unhandled selector");
}

void
FixedWindowPredictor::reset()
{
    history.clear();
    tallies = {};
    observations = 0;
    ewma_value = 0.0;
    ewma_seeded = false;
}

std::string
FixedWindowPredictor::name() const
{
    const char *tag = sel == Selector::Majority ? ""
        : sel == Selector::Average ? "_avg" : "_ewma";
    return "FixWindow_" + std::to_string(win_size) + tag;
}

PhaseId
FixedWindowPredictor::majorityVote() const
{
    // The most frequent phase; ties resolve to the one seen most
    // recently.
    size_t best = 0;
    for (size_t p = 1; p < tallies.size(); ++p) {
        const Tally &t = tallies[p];
        if (t.count > tallies[best].count ||
            (t.count == tallies[best].count &&
             t.newest > tallies[best].newest))
            best = p;
    }
    return static_cast<PhaseId>(best);
}

PhaseId
FixedWindowPredictor::roundedAverage() const
{
    double sum = 0.0;
    for (PhaseId p : history)
        sum += static_cast<double>(p);
    return static_cast<PhaseId>(
        std::lround(sum / static_cast<double>(history.size())));
}

} // namespace livephase
