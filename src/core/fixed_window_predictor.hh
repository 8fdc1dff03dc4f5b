/**
 * @file
 * Fixed-history-window phase predictor.
 *
 * Section 3's generalization of last-value: the prediction is
 * f(Phase[t], ..., Phase[t - winsize + 1]) for a fixed window. The
 * paper lists several candidate f(): a population-count selector, an
 * averaging function and an exponential moving average — all three
 * are provided here. Figure 4's "FixWindow_8" / "FixWindow_128" use
 * the majority (population-count) selector.
 */

#ifndef LIVEPHASE_CORE_FIXED_WINDOW_PREDICTOR_HH
#define LIVEPHASE_CORE_FIXED_WINDOW_PREDICTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "core/predictor.hh"

namespace livephase
{

/**
 * Predicts from the last `window` observations via a selector.
 */
class FixedWindowPredictor : public PhasePredictor
{
  public:
    /** Combining function over the history window. */
    enum class Selector
    {
        Majority, ///< most frequent phase (ties -> most recent)
        Average,  ///< rounded arithmetic mean of phase ids
        Ewma      ///< exponential moving average of phase ids
    };

    /**
     * @param window   history length; fatal() when 0.
     * @param selector combining function (default: majority).
     * @param ewma_alpha smoothing factor in (0, 1] for Selector::Ewma.
     */
    explicit FixedWindowPredictor(size_t window,
                                  Selector selector = Selector::Majority,
                                  double ewma_alpha = 0.25);

    void observe(const PhaseSample &sample) override;
    PhaseId predict() const override;
    void reset() override;
    std::string name() const override;

    PredictorPtr clone() const override
    {
        return std::make_unique<FixedWindowPredictor>(*this);
    }

    /** The configured window length. */
    size_t window() const { return win_size; }

    /** Number of observations currently held (<= window()). */
    size_t occupancy() const { return history.size(); }

  private:
    PhaseId majorityVote() const;
    PhaseId roundedAverage() const;

    size_t win_size;
    Selector sel;
    double alpha;
    std::deque<PhaseId> history; ///< most recent at front
    /** One phase id's share of the window, kept as phases enter and
     *  leave it so a majority vote needs no per-predict map. */
    struct Tally
    {
        size_t count = 0;    ///< occurrences in the window
        uint64_t newest = 0; ///< observation number of the newest
    };
    std::array<Tally, MAX_PHASES + 1> tallies{}; ///< by phase id
    uint64_t observations = 0;
    double ewma_value;
    bool ewma_seeded;
};

} // namespace livephase

#endif // LIVEPHASE_CORE_FIXED_WINDOW_PREDICTOR_HH
