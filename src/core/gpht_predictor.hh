/**
 * @file
 * Global Phase History Table (GPHT) predictor — the paper's core
 * contribution (Section 3, Figure 1).
 *
 * Structurally a software analogue of a global two-level branch
 * predictor (Yeh & Patt): a Global Phase History Register (GPHR)
 * shift register holds the last `depth` observed phases; its contents
 * associatively index a Pattern History Table (PHT) whose entries
 * store previously seen phase patterns together with the phase that
 * followed them ("next phase" prediction).
 *
 * Per sampling period (driven from the PMI handler):
 *  1. the phase observed for the ending period is shifted into the
 *     GPHR;
 *  2. the GPHR is compared against all valid PHT tags;
 *  3. on a match the stored prediction is used, and that entry is
 *     re-trained next period with the phase that actually follows;
 *  4. on a mismatch the predictor falls back to last-value
 *     (GPHR[0]) and installs the current GPHR into the PHT, evicting
 *     the least-recently-used entry when the table is full.
 *
 * The fall-back guarantees the GPHT never does worse than the
 * last-value predictor on pattern-free workloads, while repetitive
 * phase patterns (loops) are captured exactly.
 *
 * Section 3.2 warns that "associatively searching through a 1024
 * entry PHT may be undesirable" and deploys 128 entries. The table
 * can also be split into `sets` buckets of `ways` entries: the GPHR
 * hashes to one set and only that set's ways are searched (LRU
 * within the set), bounding the lookup at O(ways) for any capacity
 * at the price of conflict misses. `sets == 1` is the paper's fully
 * associative table and skips the hash.
 */

#ifndef LIVEPHASE_CORE_GPHT_PREDICTOR_HH
#define LIVEPHASE_CORE_GPHT_PREDICTOR_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/predictor.hh"

namespace livephase
{

/**
 * Pattern-based phase predictor with last-value fallback.
 */
class GphtPredictor : public PhasePredictor
{
  public:
    /** Aggregate lookup statistics, for evaluation and tests. */
    struct Stats
    {
        uint64_t lookups = 0;      ///< PHT lookups (GPHR full)
        uint64_t hits = 0;         ///< tag matches
        uint64_t insertions = 0;   ///< entries installed on miss
        uint64_t replacements = 0; ///< insertions that evicted LRU
    };

    /**
     * @param gphr_depth  history length (paper default 8); fatal()
     *                    when 0.
     * @param pht_entries table capacity (1024 evaluated, 128
     *                    deployed); fatal() when 0.
     * @param sets        hash buckets of pht_entries / sets ways
     *                    each (1 = fully associative); fatal() when
     *                    0 or when it does not divide pht_entries.
     */
    GphtPredictor(size_t gphr_depth, size_t pht_entries,
                  size_t sets = 1);

    void observe(const PhaseSample &sample) override;
    PhaseId predict() const override;
    void observeAndPredictBatch(std::span<const PhaseSample> samples,
                                std::span<PhaseId> predictions)
        override;
    void reset() override;
    std::string name() const override;

    PredictorPtr clone() const override
    {
        return std::make_unique<GphtPredictor>(*this);
    }

    /** Configured GPHR depth. */
    size_t gphrDepth() const { return depth; }

    /** Configured PHT capacity. */
    size_t phtEntries() const { return capacity; }

    /** Number of hash buckets (1 = fully associative). */
    size_t sets() const { return num_sets; }

    /** Entries searched per lookup (phtEntries() / sets()). */
    size_t ways() const { return num_ways; }

    /** Number of currently valid PHT entries. */
    size_t phtOccupancy() const;

    /** Lookup statistics since construction/reset. */
    const Stats &stats() const { return counters; }

    /** Current GPHR contents, newest first (for logs/inspection). */
    std::vector<PhaseId> gphrContents() const;

    /**
     * Serialize the learned state (GPHR + PHT + LRU ordering) to a
     * text stream, so a deployed module can warm-start the
     * predictor across unload/reload instead of relearning every
     * pattern ("reconfiguration after system deployment, with
     * minimal intrusion" — paper Section 6.3).
     */
    void saveState(std::ostream &os) const;

    /**
     * Restore state saved by saveState(). fatal() when the stream
     * is malformed or was saved from a predictor with different
     * (depth, entries, sets) geometry.
     */
    void loadState(std::istream &is);

  private:
    /** One PHT row: tag, prediction, LRU age (-1 = invalid). */
    struct PhtEntry
    {
        std::vector<PhaseId> tag;
        PhaseId prediction = INVALID_PHASE;
        int64_t age = -1;
    };

    /** Non-virtual observe() body, the unit the batched loop
     *  iterates without per-step dispatch. */
    void step(const PhaseSample &sample);

    /** First PHT index of the set the current GPHR maps to. */
    size_t setBase() const;

    /** Index of the matching valid entry in the set, or -1. */
    int lookup(size_t base) const;

    /** Index of the entry in the set to (re)fill: first invalid,
     *  else LRU. */
    int victimIndex(size_t base);

    size_t depth;
    size_t capacity;
    size_t num_sets;
    size_t num_ways;
    std::vector<PhaseId> gphr; ///< gphr[0] = most recent
    size_t gphr_fill;
    std::vector<PhtEntry> pht;
    int64_t lru_clock;
    int pending_train; ///< PHT index awaiting next-phase training
    PhaseId current_prediction;
    Stats counters;
};

} // namespace livephase

#endif // LIVEPHASE_CORE_GPHT_PREDICTOR_HH
