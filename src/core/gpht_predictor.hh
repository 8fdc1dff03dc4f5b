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
 *  2. the GPHR is looked up among the valid PHT tags;
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
 * entry PHT may be undesirable" and deploys 128 entries. Here no
 * step searches: the GPHR is packed into one 64-bit word (4 bits per
 * phase, so depth <= 16 and phases 0..15), and one open-addressed
 * index maps each valid tag straight to its PHT slot. The table can
 * also be split into `sets` buckets of `ways` entries: the GPHR
 * hashes to one set and competes only with that set's ways for
 * residency (LRU within the set, kept as an intrusive list), at the
 * price of conflict misses. `sets == 1` is the paper's fully
 * associative table and skips the hash. Every step is O(1) in both
 * the table size and the geometry.
 */

#ifndef LIVEPHASE_CORE_GPHT_PREDICTOR_HH
#define LIVEPHASE_CORE_GPHT_PREDICTOR_HH

#include <cstdint>
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
    /** Bits per phase in the packed GPHR and PHT tags. */
    static constexpr unsigned PHASE_BITS = 4;
    /** Largest phase id a tag can hold. */
    static constexpr PhaseId MAX_PHASE = (1 << PHASE_BITS) - 1;
    /** Deepest GPHR a 64-bit tag can hold. */
    static constexpr size_t MAX_DEPTH = 64 / PHASE_BITS;
    /** Largest PHT whose slots and index buckets 16 bits address. */
    static constexpr size_t MAX_ENTRIES = size_t(1) << 15;

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
     *                    when 0 or above MAX_DEPTH.
     * @param pht_entries table capacity (1024 evaluated, 128
     *                    deployed); fatal() when 0 or above
     *                    MAX_ENTRIES.
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

    /** Entries per set (phtEntries() / sets()). */
    size_t ways() const { return num_ways; }

    /** Number of currently valid PHT entries. */
    size_t phtOccupancy() const;

    /** Lookup statistics since construction/reset. */
    const Stats &stats() const { return counters; }

    /** Current GPHR contents, newest first (for logs/inspection). */
    std::vector<PhaseId> gphrContents() const;

  private:
    /** One PHT row. Rows of a set are filled in index order and,
     *  once valid, sit on the set's LRU list until reset(). */
    struct Slot
    {
        uint64_t tag;        ///< packed GPHR the row was installed for
        uint16_t prev, next; ///< LRU neighbours in the set, or NIL
        uint16_t bucket;     ///< where the index holds this slot
        uint8_t prediction;  ///< phase that followed it last time
    };

    /** The LRU list ends and fill count of one set. */
    struct SetLru
    {
        uint16_t head; ///< most recently used slot, or NIL
        uint16_t tail; ///< least recently used slot, or NIL
        uint16_t fill; ///< valid ways (the next free way's offset)
    };

    static constexpr uint16_t NIL = 0xFFFF;

    /** Set the current GPHR maps to (FNV-1a over its phases). */
    size_t setOf() const;

    /** Home bucket of a tag in the index. */
    size_t home(uint64_t tag) const;

    /** Empty the index bucket `hole` (backward-shift deletion, so
     *  probe chains never need tombstones). */
    void unindex(size_t hole);

    /** Make slot the set's most recently used entry, unlinking it
     *  first when it is already on the list. */
    void moveToFront(SetLru &set, uint16_t slot, bool linked);

    size_t depth;
    size_t capacity;
    size_t num_sets;
    size_t num_ways;
    uint64_t gphr; ///< PHASE_BITS per phase, newest lowest
    size_t gphr_fill;
    std::vector<Slot> pht;
    std::vector<SetLru> lru;
    /** Open-addressed tag -> slot + 1 (0 = empty), a power of two
     *  at least twice the capacity. */
    std::vector<uint16_t> index;
    uint16_t pending_train; ///< slot awaiting next-phase training
    PhaseId current_prediction;
    Stats counters;
};

} // namespace livephase

#endif // LIVEPHASE_CORE_GPHT_PREDICTOR_HH
