/**
 * @file
 * Classification of the Mem/Uop metric into phases.
 *
 * The classifier is a sorted list of upper boundaries: a metric value
 * m falls into phase k when boundaries[k-2] <= m < boundaries[k-1]
 * (with open ends below the first and above the last boundary). The
 * default boundaries are the paper's Table 1:
 *
 *     < 0.005          -> phase 1 (highly CPU-bound)
 *     [0.005, 0.010)   -> phase 2
 *     [0.010, 0.015)   -> phase 3
 *     [0.015, 0.020)   -> phase 4
 *     [0.020, 0.030)   -> phase 5
 *     >= 0.030         -> phase 6 (highly memory-bound)
 *
 * Section 6.3's conservative, performance-bounded management simply
 * swaps in a different boundary set (see DvfsPolicy::deriveBounded),
 * which is why boundaries are data, not code.
 */

#ifndef LIVEPHASE_CORE_PHASE_CLASSIFIER_HH
#define LIVEPHASE_CORE_PHASE_CLASSIFIER_HH

#include <vector>

#include "core/phase.hh"

namespace livephase
{

/**
 * Maps a Mem/Uop value to a phase id via configurable boundaries.
 */
class PhaseClassifier
{
  public:
    /**
     * @param upper_boundaries strictly increasing, non-negative
     *        phase upper bounds; N boundaries define N+1 phases.
     *        fatal() when empty, not strictly increasing, or
     *        defining more than MAX_PHASES phases.
     */
    explicit PhaseClassifier(std::vector<double> upper_boundaries);

    /** The paper's Table 1 classifier (6 phases). */
    static PhaseClassifier table1();

    /** Number of phase classes (boundaries + 1). */
    int numPhases() const;

    /** Classify a Mem/Uop value. @pre mem_per_uop >= 0 */
    PhaseId classify(double mem_per_uop) const;

    /** Classify into a full sample (phase + raw metric). */
    PhaseSample sample(double mem_per_uop) const;

    /**
     * Representative Mem/Uop value inside a phase's range: the
     * midpoint for interior phases, and a point just past the last
     * boundary for the open-ended top phase. Used when deriving
     * policies from phase ids.
     */
    double representativeMetric(PhaseId phase) const;

    /** The boundary values (upper bounds of phases 1..N-1). */
    const std::vector<double> &boundaries() const { return bounds; }

  private:
    std::vector<double> bounds;
};

} // namespace livephase

#endif // LIVEPHASE_CORE_PHASE_CLASSIFIER_HH
