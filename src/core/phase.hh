/**
 * @file
 * Phase identifiers and per-sample observations.
 *
 * A phase is a small integer class label (1..N, paper Table 1 uses
 * N = 6) assigned to each fixed-instruction-granularity sample of
 * execution. Phase 1 is highly CPU-bound, phase N highly
 * memory-bound.
 */

#ifndef LIVEPHASE_CORE_PHASE_HH
#define LIVEPHASE_CORE_PHASE_HH

#include <string>

namespace livephase
{

/** A phase class label; valid phases are 1-based. */
using PhaseId = int;

/** Sentinel for "no phase observed yet". */
constexpr PhaseId INVALID_PHASE = 0;

/** Number of phase classes in the paper's Table 1. */
constexpr int DEFAULT_NUM_PHASES = 6;

/** Most phase classes a classifier may define: the GPHT packs each
 *  phase id, INVALID_PHASE included, into 4 bits. */
constexpr int MAX_PHASES = 15;

/**
 * One monitored sample: the classified phase plus the raw metric it
 * was classified from (Mem/Uop). Statistical predictors that detect
 * transitions via metric deltas (the paper's variable-window
 * predictor) need the raw value, not just the class.
 */
struct PhaseSample
{
    PhaseId phase = INVALID_PHASE;
    double metric = 0.0; ///< Mem/Uop for this sample

    bool operator==(const PhaseSample &other) const = default;
};

/** "phase 3" (or "invalid") for logs. */
std::string phaseName(PhaseId phase);

} // namespace livephase

#endif // LIVEPHASE_CORE_PHASE_HH
