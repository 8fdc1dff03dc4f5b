#include "core/phase_classifier.hh"

#include <algorithm>

#include "common/logging.hh"

namespace livephase
{

PhaseClassifier::PhaseClassifier(std::vector<double> upper_boundaries)
    : bounds(std::move(upper_boundaries))
{
    if (bounds.empty())
        fatal("PhaseClassifier requires at least one boundary");
    if (bounds.size() >= MAX_PHASES)
        fatal("PhaseClassifier: %zu boundaries define more than %d "
              "phases", bounds.size(), MAX_PHASES);
    for (size_t i = 0; i < bounds.size(); ++i) {
        if (bounds[i] < 0.0)
            fatal("PhaseClassifier boundary %zu is negative (%f)", i,
                  bounds[i]);
        if (i > 0 && bounds[i] <= bounds[i - 1])
            fatal("PhaseClassifier boundaries must be strictly "
                  "increasing (%f then %f)", bounds[i - 1], bounds[i]);
    }
}

PhaseClassifier
PhaseClassifier::table1()
{
    return PhaseClassifier({0.005, 0.010, 0.015, 0.020, 0.030});
}

int
PhaseClassifier::numPhases() const
{
    return static_cast<int>(bounds.size()) + 1;
}

PhaseId
PhaseClassifier::classify(double mem_per_uop) const
{
    if (mem_per_uop < 0.0)
        panic("PhaseClassifier::classify: negative Mem/Uop %f",
              mem_per_uop);
    const auto it =
        std::upper_bound(bounds.begin(), bounds.end(), mem_per_uop);
    return static_cast<PhaseId>(it - bounds.begin()) + 1;
}

PhaseSample
PhaseClassifier::sample(double mem_per_uop) const
{
    return PhaseSample{classify(mem_per_uop), mem_per_uop};
}

double
PhaseClassifier::representativeMetric(PhaseId phase) const
{
    if (phase < 1 || phase > numPhases())
        panic("PhaseClassifier::representativeMetric: phase %d out of "
              "1..%d", phase, numPhases());
    const size_t k = static_cast<size_t>(phase);
    const double lo = phase == 1 ? 0.0 : bounds[k - 2];
    if (phase == numPhases()) {
        // Open-ended top phase: a point comfortably above the last
        // boundary (50% past it).
        return bounds.back() * 1.5;
    }
    const double hi = bounds[k - 1];
    return 0.5 * (lo + hi);
}

} // namespace livephase
