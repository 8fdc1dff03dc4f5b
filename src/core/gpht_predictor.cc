#include "core/gpht_predictor.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace livephase
{

GphtPredictor::GphtPredictor(size_t gphr_depth, size_t pht_entries,
                             size_t sets)
    : depth(gphr_depth), capacity(pht_entries), num_sets(sets)
{
    if (depth == 0)
        fatal("GphtPredictor: GPHR depth must be non-zero");
    if (capacity == 0)
        fatal("GphtPredictor: PHT must have at least one entry");
    if (num_sets == 0 || capacity % num_sets != 0)
        fatal("GphtPredictor: %zu PHT entries do not split into %zu "
              "sets", capacity, num_sets);
    num_ways = capacity / num_sets;
    gphr.assign(depth, INVALID_PHASE);
    pht.assign(capacity, PhtEntry{});
    gphr_fill = 0;
    lru_clock = 0;
    pending_train = -1;
    current_prediction = INVALID_PHASE;
}

void
GphtPredictor::observe(const PhaseSample &sample)
{
    step(sample);
}

void
GphtPredictor::observeAndPredictBatch(
    std::span<const PhaseSample> samples,
    std::span<PhaseId> predictions)
{
    if (samples.size() != predictions.size())
        fatal("GPHT batch: %zu samples vs %zu slots",
              samples.size(), predictions.size());
    for (size_t i = 0; i < samples.size(); ++i) {
        step(samples[i]);
        predictions[i] = current_prediction;
    }
}

void
GphtPredictor::step(const PhaseSample &sample)
{
    // 1. Train the entry consulted (or installed) last period with
    //    the phase that actually followed its pattern.
    if (pending_train >= 0)
        pht[static_cast<size_t>(pending_train)].prediction =
            sample.phase;
    pending_train = -1;

    // 2. Shift the observed phase into the GPHR.
    for (size_t i = depth - 1; i > 0; --i)
        gphr[i] = gphr[i - 1];
    gphr[0] = sample.phase;
    if (gphr_fill < depth)
        ++gphr_fill;

    // 3. Until the GPHR holds a full pattern there is nothing to
    //    index the PHT with: behave as last-value.
    if (gphr_fill < depth) {
        current_prediction = gphr[0];
        return;
    }

    // 4. Associative lookup in the GPHR's set.
    ++counters.lookups;
    const size_t base = setBase();
    const int hit = lookup(base);
    if (hit >= 0) {
        ++counters.hits;
        PhtEntry &entry = pht[static_cast<size_t>(hit)];
        entry.age = ++lru_clock;
        // An entry installed on a miss has not been trained yet; its
        // prediction is invalid until its pattern recurs after one
        // training step. Fall back to last-value in that window.
        current_prediction = entry.prediction != INVALID_PHASE
            ? entry.prediction : gphr[0];
        pending_train = hit;
        return;
    }

    // 5. Miss: predict last value and install the current pattern.
    current_prediction = gphr[0];
    const int victim = victimIndex(base);
    PhtEntry &entry = pht[static_cast<size_t>(victim)];
    if (entry.age >= 0)
        ++counters.replacements;
    ++counters.insertions;
    entry.tag = gphr;
    entry.prediction = INVALID_PHASE;
    entry.age = ++lru_clock;
    pending_train = victim;
}

PhaseId
GphtPredictor::predict() const
{
    return current_prediction;
}

void
GphtPredictor::reset()
{
    std::fill(gphr.begin(), gphr.end(), INVALID_PHASE);
    gphr_fill = 0;
    for (auto &entry : pht)
        entry = PhtEntry{};
    lru_clock = 0;
    pending_train = -1;
    current_prediction = INVALID_PHASE;
    counters = Stats{};
}

std::string
GphtPredictor::name() const
{
    if (num_sets == 1)
        return "GPHT_" + std::to_string(depth) + "_" +
            std::to_string(capacity);
    return "GPHTsa_" + std::to_string(depth) + "_" +
        std::to_string(num_sets) + "x" + std::to_string(num_ways);
}

size_t
GphtPredictor::phtOccupancy() const
{
    size_t valid = 0;
    for (const auto &entry : pht)
        if (entry.age >= 0)
            ++valid;
    return valid;
}

std::vector<PhaseId>
GphtPredictor::gphrContents() const
{
    return gphr;
}

void
GphtPredictor::saveState(std::ostream &os) const
{
    os << "GPHT-STATE 1\n";
    // A fully associative table omits the set count, so states saved
    // before the table had sets still load.
    os << depth << ' ' << capacity;
    if (num_sets != 1)
        os << ' ' << num_sets;
    os << '\n';
    os << gphr_fill << ' ' << lru_clock << ' ' << pending_train
       << ' ' << current_prediction << '\n';
    for (PhaseId p : gphr)
        os << p << ' ';
    os << '\n';
    for (const PhtEntry &entry : pht) {
        os << entry.age << ' ' << entry.prediction;
        if (entry.age >= 0) {
            // Tags of invalid entries are empty; only valid ones
            // carry depth phases.
            for (PhaseId p : entry.tag)
                os << ' ' << p;
        }
        os << '\n';
    }
}

void
GphtPredictor::loadState(std::istream &is)
{
    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != "GPHT-STATE" ||
        version != 1) {
        fatal("GphtPredictor::loadState: bad header");
    }
    std::string geometry;
    std::getline(is >> std::ws, geometry);
    std::istringstream fields(geometry);
    size_t saved_depth = 0, saved_capacity = 0, saved_sets = 1;
    if (!(fields >> saved_depth >> saved_capacity))
        fatal("GphtPredictor::loadState: truncated geometry");
    if (!(fields >> saved_sets))
        saved_sets = 1;
    if (saved_depth != depth || saved_capacity != capacity ||
        saved_sets != num_sets)
        fatal("GphtPredictor::loadState: geometry mismatch "
              "(saved %zux%zu/%zu, this %zux%zu/%zu)", saved_depth,
              saved_capacity, saved_sets, depth, capacity, num_sets);
    if (!(is >> gphr_fill >> lru_clock >> pending_train >>
          current_prediction) ||
        gphr_fill > depth ||
        pending_train >= static_cast<int>(capacity)) {
        fatal("GphtPredictor::loadState: corrupt predictor state");
    }
    for (PhaseId &p : gphr)
        if (!(is >> p))
            fatal("GphtPredictor::loadState: truncated GPHR");
    for (PhtEntry &entry : pht) {
        if (!(is >> entry.age >> entry.prediction))
            fatal("GphtPredictor::loadState: truncated PHT");
        entry.tag.clear();
        if (entry.age >= 0) {
            entry.tag.resize(depth);
            for (PhaseId &p : entry.tag)
                if (!(is >> p))
                    fatal("GphtPredictor::loadState: truncated tag");
        }
    }
    counters = Stats{};
}

size_t
GphtPredictor::setBase() const
{
    if (num_sets == 1)
        return 0;
    // FNV-1a over the history register; cheap and well mixed for
    // the tiny phase alphabet.
    uint64_t hash = 1469598103934665603ULL;
    for (PhaseId p : gphr) {
        hash ^= static_cast<uint64_t>(static_cast<uint32_t>(p));
        hash *= 1099511628211ULL;
    }
    return static_cast<size_t>(hash % num_sets) * num_ways;
}

int
GphtPredictor::lookup(size_t base) const
{
    for (size_t i = base; i < base + num_ways; ++i) {
        if (pht[i].age >= 0 && pht[i].tag == gphr)
            return static_cast<int>(i);
    }
    return -1;
}

int
GphtPredictor::victimIndex(size_t base)
{
    int victim = -1;
    int64_t oldest = 0;
    for (size_t i = base; i < base + num_ways; ++i) {
        if (pht[i].age < 0)
            return static_cast<int>(i); // invalid entry available
        if (victim < 0 || pht[i].age < oldest) {
            victim = static_cast<int>(i);
            oldest = pht[i].age;
        }
    }
    return victim;
}

} // namespace livephase
