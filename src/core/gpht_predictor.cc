#include "core/gpht_predictor.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace livephase
{

static_assert(MAX_PHASES <= GphtPredictor::MAX_PHASE,
              "every classifier phase must fit a packed GPHR");

GphtPredictor::GphtPredictor(size_t gphr_depth, size_t pht_entries,
                             size_t sets)
    : depth(gphr_depth), capacity(pht_entries), num_sets(sets)
{
    if (depth == 0 || depth > MAX_DEPTH)
        fatal("GphtPredictor: GPHR depth %zu is not in 1..%zu", depth,
              MAX_DEPTH);
    if (capacity == 0 || capacity > MAX_ENTRIES)
        fatal("GphtPredictor: %zu PHT entries is not in 1..%zu",
              capacity, MAX_ENTRIES);
    if (num_sets == 0 || capacity % num_sets != 0)
        fatal("GphtPredictor: %zu PHT entries do not split into %zu "
              "sets", capacity, num_sets);
    num_ways = capacity / num_sets;
    pht.resize(capacity);
    lru.resize(num_sets);
    // Load factor <= 1/2 keeps probe chains short, and a bucket
    // stays empty even while an evicted tag is still indexed beside
    // its replacement (capacity 1 needs 4 buckets for that).
    index.resize(std::max<size_t>(4, std::bit_ceil(2 * capacity)));
    reset();
}

void
GphtPredictor::observeAndPredictBatch(
    std::span<const PhaseSample> samples,
    std::span<PhaseId> predictions)
{
    if (samples.size() != predictions.size())
        fatal("GPHT batch: %zu samples vs %zu slots",
              samples.size(), predictions.size());
    // The qualified call is not virtual, so the loop inlines it.
    for (size_t i = 0; i < samples.size(); ++i) {
        GphtPredictor::observe(samples[i]);
        predictions[i] = current_prediction;
    }
}

void
GphtPredictor::observe(const PhaseSample &sample)
{
    const PhaseId phase = sample.phase;
    // PhaseClassifier defines at most MAX_PHASES phases, so a phase
    // the packed GPHR cannot hold is a bug, never input.
    if (phase < 0 || phase > MAX_PHASE)
        panic("GphtPredictor: phase %d outside 0..%d", phase,
              MAX_PHASE);

    // 1. Train the entry consulted (or installed) last period with
    //    the phase that actually followed its pattern.
    if (pending_train != NIL)
        pht[pending_train].prediction = static_cast<uint8_t>(phase);
    pending_train = NIL;

    // 2. Shift the observed phase into the GPHR.
    gphr = ((gphr << PHASE_BITS) | static_cast<uint64_t>(phase)) &
        (~uint64_t(0) >> (64 - depth * PHASE_BITS));
    if (gphr_fill < depth)
        ++gphr_fill;

    // 3. Until the GPHR holds a full pattern there is nothing to
    //    index the PHT with: behave as last-value.
    current_prediction = phase;
    if (gphr_fill < depth)
        return;

    // 4. Exact lookup: a tag lives only in the set it hashes to, so
    //    the one index answers what a search of that set would.
    ++counters.lookups;
    const size_t mask = index.size() - 1;
    size_t bucket = home(gphr);
    for (; index[bucket] != 0; bucket = (bucket + 1) & mask) {
        const auto slot = static_cast<uint16_t>(index[bucket] - 1);
        if (pht[slot].tag != gphr)
            continue;
        ++counters.hits;
        SetLru &set = lru[num_sets == 1 ? 0 : slot / num_ways];
        if (set.head != slot)
            moveToFront(set, slot, true);
        // An entry installed on a miss has not been trained yet; its
        // prediction is invalid until its pattern recurs after one
        // training step. Keep the last-value fallback in that window.
        if (pht[slot].prediction != INVALID_PHASE)
            current_prediction = pht[slot].prediction;
        pending_train = slot;
        return;
    }

    // 5. Miss: predict last value and install the current pattern in
    //    the set's next unused way, else over its LRU entry. The tag
    //    takes the empty bucket its probe ended on.
    const size_t set_index = setOf();
    SetLru &set = lru[set_index];
    uint16_t slot;
    size_t evicted = index.size();
    if (set.fill < num_ways) {
        slot = static_cast<uint16_t>(set_index * num_ways + set.fill++);
    } else {
        slot = set.tail;
        evicted = pht[slot].bucket;
        ++counters.replacements;
    }
    ++counters.insertions;
    moveToFront(set, slot, evicted != index.size());
    pht[slot].tag = gphr;
    pht[slot].prediction = INVALID_PHASE;
    pht[slot].bucket = static_cast<uint16_t>(bucket);
    index[bucket] = static_cast<uint16_t>(slot + 1);
    if (evicted != index.size())
        unindex(evicted);
    pending_train = slot;
}

PhaseId
GphtPredictor::predict() const
{
    return current_prediction;
}

void
GphtPredictor::reset()
{
    gphr = 0;
    gphr_fill = 0;
    std::fill(lru.begin(), lru.end(), SetLru{NIL, NIL, 0});
    std::fill(index.begin(), index.end(), 0);
    pending_train = NIL;
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
    for (const SetLru &set : lru)
        valid += set.fill;
    return valid;
}

std::vector<PhaseId>
GphtPredictor::gphrContents() const
{
    std::vector<PhaseId> phases(depth);
    for (size_t i = 0; i < depth; ++i)
        phases[i] = static_cast<PhaseId>(
            (gphr >> (i * PHASE_BITS)) & MAX_PHASE);
    return phases;
}

size_t
GphtPredictor::setOf() const
{
    if (num_sets == 1)
        return 0;
    // FNV-1a over the history register, newest phase first; cheap
    // and well mixed for the tiny phase alphabet.
    uint64_t hash = 1469598103934665603ULL;
    for (size_t i = 0; i < depth; ++i) {
        hash ^= (gphr >> (i * PHASE_BITS)) & MAX_PHASE;
        hash *= 1099511628211ULL;
    }
    return static_cast<size_t>(hash % num_sets);
}

size_t
GphtPredictor::home(uint64_t tag) const
{
    // Fibonacci hashing: the top bits of the product depend on
    // every bit of the tag.
    return static_cast<size_t>((tag * 0x9e3779b97f4a7c15ULL) >>
                               std::countl_zero(index.size() - 1));
}

void
GphtPredictor::unindex(size_t hole)
{
    // Pull back every later chain member whose home bucket does not
    // lie cyclically in (hole, i], so each stays reachable.
    const size_t mask = index.size() - 1;
    for (size_t i = (hole + 1) & mask; index[i] != 0;
         i = (i + 1) & mask) {
        const auto slot = static_cast<uint16_t>(index[i] - 1);
        if (((i - home(pht[slot].tag)) & mask) >= ((i - hole) & mask)) {
            index[hole] = index[i];
            pht[slot].bucket = static_cast<uint16_t>(hole);
            hole = i;
        }
    }
    index[hole] = 0;
}

void
GphtPredictor::moveToFront(SetLru &set, uint16_t slot, bool linked)
{
    Slot &row = pht[slot];
    if (linked) {
        if (row.prev != NIL)
            pht[row.prev].next = row.next;
        else
            set.head = row.next;
        if (row.next != NIL)
            pht[row.next].prev = row.prev;
        else
            set.tail = row.prev;
    }
    row.prev = NIL;
    row.next = set.head;
    if (set.head != NIL)
        pht[set.head].prev = slot;
    else
        set.tail = slot;
    set.head = slot;
}

} // namespace livephase
