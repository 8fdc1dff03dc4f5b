/**
 * @file
 * Pure helpers of the livebench harness, kept apart from the service
 * so the self-test (ledger_test.cc) compiles them alone:
 *
 *  - percentile selection: report the highest percentile, at most the
 *    one asked for, that still has at least MIN_TAIL samples beyond
 *    it, together with the sample count;
 *  - open-loop accounting: a fixed-rate schedule, how late each send
 *    left against its due time, and how many due frames went unsent;
 *  - the per-layer cost ledger: a layer's self time is its inclusive
 *    time minus the inclusive times of the layers nested directly in
 *    it;
 *  - the result digest that compares served replies with the
 *    standalone reference pipeline.
 */

#ifndef LIVEBENCH_LEDGER_HH
#define LIVEBENCH_LEDGER_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace livebench
{

/** A percentile needs this many samples strictly above it. */
constexpr size_t MIN_TAIL = 10;

struct Percentile
{
    double value = 0.0;
    double pct = 0.0;  ///< percentile actually reported (0 = none)
    size_t count = 0;  ///< samples it was taken from
    size_t beyond = 0; ///< samples strictly above its rank
};

/** Nearest-rank index of percentile `pct` among `n` sorted samples. */
inline size_t
rankIndex(double pct, size_t n)
{
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
    const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
    return std::min(r, n) - 1;
}

/**
 * The highest of {want, 99.9, 99, 95, 90, 75, 50} that is <= want and
 * leaves at least MIN_TAIL samples beyond its rank. When even the
 * median lacks that tail the median is reported anyway (`beyond`
 * says how thin it is). `sorted` must be ascending.
 */
inline Percentile
pickPercentile(const std::vector<double> &sorted, double want)
{
    Percentile out;
    out.count = sorted.size();
    if (sorted.empty())
        return out;
    const double ladder[] = {want, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    double chosen = 50.0;
    for (double pct : ladder) {
        if (pct > want)
            continue;
        const size_t idx = rankIndex(pct, sorted.size());
        if (sorted.size() - 1 - idx >= MIN_TAIL) {
            chosen = pct;
            break;
        }
    }
    const size_t idx = rankIndex(chosen, sorted.size());
    out.value = sorted[idx];
    out.pct = chosen;
    out.beyond = sorted.size() - 1 - idx;
    return out;
}

/**
 * Fixed-rate open-loop schedule of one generator: slot k is due at
 * start + offset + k * period (all nanoseconds).
 */
struct Schedule
{
    uint64_t start_ns = 0;
    uint64_t period_ns = 1;
    uint64_t offset_ns = 0;

    uint64_t due(uint64_t k) const
    {
        return start_ns + offset_ns + k * period_ns;
    }

    /** Number of slots due strictly before `t_ns`. */
    uint64_t dueBefore(uint64_t t_ns) const
    {
        const uint64_t first = start_ns + offset_ns;
        if (t_ns <= first)
            return 0;
        return (t_ns - first + period_ns - 1) / period_ns;
    }
};

/** How late a send left against its due time (0 when on time). */
inline uint64_t
lateness(uint64_t due_ns, uint64_t sent_ns)
{
    return sent_ns > due_ns ? sent_ns - due_ns : 0;
}

/** Frames of a window that were due but never sent. */
inline uint64_t
unsent(const Schedule &schedule, uint64_t window_start_ns,
       uint64_t window_end_ns, uint64_t sent_in_window)
{
    const uint64_t due = schedule.dueBefore(window_end_ns) -
        schedule.dueBefore(window_start_ns);
    return due > sent_in_window ? due - sent_in_window : 0;
}

/** One layer of the cost ledger: its inclusive time per frame and
 *  the index of the layer it is nested in (-1 for the outermost). */
struct Layer
{
    std::string name;
    double inclusive = 0.0;
    int parent = -1;
};

/** Self time of every layer: inclusive minus the inclusive time of
 *  its direct children. Negative results are kept as measured so the
 *  caller can flag them. */
inline std::vector<double>
selfTimes(const std::vector<Layer> &layers)
{
    std::vector<double> self(layers.size());
    for (size_t i = 0; i < layers.size(); ++i)
        self[i] = layers[i].inclusive;
    for (const Layer &layer : layers)
        if (layer.parent >= 0)
            self[static_cast<size_t>(layer.parent)] -= layer.inclusive;
    return self;
}

/** How far, as a share, the self times may sum away from the untraced
 *  outermost time before the ledger is rejected. */
constexpr double LEDGER_TOLERANCE = 0.15;

/**
 * The ledger's own checks: no layer's self time is negative, and the
 * self times sum to within `tolerance` of the outermost layer's
 * untraced time per frame.
 */
inline bool
ledgerConsistent(const std::vector<double> &self, double untraced_outer,
                 double tolerance)
{
    double sum = 0.0;
    for (double v : self) {
        if (v < 0.0)
            return false;
        sum += v;
    }
    return untraced_outer > 0.0 &&
        std::abs(sum / untraced_outer - 1.0) <= tolerance;
}

/** FNV-1a over 32-bit words: the digest of a result stream. */
constexpr uint64_t DIGEST_SEED = 1469598103934665603ULL;

inline uint64_t
digestWords(uint64_t h, const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t at = 0; at + 4 <= bytes; at += 4) {
        uint32_t word;
        std::memcpy(&word, p + at, sizeof(word));
        h = (h ^ word) * 1099511628211ULL;
    }
    return h;
}

} // namespace livebench

#endif // LIVEBENCH_LEDGER_HH
