/**
 * @file
 * Self-test of the livebench helpers (ledger.hh): percentile
 * selection, open-loop lateness accounting and self-time subtraction.
 * Run with `python3 livebench/run.py --selftest`; exits non-zero on
 * the first failed check.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ledger.hh"

using namespace livebench;

namespace
{

int failures = 0;

#define CHECK(cond)                                                    \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                         __LINE__, #cond);                             \
            ++failures;                                                \
        }                                                              \
    } while (0)

std::vector<double>
iota(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(i + 1);
    return v;
}

void
testPercentiles()
{
    // 2000 samples: p99 is rank 1980 with 20 samples beyond it.
    const Percentile p99 = pickPercentile(iota(2000), 99.0);
    CHECK(p99.pct == 99.0);
    CHECK(p99.value == 1980.0);
    CHECK(p99.beyond == 20);
    CHECK(p99.count == 2000);

    // 1010 samples: p99 sits at rank 1000, leaving exactly 10.
    const Percentile edge = pickPercentile(iota(1010), 99.0);
    CHECK(edge.pct == 99.0);
    CHECK(edge.beyond == 10);

    // 500 samples cannot support p99 (5 beyond) -> p95 (25 beyond).
    const Percentile thin = pickPercentile(iota(500), 99.0);
    CHECK(thin.pct == 95.0);
    CHECK(thin.value == 475.0);
    CHECK(thin.beyond == 25);

    // The median is never upgraded past what was asked for.
    const Percentile med = pickPercentile(iota(2000), 50.0);
    CHECK(med.pct == 50.0);
    CHECK(med.value == 1000.0);

    // Too few samples for any tail: median, flagged by `beyond`.
    const Percentile tiny = pickPercentile(iota(7), 99.0);
    CHECK(tiny.pct == 50.0);
    CHECK(tiny.value == 4.0);
    CHECK(tiny.beyond == 3);

    const Percentile none = pickPercentile({}, 99.0);
    CHECK(none.count == 0);
    CHECK(none.pct == 0.0);
}

void
testLateness()
{
    Schedule s;
    s.start_ns = 1000;
    s.period_ns = 100;
    s.offset_ns = 50;
    CHECK(s.due(0) == 1050);
    CHECK(s.due(3) == 1350);
    CHECK(s.dueBefore(1050) == 0);
    CHECK(s.dueBefore(1051) == 1);
    CHECK(s.dueBefore(1350) == 3);
    CHECK(s.dueBefore(1351) == 4);

    CHECK(lateness(1050, 1040) == 0);
    CHECK(lateness(1050, 1050) == 0);
    CHECK(lateness(1050, 1075) == 25);

    // Window [1100, 1600): slots at 1150..1550 are due (5 of them).
    CHECK(unsent(s, 1100, 1600, 5) == 0);
    CHECK(unsent(s, 1100, 1600, 3) == 2);
    CHECK(unsent(s, 1100, 1600, 9) == 0);
}

void
testSelfTimes()
{
    // uds > client > handle > {parse, session > core}
    const std::vector<Layer> layers = {
        {"uds", 100.0, -1},  {"client", 80.0, 0}, {"handle", 50.0, 1},
        {"parse", 5.0, 2},   {"session", 30.0, 2}, {"core", 20.0, 4},
    };
    const std::vector<double> self = selfTimes(layers);
    CHECK(self[0] == 20.0);
    CHECK(self[1] == 30.0);
    CHECK(self[2] == 15.0);
    CHECK(self[3] == 5.0);
    CHECK(self[4] == 10.0);
    CHECK(self[5] == 20.0);
    double sum = 0.0;
    for (double v : self)
        sum += v;
    CHECK(sum == layers[0].inclusive);

    // A child measured slower than its parent leaves a negative self
    // time, reported as measured rather than clamped.
    const std::vector<Layer> odd = {{"outer", 10.0, -1},
                                    {"inner", 12.0, 0}};
    CHECK(selfTimes(odd)[0] == -2.0);
}

void
testLedgerChecks()
{
    // Self times summing to 100 ns against an untraced outer time.
    const std::vector<double> self = {20.0, 30.0, 15.0, 5.0, 10.0, 20.0};
    CHECK(ledgerConsistent(self, 100.0, 0.15));
    CHECK(ledgerConsistent(self, 88.0, 0.15));
    CHECK(ledgerConsistent(self, 115.0, 0.15));
    // The sum more than 15% above or below the untraced time.
    CHECK(!ledgerConsistent(self, 85.0, 0.15));
    CHECK(!ledgerConsistent(self, 120.0, 0.15));
    CHECK(!ledgerConsistent(self, 0.0, 0.15));
    // One negative self time fails the ledger whatever the sum.
    const std::vector<double> negative = {20.0, -0.5, 80.5};
    CHECK(!ledgerConsistent(negative, 100.0, 0.15));
}

void
testDigest()
{
    const uint32_t a[3] = {1, 2, 3};
    const uint32_t b[3] = {1, 2, 4};
    const uint64_t da = digestWords(DIGEST_SEED, a, sizeof(a));
    CHECK(da == digestWords(DIGEST_SEED, a, sizeof(a)));
    CHECK(da != digestWords(DIGEST_SEED, b, sizeof(b)));
    // Digesting in two pieces equals digesting at once.
    CHECK(digestWords(digestWords(DIGEST_SEED, a, 4), a + 1, 8) == da);
}

} // namespace

int
main()
{
    testPercentiles();
    testLateness();
    testSelfTimes();
    testLedgerChecks();
    testDigest();
    if (failures != 0) {
        std::fprintf(stderr, "ledger_test: %d check(s) failed\n",
                     failures);
        return 1;
    }
    std::printf("ledger_test: all checks passed\n");
    return 0;
}
