/**
 * @file
 * SeqlockRing tests (obs/seqlock_ring.hh): a writer that finds its
 * slot still held drops its own record and leaves the holder's
 * intact, readers racing writers never return a torn record, and
 * ThreadRings frees released rings beyond its few spares.
 * The stress case is in the sanitizer filter (scripts/verify.sh),
 * so ThreadSanitizer checks the ring's memory-ordering argument.
 */

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/seqlock_ring.hh"
#include "obs/trace.hh"

using namespace livephase::obs;

namespace
{

/** Every word holds the seq of the write that filled it, so a record
 *  mixing two writes shows as unequal words. */
struct SeqWords
{
    uint64_t w[16] = {};
};

void
fillWithSeq(SeqWords &rec, uint64_t seq)
{
    for (uint64_t &word : rec.w)
        word = seq;
}

bool
wholeRecord(const SeqWords &rec)
{
    for (uint64_t word : rec.w)
        if (word != rec.w[0])
            return false;
    return true;
}

TEST(SeqlockRing, WriterFindingItsSlotBusyDropsItsRecord)
{
    // Capacity 1: a write issued while another is inside the slot —
    // what a signal interrupting a write, or a lapped writer, does —
    // lands on the held slot.
    SeqlockRing<SeqWords> ring(1);
    bool inner_published = true;
    const bool outer_published =
        ring.write([&](SeqWords &rec, uint64_t seq) {
            inner_published = ring.write(
                [](SeqWords &inner, uint64_t) { inner.w[0] = 999; });
            fillWithSeq(rec, seq + 100);
        });

    EXPECT_TRUE(outer_published);
    EXPECT_FALSE(inner_published) << "the inner write is dropped";
    EXPECT_EQ(ring.claimed(), 2u) << "a dropped write still claims";

    std::vector<SeqWords> snap;
    ring.snapshotInto(snap);
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_TRUE(wholeRecord(snap[0])) << "the outer record is intact";
    EXPECT_EQ(snap[0].w[0], 100u);
}

TEST(SeqlockRing, NestedWriteOnAnotherSlotPublishesBoth)
{
    // Capacity 2: the inner write claims the other slot, so both
    // records publish and read back whole.
    SeqlockRing<SeqWords> ring(2);
    ASSERT_TRUE(ring.write([&](SeqWords &rec, uint64_t seq) {
        EXPECT_TRUE(ring.write(fillWithSeq));
        fillWithSeq(rec, seq);
    }));
    std::vector<SeqWords> snap;
    ring.snapshotInto(snap);
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_TRUE(wholeRecord(snap[0]));
    EXPECT_TRUE(wholeRecord(snap[1]));
    EXPECT_EQ(snap[0].w[0], 0u);
    EXPECT_EQ(snap[1].w[0], 1u);
}

TEST(SeqlockRing, ReadersNeverSeeTornRecords)
{
    // A small ring and four writers keep every slot contended, so
    // the reader keeps landing on slots mid-write and writers keep
    // lapping each other.
    SeqlockRing<SeqWords> ring(8);
    constexpr int WRITERS = 4;
    constexpr uint64_t PER_WRITER = 20000;
    std::atomic<int> writers_done{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < WRITERS; ++t)
        writers.emplace_back([&] {
            for (uint64_t i = 0; i < PER_WRITER; ++i)
                ring.write(fillWithSeq);
            writers_done.fetch_add(1);
        });

    uint64_t records = 0, torn = 0;
    std::vector<SeqWords> snap;
    bool done = false;
    while (!done) {
        done = writers_done.load() == WRITERS;
        snap.clear();
        ring.snapshotInto(snap);
        for (const SeqWords &rec : snap)
            torn += wholeRecord(rec) ? 0 : 1;
        records += snap.size();
    }
    for (std::thread &w : writers)
        w.join();

    EXPECT_EQ(torn, 0u);
    EXPECT_GT(records, 0u);
    EXPECT_EQ(ring.claimed(), WRITERS * PER_WRITER);
}

TEST(SeqlockRing, TracerThreadBurstFreesRingsBeyondSpares)
{
    // A burst of threads that all hold a ring at once, then exit:
    // the tracer keeps a few released rings for reuse and frees the
    // rest, so its memory follows the live threads, not the peak.
    Tracer tracer(8);
    constexpr uint64_t THREADS = 16;
    std::atomic<uint64_t> recorded{0};
    std::vector<std::thread> burst;
    for (uint64_t i = 0; i < THREADS; ++i)
        burst.emplace_back([&tracer, &recorded, i] {
            SpanRecord rec;
            rec.trace_id = 1;
            rec.span_id = i + 1;
            tracer.record(rec);
            recorded.fetch_add(1);
            while (recorded.load() < THREADS)
                std::this_thread::yield();
        });
    for (std::thread &t : burst)
        t.join();
    EXPECT_EQ(tracer.totalRecorded(), THREADS);
    EXPECT_LE(tracer.ringCount(),
              ThreadRings<SpanRecord>::MAX_RELEASED);
    // The spans in the rings kept stay queryable.
    EXPECT_EQ(tracer.snapshotSpans().size(), tracer.ringCount());
}

} // namespace
