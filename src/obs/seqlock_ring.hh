/**
 * @file
 * SeqlockRing<T>: the one lock-free, drop-oldest record ring of the
 * flight recorder, tracer and profiler. ThreadRings<T>: lends each
 * tracer/profiler thread a ring, reusing released ones (a departed
 * thread's records stay readable until overwritten).
 *
 * Slot version: 0 never written, 2*seq+1 while record `seq` is being
 * written, 2*seq+2 published. A writer claims `seq` (fetch_add),
 * CASes the slot's older even version to 2*seq+1, stores the payload
 * words, then releases 2*seq+2; finding the slot odd or newer (it was
 * lapped, or a signal interrupted a write) it drops its record. No
 * wait, lock or allocation: the write is async-signal-safe. A reader
 * loads the version, the words, then the version again: a word from
 * a later write makes that writer's odd CAS happen-before the second
 * load, so equal even versions mean an untorn record. Words are
 * std::atomic<uint64_t> stored release and loaded acquire: the same
 * plain moves on x86-64 as relaxed words between fences, and
 * ThreadSanitizer models them, where it ignores fences (-Wtsan).
 */

#ifndef LIVEPHASE_OBS_SEQLOCK_RING_HH
#define LIVEPHASE_OBS_SEQLOCK_RING_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace livephase::obs
{

template <typename T>
class SeqlockRing
{
    static constexpr size_t WORDS = (sizeof(T) + 7) / 8;

  public:
    /** @param capacity slots; fatal() when 0. */
    explicit SeqlockRing(size_t capacity)
        : cap(capacity), slots(std::make_unique<Slot[]>(capacity))
    {
        // Here: at class scope a T nested in the owner is incomplete.
        static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_default_constructible_v<T>);
        if (cap == 0)
            fatal("SeqlockRing: capacity must be > 0");
    }

    /** Append one record: `fill(T &rec, uint64_t seq)` fills a
     *  value-initialized T once the slot is claimed. Returns false,
     *  without calling `fill`, when the record is dropped. */
    template <typename Fill>
    bool write(Fill &&fill)
    {
        const uint64_t seq =
            cursor.fetch_add(1, std::memory_order_relaxed);
        Slot &slot = slots[seq % cap];
        uint64_t seen = slot.version.load(std::memory_order_relaxed);
        if (seen % 2 == 1 || seen > 2 * seq ||
            !slot.version.compare_exchange_strong(
                seen, 2 * seq + 1, std::memory_order_relaxed))
            return false;
        T rec{};
        fill(rec, seq);
        uint64_t words[WORDS] = {};
        std::memcpy(words, &rec, sizeof(T));
        for (size_t i = 0; i < WORDS; ++i)
            slot.words[i].store(words[i], std::memory_order_release);
        slot.version.store(2 * seq + 2, std::memory_order_release);
        return true;
    }

    /** Append every published record to `out` in slot order,
     *  skipping slots mid-write or overwritten while read. */
    void snapshotInto(std::vector<T> &out) const
    {
        for (size_t s = 0; s < cap; ++s) {
            const Slot &slot = slots[s];
            const uint64_t v =
                slot.version.load(std::memory_order_acquire);
            if (v == 0 || v % 2 == 1)
                continue;
            uint64_t words[WORDS] = {};
            for (size_t i = 0; i < WORDS; ++i)
                words[i] =
                    slot.words[i].load(std::memory_order_acquire);
            if (slot.version.load(std::memory_order_relaxed) != v)
                continue;
            std::memcpy(&out.emplace_back(), words, sizeof(T));
        }
    }

    /** Forget every record. Only safe while nothing writes. */
    void clear()
    {
        for (size_t s = 0; s < cap; ++s)
            slots[s].version.store(0, std::memory_order_relaxed);
        cursor.store(0, std::memory_order_relaxed);
    }

    /** Writes claimed, dropped ones included. */
    uint64_t claimed() const { return cursor.load(); }

    size_t capacity() const { return cap; }

  private:
    struct Slot
    {
        std::atomic<uint64_t> version{0};
        std::atomic<uint64_t> words[WORDS] = {};
    };

    const size_t cap;
    const std::unique_ptr<Slot[]> slots;
    std::atomic<uint64_t> cursor{0};
};

template <typename T>
class ThreadRings
{
  public:
    explicit ThreadRings(size_t ring_capacity) : cap(ring_capacity) {}

    /** A released ring, else a new one. References are handed out
     *  only here, under `mu`: a use count of 1 there cannot rise. */
    std::shared_ptr<SeqlockRing<T>> acquire()
    {
        std::lock_guard lock(mu);
        for (const auto &ring : rings)
            if (ring.use_count() == 1)
                return ring;
        return rings.emplace_back(
            std::make_shared<SeqlockRing<T>>(cap));
    }

    /** snapshotInto() of every ring, held or not. */
    void snapshotInto(std::vector<T> &out) const
    {
        std::lock_guard lock(mu);
        for (const auto &ring : rings)
            ring->snapshotInto(out);
    }

    /** clear() every ring. Only safe while nothing writes. */
    void clear()
    {
        std::lock_guard lock(mu);
        for (const auto &ring : rings)
            ring->clear();
    }

    size_t ringCount() const
    {
        std::lock_guard lock(mu);
        return rings.size();
    }

  private:
    const size_t cap;
    mutable std::mutex mu; ///< the ring list, not ring contents
    std::vector<std::shared_ptr<SeqlockRing<T>>> rings;
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_SEQLOCK_RING_HH
