/**
 * @file
 * Recycling pool of wire-frame byte buffers.
 *
 * Every request the service handles used to allocate (and free) at
 * least one std::vector<uint8_t> per hop: the transport's receive
 * buffer, the queued copy, the encoded response. The pool breaks
 * that cycle: buffers are *leased*, used, and returned with their
 * capacity intact, so after a short warm-up the data plane serves
 * requests without touching the heap (`bench_pipeline_allocs` gates
 * this at zero allocations per steady-state SubmitBatch).
 *
 * A Lease is a movable RAII handle: destruction returns the buffer
 * to the pool exactly once, so a lease dropped on an error path (a
 * corrupt frame, a failed send, an exception) can never leak and
 * never double-return — the invariant the chaos suite asserts via
 * leasedCount() under ASan. detach() is the escape hatch for
 * buffers that must outlive the lease (a response travelling
 * through a std::future); the receiving side hands the storage back
 * with giveBack() to keep the recycle loop closed.
 *
 * Bounds: the free list keeps at most MAX_FREE_BUFFERS buffers and
 * silently drops any buffer whose capacity exceeds
 * MAX_RETAINED_BYTES (a 16 MiB worst-case frame must not pin its
 * storage forever). Pool traffic is observable through the
 * `livephase_alloc_pool_*` counters and gauges.
 *
 * Thread-safe: a single mutex guards the free list. Lease handles
 * themselves are not thread-safe (one owner at a time), but may be
 * moved across threads — that is how a request frame travels
 * through the queue to a worker.
 */

#ifndef LIVEPHASE_COMMON_BUFFER_POOL_HH
#define LIVEPHASE_COMMON_BUFFER_POOL_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace livephase
{

/**
 * Bounded free list of reusable byte buffers with RAII leases.
 */
class BufferPool
{
  public:
    using Buffer = std::vector<uint8_t>;

    /** Most buffers the free list retains; extras are freed. */
    static constexpr size_t MAX_FREE_BUFFERS = 256;

    /** Largest buffer capacity worth keeping around. */
    static constexpr size_t MAX_RETAINED_BYTES = 1u << 20;

    /**
     * Movable RAII handle over one pooled buffer. The default-
     * constructed state is empty (no buffer, no pool).
     */
    class Lease
    {
      public:
        Lease() = default;

        Lease(Lease &&other) noexcept
            : pool(std::exchange(other.pool, nullptr)),
              buf(std::move(other.buf))
        {
        }

        Lease &operator=(Lease &&other) noexcept
        {
            if (this != &other) {
                release();
                pool = std::exchange(other.pool, nullptr);
                buf = std::move(other.buf);
            }
            return *this;
        }

        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        ~Lease() { release(); }

        /** True while this lease holds a buffer. */
        explicit operator bool() const { return pool != nullptr; }

        Buffer &operator*() { return buf; }
        const Buffer &operator*() const { return buf; }
        Buffer *operator->() { return &buf; }
        const Buffer *operator->() const { return &buf; }

        /** Return the buffer to the pool now (idempotent). */
        void release()
        {
            if (pool == nullptr)
                return;
            BufferPool *p = std::exchange(pool, nullptr);
            p->giveBackLeased(std::move(buf));
            buf = Buffer{};
        }

        /**
         * Take ownership of the storage, emptying the lease. The
         * caller (or whoever ends up with the bytes) should
         * giveBack() the buffer once done so its capacity keeps
         * circulating.
         */
        Buffer detach()
        {
            if (pool != nullptr) {
                std::exchange(pool, nullptr)->noteDetached();
            }
            return std::move(buf);
        }

      private:
        friend class BufferPool;

        Lease(BufferPool *owner, Buffer buffer)
            : pool(owner), buf(std::move(buffer))
        {
        }

        BufferPool *pool = nullptr;
        Buffer buf;
    };

    BufferPool() = default;

    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /** The process-wide pool the service data plane uses. */
    static BufferPool &global();

    /** Lease a cleared buffer (recycled capacity when available). */
    Lease lease();

    /** Donate storage (e.g. a detach()ed response buffer after the
     *  send completed) to the free list. */
    void giveBack(Buffer &&bytes);

    /** Buffers sitting in the free list. */
    size_t freeCount() const;

    /** Leases currently outstanding (0 = balanced, the invariant
     *  the chaos suite checks after every storm). */
    size_t leasedCount() const;

  private:
    friend class Lease;

    /** Lease-end return path: decrements the outstanding count. */
    void giveBackLeased(Buffer &&bytes);

    /** detach() bookkeeping: the lease ends but the storage lives
     *  on outside the pool. */
    void noteDetached();

    void store(Buffer &&bytes);

    mutable std::mutex mu;
    std::vector<Buffer> free_list;
    size_t leased = 0;
};

} // namespace livephase

#endif // LIVEPHASE_COMMON_BUFFER_POOL_HH
