/**
 * @file
 * Tests for the data-plane memory primitives: the request-scoped
 * bump Arena and the recycling BufferPool (DESIGN.md §14).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/arena.hh"
#include "common/buffer_pool.hh"

namespace livephase
{
namespace
{

TEST(Arena, AllocReturnsAlignedDistinctMemory)
{
    Arena arena(64);
    void *a = arena.alloc(10, 8);
    void *b = arena.alloc(10, 8);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
    // Both allocations are writable and independent.
    std::memset(a, 0xAA, 10);
    std::memset(b, 0x55, 10);
    EXPECT_EQ(static_cast<uint8_t *>(a)[0], 0xAA);
    EXPECT_EQ(static_cast<uint8_t *>(b)[0], 0x55);
}

TEST(Arena, AllocSpanIsTypedAndUsable)
{
    Arena arena;
    auto span = arena.allocSpan<uint64_t>(32);
    ASSERT_EQ(span.size(), 32u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(span.data()) %
                  alignof(uint64_t),
              0u);
    for (size_t i = 0; i < span.size(); ++i)
        span[i] = i * 3;
    EXPECT_EQ(span[31], 93u);
    EXPECT_TRUE(arena.allocSpan<uint64_t>(0).empty());
}

TEST(Arena, GrowsBeyondInitialChunkAndStopsGrowingAfterReset)
{
    Arena arena(64);
    // Force growth well past the first chunk.
    for (int i = 0; i < 8; ++i)
        arena.alloc(256, 8);
    const uint64_t grown = arena.chunkAllocations();
    EXPECT_GE(grown, 2u);
    const size_t capacity = arena.capacityBytes();

    // Steady state: the same request shape after reset() must fit
    // in the retained chunks — no further chunk allocations.
    for (int round = 0; round < 16; ++round) {
        arena.reset();
        EXPECT_EQ(arena.usedBytes(), 0u);
        for (int i = 0; i < 8; ++i)
            arena.alloc(256, 8);
    }
    EXPECT_EQ(arena.chunkAllocations(), grown);
    EXPECT_EQ(arena.capacityBytes(), capacity);
}

TEST(Arena, ResetPreservesCapacityAndReusesMemory)
{
    Arena arena(1024);
    void *first = arena.alloc(100, 8);
    arena.reset();
    void *again = arena.alloc(100, 8);
    // Same chunk, same bump offset: identical pointer.
    EXPECT_EQ(first, again);
}

TEST(BufferPool, LeaseRecyclesCapacity)
{
    BufferPool pool;
    uint8_t *data = nullptr;
    {
        auto lease = pool.lease();
        EXPECT_EQ(pool.leasedCount(), 1u);
        lease->resize(4096);
        data = lease->data();
    }
    EXPECT_EQ(pool.leasedCount(), 0u);
    EXPECT_EQ(pool.freeCount(), 1u);

    auto lease = pool.lease();
    EXPECT_TRUE(lease->empty());      // contents must not survive
    EXPECT_GE(lease->capacity(), 4096u); // capacity must
    EXPECT_EQ(lease->data(), data);
}

TEST(BufferPool, ReleaseIsIdempotentAndMoveSafe)
{
    BufferPool pool;
    auto lease = pool.lease();
    lease.release();
    lease.release(); // second release is a no-op, not a double return
    EXPECT_EQ(pool.leasedCount(), 0u);

    auto a = pool.lease();
    auto b = std::move(a); // a is emptied; only b returns
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(pool.leasedCount(), 1u);
    b.release();
    EXPECT_EQ(pool.leasedCount(), 0u);
}

TEST(BufferPool, DetachAndGiveBackCloseTheLoop)
{
    BufferPool pool;
    auto lease = pool.lease();
    lease->assign({1, 2, 3});
    BufferPool::Buffer taken = lease.detach();
    EXPECT_FALSE(static_cast<bool>(lease));
    EXPECT_EQ(pool.leasedCount(), 0u); // detach ends the lease
    EXPECT_EQ(pool.freeCount(), 0u);   // but the storage left
    EXPECT_EQ(taken.size(), 3u);

    pool.giveBack(std::move(taken));
    EXPECT_EQ(pool.freeCount(), 1u);
}

TEST(BufferPool, BoundsFreeListSizeAndRetainedCapacity)
{
    BufferPool pool;
    // An oversized buffer is dropped, not retained.
    BufferPool::Buffer huge;
    huge.reserve(BufferPool::MAX_RETAINED_BYTES + 1);
    pool.giveBack(std::move(huge));
    EXPECT_EQ(pool.freeCount(), 0u);

    // The free list caps at MAX_FREE_BUFFERS.
    for (size_t i = 0; i < BufferPool::MAX_FREE_BUFFERS + 16; ++i)
        pool.giveBack(BufferPool::Buffer(64));
    EXPECT_EQ(pool.freeCount(), BufferPool::MAX_FREE_BUFFERS);
}

TEST(BufferPool, ConcurrentLeaseReleaseStaysBalanced)
{
    BufferPool pool;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&pool] {
            for (int i = 0; i < 500; ++i) {
                auto lease = pool.lease();
                lease->resize(256);
                if (i % 3 == 0)
                    pool.giveBack(lease.detach());
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(pool.leasedCount(), 0u);
}

} // namespace
} // namespace livephase
