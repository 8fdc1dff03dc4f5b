/**
 * @file
 * SessionManager tests: sharded lookup, LRU eviction under the
 * capacity bound, deterministic TTL expiry through an injected
 * clock, and the eviction/expiry counters.
 */

#include <memory>

#include <gtest/gtest.h>

#include "service/session_manager.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

/** Manually advanced clock shared with the manager under test. */
struct FakeClock
{
    uint64_t now_ns = 0;

    SessionManager::Clock fn()
    {
        return [this] { return now_ns; };
    }
};

std::vector<IntervalRecord>
someRecords(size_t n)
{
    std::vector<IntervalRecord> records;
    for (size_t i = 0; i < n; ++i)
        records.push_back({100e6, 1e6 * static_cast<double>(i % 5),
                           static_cast<uint64_t>(i)});
    return records;
}

TEST(SessionManager, OpenFindClose)
{
    SessionManager manager;
    auto [status, session] = manager.open(PredictorKind::Gpht);
    ASSERT_EQ(status, Status::Ok);
    ASSERT_NE(session, nullptr);
    EXPECT_GT(session->id(), 0u);
    EXPECT_EQ(manager.openCount(), 1u);

    EXPECT_EQ(manager.find(session->id()), session);
    EXPECT_EQ(manager.find(session->id() + 1000), nullptr);

    EXPECT_TRUE(manager.close(session->id()));
    EXPECT_FALSE(manager.close(session->id()));
    EXPECT_EQ(manager.find(session->id()), nullptr);
    EXPECT_EQ(manager.openCount(), 0u);
}

TEST(SessionManager, DefaultPredictorNames)
{
    // The names QueryPhases reports; the "setassoc" kind is the
    // deployed 128-entry GPHT split into 32 sets of 4 ways.
    SessionManager manager;
    EXPECT_EQ(manager.open(PredictorKind::Gpht).second->predictorName(),
              "GPHT_8_128");
    EXPECT_EQ(
        manager.open(PredictorKind::SetAssocGpht).second->predictorName(),
        "GPHTsa_8_32x4");
}

TEST(SessionManager, UnknownPredictorKind)
{
    SessionManager manager;
    auto [status, session] =
        manager.open(static_cast<PredictorKind>(99));
    EXPECT_EQ(status, Status::UnknownPredictor);
    EXPECT_EQ(session, nullptr);
    EXPECT_EQ(manager.openCount(), 0u);
}

TEST(SessionManager, LruEvictionAtCapacity)
{
    ServiceCounters counters;
    SessionManager::Config cfg;
    cfg.shards = 1; // single shard makes LRU order deterministic
    cfg.max_sessions = 3;
    SessionManager manager(cfg, &counters);

    std::vector<uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
        auto [status, session] =
            manager.open(PredictorKind::LastValue);
        ASSERT_EQ(status, Status::Ok);
        ids.push_back(session->id());
    }
    EXPECT_EQ(manager.openCount(), 3u);

    // Touch the oldest so the middle one becomes LRU.
    ASSERT_NE(manager.find(ids[0]), nullptr);

    auto [status, session] = manager.open(PredictorKind::LastValue);
    ASSERT_EQ(status, Status::Ok);
    EXPECT_EQ(manager.openCount(), 3u);
    EXPECT_NE(manager.find(ids[0]), nullptr); // refreshed, kept
    EXPECT_EQ(manager.find(ids[1]), nullptr); // LRU, evicted
    EXPECT_NE(manager.find(ids[2]), nullptr);

    const StatsSnapshot snap = counters.snapshot(0, 0);
    EXPECT_EQ(snap.sessions_opened, 4u);
    EXPECT_EQ(snap.sessions_evicted_lru, 1u);
}

TEST(SessionManager, EvictedSessionSurvivesWhileHeld)
{
    SessionManager::Config cfg;
    cfg.shards = 1;
    cfg.max_sessions = 1;
    SessionManager manager(cfg);

    auto [s1, first] = manager.open(PredictorKind::LastValue);
    ASSERT_EQ(s1, Status::Ok);
    auto [s2, second] = manager.open(PredictorKind::LastValue);
    ASSERT_EQ(s2, Status::Ok);

    // `first` was evicted from the store, but our shared_ptr keeps
    // the in-flight pipeline usable.
    EXPECT_EQ(manager.find(first->id()), nullptr);
    const auto results = first->processBatch(someRecords(4));
    EXPECT_EQ(results.size(), 4u);
}

TEST(SessionManager, TtlExpiryOnFind)
{
    FakeClock clock;
    ServiceCounters counters;
    SessionManager::Config cfg;
    cfg.idle_ttl_ns = 1'000'000; // 1 ms
    SessionManager manager(cfg, &counters, clock.fn());

    auto [status, session] = manager.open(PredictorKind::Gpht);
    ASSERT_EQ(status, Status::Ok);
    const uint64_t id = session->id();

    clock.now_ns = 900'000;
    EXPECT_NE(manager.find(id), nullptr); // within TTL — refreshed

    clock.now_ns = 1'800'000; // 0.9 ms after the refresh
    EXPECT_NE(manager.find(id), nullptr);

    clock.now_ns += 1'000'001; // past TTL since last activity
    EXPECT_EQ(manager.find(id), nullptr);
    EXPECT_EQ(manager.openCount(), 0u);
    EXPECT_EQ(counters.snapshot(0, 0).sessions_expired_ttl, 1u);
}

TEST(SessionManager, TtlSweep)
{
    FakeClock clock;
    ServiceCounters counters;
    SessionManager::Config cfg;
    cfg.shards = 4;
    cfg.idle_ttl_ns = 1000;
    SessionManager manager(cfg, &counters, clock.fn());

    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(manager.open(PredictorKind::LastValue).first,
                  Status::Ok);
    EXPECT_EQ(manager.openCount(), 8u);

    clock.now_ns = 2000;
    manager.sweepExpired();
    EXPECT_EQ(manager.openCount(), 0u);
    EXPECT_EQ(counters.snapshot(0, 0).sessions_expired_ttl, 8u);
}

TEST(SessionManager, ZeroTtlNeverExpires)
{
    FakeClock clock;
    SessionManager::Config cfg;
    cfg.idle_ttl_ns = 0;
    SessionManager manager(cfg, nullptr, clock.fn());

    auto [status, session] = manager.open(PredictorKind::LastValue);
    ASSERT_EQ(status, Status::Ok);
    clock.now_ns = ~uint64_t{0} / 2;
    EXPECT_NE(manager.find(session->id()), nullptr);
}

TEST(SessionManager, ShardsAreIndependentCapacityDomains)
{
    SessionManager::Config cfg;
    cfg.shards = 2;
    cfg.max_sessions = 4; // 2 per shard
    SessionManager manager(cfg);

    // Ids are assigned sequentially, so 4 opens land 2 per shard
    // and nothing is evicted.
    std::vector<uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        auto [status, session] =
            manager.open(PredictorKind::LastValue);
        ASSERT_EQ(status, Status::Ok);
        ids.push_back(session->id());
    }
    EXPECT_EQ(manager.openCount(), 4u);
    for (uint64_t id : ids)
        EXPECT_NE(manager.find(id), nullptr);
}

TEST(SessionManager, SessionsDoNotSharePredictorState)
{
    SessionManager manager;
    auto [s1, a] = manager.open(PredictorKind::Gpht);
    auto [s2, b] = manager.open(PredictorKind::Gpht);
    ASSERT_EQ(s1, Status::Ok);
    ASSERT_EQ(s2, Status::Ok);

    // Train A on a repeating pattern; B stays untrained. If the
    // prototype clone shared state, B's first predictions would
    // reflect A's history.
    const auto pattern = someRecords(32);
    const auto a_first = a->processBatch(pattern);
    const auto b_first = b->processBatch(pattern);
    ASSERT_EQ(a_first.size(), b_first.size());
    for (size_t i = 0; i < a_first.size(); ++i)
        EXPECT_EQ(a_first[i], b_first[i]) << "at interval " << i;
}

} // namespace
