#include "service/session_manager.hh"

#include <chrono>

#include "common/clock.hh"
#include "common/logging.hh"
#include "core/gpht_predictor.hh"
#include "fault/failpoint.hh"
#include "obs/flight_recorder.hh"
#include "obs/runtime.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "core/last_value_predictor.hh"
#include "core/variable_window_predictor.hh"
#include "cpu/dvfs_table.hh"

namespace livephase::service
{

namespace
{

uint64_t
steadyNowNs()
{
    // Through the time seam: TTL expiry and LRU idle stamps must
    // run on virtual time under simulation (common/clock.hh).
    return timebase::nowNs();
}

/**
 * Eviction-storm detector: a burst of LRU evictions means the
 * session table is thrashing (max_sessions undersized or a client
 * leaking sessions), which silently destroys predictor state. When
 * STORM_THRESHOLD evictions land within STORM_WINDOW_NS the flight
 * recorder auto-dumps (latched once per process).
 */
constexpr uint64_t STORM_THRESHOLD = 16;
constexpr uint64_t STORM_WINDOW_NS = 1'000'000'000;

class EvictionStormDetector
{
  public:
    /** Record one eviction at monotonic time `now_ns`; true when
     *  this one tripped the storm threshold. */
    bool evicted(uint64_t now_ns)
    {
        uint64_t start = window_start.load(std::memory_order_relaxed);
        if (now_ns - start > STORM_WINDOW_NS) {
            // Stale window: one winner resets it (losers just count
            // into the fresh window).
            if (window_start.compare_exchange_strong(
                    start, now_ns, std::memory_order_relaxed))
                in_window.store(0, std::memory_order_relaxed);
        }
        return in_window.fetch_add(1, std::memory_order_relaxed) +
            1 == STORM_THRESHOLD;
    }

  private:
    std::atomic<uint64_t> window_start{0};
    std::atomic<uint64_t> in_window{0};
};

EvictionStormDetector storm_detector;

} // namespace

SessionManager::SessionManager() : SessionManager(Config{}) {}

SessionManager::SessionManager(Config cfg, ServiceCounters *counters,
                               Clock clock)
    : SessionManager(
          cfg, PhaseClassifier::table1(),
          DvfsPolicy::table2(PhaseClassifier::table1(),
                             DvfsTable::pentiumM()),
          counters, std::move(clock))
{
}

SessionManager::SessionManager(Config config,
                               PhaseClassifier classifier,
                               DvfsPolicy policy,
                               ServiceCounters *counters, Clock clock)
    : cfg(config), classes(std::move(classifier)),
      pol(std::move(policy)), stats(counters),
      now(clock ? std::move(clock) : Clock(&steadyNowNs))
{
    if (cfg.shards == 0)
        fatal("SessionManager: shards must be > 0");
    if (cfg.max_sessions == 0)
        fatal("SessionManager: max_sessions must be > 0");
    per_shard_capacity =
        (cfg.max_sessions + cfg.shards - 1) / cfg.shards;

    shard_vec.reserve(cfg.shards);
    for (size_t i = 0; i < cfg.shards; ++i)
        shard_vec.push_back(std::make_unique<Shard>());

    // One prototype per supported kind; sessions get clone()d (and
    // reset) copies so predictor construction cost is paid once.
    prototypes[PredictorKind::LastValue] =
        std::make_unique<LastValuePredictor>();
    prototypes[PredictorKind::Gpht] = std::make_unique<GphtPredictor>(
        cfg.gphr_depth, cfg.pht_entries);
    prototypes[PredictorKind::SetAssocGpht] =
        std::make_unique<GphtPredictor>(cfg.gphr_depth,
                                        cfg.pht_entries, cfg.sa_sets);
    prototypes[PredictorKind::VariableWindow] =
        std::make_unique<VariableWindowPredictor>(cfg.var_window,
                                                  cfg.var_threshold);
}

bool
SessionManager::expired(const Session &session, uint64_t now_ns) const
{
    return cfg.idle_ttl_ns != 0 &&
        now_ns - session.lastActiveNs() > cfg.idle_ttl_ns;
}

void
SessionManager::reapLocked(Shard &shard, uint64_t now_ns)
{
    // Idle sessions accumulate at the LRU tail, so scan from there.
    while (!shard.lru.empty() && expired(*shard.lru.back(), now_ns)) {
        shard.index.erase(shard.lru.back()->id());
        shard.lru.pop_back();
        if (stats)
            stats->sessionExpired();
    }
}

std::pair<Status, std::shared_ptr<Session>>
SessionManager::open(PredictorKind kind)
{
    const auto proto = prototypes.find(kind);
    if (proto == prototypes.end())
        return {Status::UnknownPredictor, nullptr};

    PredictorPtr predictor = proto->second->clone();
    predictor->reset();

    const uint64_t id =
        next_id.fetch_add(1, std::memory_order_relaxed);
    auto session = std::make_shared<Session>(
        id, classes, std::move(predictor), pol);
    const uint64_t t = now();
    session->touch(t);

    Shard &shard = shardFor(id);
    std::lock_guard lock(shard.mu);
    reapLocked(shard, t);
    auto evict_lru = [&] {
        const uint64_t victim = shard.lru.back()->id();
        shard.index.erase(victim);
        shard.lru.pop_back();
        if (stats)
            stats->sessionEvicted();
        // Windowed twin of the cumulative counter — what the SLO
        // watchdog's eviction-storm rate rule evaluates.
        static obs::WindowedCounter &evict_window =
            obs::TimeSeriesRegistry::global().counter(
                "service.evictions");
        evict_window.inc();
        obs::FlightRecorder::global().record(
            obs::Severity::Warn, "session.evicted",
            {{"victim", victim}, {"for", id}});
        obs::traceInstant("session.evicted",
                          {{"victim", victim}, {"for", id}});
        if (storm_detector.evicted(obs::monoNowNs()))
            obs::FlightRecorder::global().autoDump("eviction-storm");
    };
    // Failpoint "session.evict": Error evicts the shard's LRU tail
    // as if capacity pressure had struck — victims' clients see
    // UnknownSession on their next frame, the recovery path chaos
    // tests must survive.
    if (auto f = FAULT_POINT("session.evict");
        f.action == fault::Action::Error && !shard.lru.empty())
        evict_lru();
    while (shard.index.size() >= per_shard_capacity)
        evict_lru();
    shard.lru.push_front(session);
    shard.index[id] = shard.lru.begin();
    if (stats)
        stats->sessionOpened();
    return {Status::Ok, session};
}

std::shared_ptr<Session>
SessionManager::find(uint64_t id)
{
    Shard &shard = shardFor(id);
    std::lock_guard lock(shard.mu);
    const auto it = shard.index.find(id);
    if (it == shard.index.end())
        return nullptr;
    std::shared_ptr<Session> session = *it->second;
    const uint64_t t = now();
    if (expired(*session, t)) {
        shard.lru.erase(it->second);
        shard.index.erase(it);
        if (stats)
            stats->sessionExpired();
        return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    session->touch(t);
    return session;
}

bool
SessionManager::close(uint64_t id)
{
    Shard &shard = shardFor(id);
    std::lock_guard lock(shard.mu);
    const auto it = shard.index.find(id);
    if (it == shard.index.end())
        return false;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    if (stats)
        stats->sessionClosed();
    return true;
}

void
SessionManager::sweepExpired()
{
    const uint64_t t = now();
    for (auto &shard : shard_vec) {
        std::lock_guard lock(shard->mu);
        reapLocked(*shard, t);
    }
}

size_t
SessionManager::openCount() const
{
    size_t total = 0;
    for (const auto &shard : shard_vec) {
        std::lock_guard lock(shard->mu);
        total += shard->index.size();
    }
    return total;
}

} // namespace livephase::service
