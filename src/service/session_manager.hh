/**
 * @file
 * Sharded, bounded session store.
 *
 * Sessions are spread over N independent shards (id mod N), each
 * with its own mutex, hash index and LRU list, so concurrent
 * lookups from the worker pool only contend when they land on the
 * same shard. Capacity is bounded two ways:
 *
 *  - LRU eviction: each shard holds at most
 *    ceil(max_sessions / shards) sessions; opening one more evicts
 *    the shard's least-recently-used session.
 *  - TTL expiry: a session idle longer than idle_ttl_ns is lazily
 *    reaped — on the find() that observes it expired, and by a
 *    sweep at every open() on the same shard. 0 disables TTL.
 *
 * Eviction/expiry never blocks an in-flight batch: the store hands
 * out shared_ptr<Session>, so a worker holding a session keeps it
 * alive even while the manager forgets it (the client's *next*
 * frame then sees UnknownSession).
 *
 * The clock is injected so tests drive TTL deterministically; the
 * default reads the monotonic steady clock.
 */

#ifndef LIVEPHASE_SERVICE_SESSION_MANAGER_HH
#define LIVEPHASE_SERVICE_SESSION_MANAGER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/dvfs_policy.hh"
#include "core/phase_classifier.hh"
#include "core/predictor.hh"
#include "service/service_stats.hh"
#include "service/session.hh"

namespace livephase::service
{

/**
 * N-way sharded map of live sessions with LRU + TTL bounds.
 */
class SessionManager
{
  public:
    struct Config
    {
        /** Number of independent shards; fatal() when 0. */
        size_t shards = 8;

        /** Total session capacity (split evenly across shards);
         *  fatal() when 0. */
        size_t max_sessions = 1024;

        /** Idle time after which a session expires; 0 = never. */
        uint64_t idle_ttl_ns = 0;

        // Per-session predictor geometry (paper's deployed values).
        size_t gphr_depth = 8;
        size_t pht_entries = 128;
        /** Hash sets of the "setassoc" kind's PHT (128 / 32 = 4
         *  ways); must divide pht_entries. */
        size_t sa_sets = 32;
        size_t var_window = 128;
        double var_threshold = 0.005;
    };

    /** Monotonic nanosecond clock (injectable for tests). */
    using Clock = std::function<uint64_t()>;

    /** Default Config with the deployed pipeline defaults. */
    SessionManager();

    /**
     * Table-1 classifier + Table-2 policy over the Pentium-M DVFS
     * table — the deployed defaults.
     */
    explicit SessionManager(Config cfg,
                            ServiceCounters *counters = nullptr,
                            Clock clock = {});

    /** Full control over the per-session pipeline pieces. */
    SessionManager(Config cfg, PhaseClassifier classifier,
                   DvfsPolicy policy, ServiceCounters *counters,
                   Clock clock = {});

    /**
     * Create a session whose predictor is cloned from the prototype
     * for `kind` (then reset). Returns {Ok, session}, or
     * {UnknownPredictor, nullptr} for an unsupported kind.
     */
    std::pair<Status, std::shared_ptr<Session>>
    open(PredictorKind kind);

    /**
     * Look up a live session, refresh its LRU position and idle
     * timestamp. Returns nullptr when the id is unknown — never
     * opened, closed, evicted, or just observed to be past its TTL
     * (in which case it is reaped here).
     */
    std::shared_ptr<Session> find(uint64_t id);

    /** Remove a session. False when the id is not live. */
    bool close(uint64_t id);

    /** Reap every expired session in every shard. */
    void sweepExpired();

    /** Live sessions across all shards. */
    size_t openCount() const;

    /** Read the manager's (possibly injected) clock, so callers can
     *  touch() a session with timestamps from the same timeline the
     *  TTL reaper compares against. */
    uint64_t nowNs() const { return now(); }

    const Config &config() const { return cfg; }

  private:
    struct Shard
    {
        mutable std::mutex mu;
        /** Most-recently-used at the front. */
        std::list<std::shared_ptr<Session>> lru;
        std::unordered_map<
            uint64_t, std::list<std::shared_ptr<Session>>::iterator>
            index;
    };

    Shard &shardFor(uint64_t id)
    {
        return *shard_vec[id % shard_vec.size()];
    }

    bool expired(const Session &session, uint64_t now_ns) const;

    /** Drop expired sessions from one shard (mutex held). */
    void reapLocked(Shard &shard, uint64_t now_ns);

    Config cfg;
    size_t per_shard_capacity;
    PhaseClassifier classes;
    DvfsPolicy pol;
    ServiceCounters *stats; ///< may be null
    Clock now;
    std::vector<std::unique_ptr<Shard>> shard_vec;
    std::map<PredictorKind, PredictorPtr> prototypes;
    std::atomic<uint64_t> next_id{1};
};

} // namespace livephase::service

#endif // LIVEPHASE_SERVICE_SESSION_MANAGER_HH
