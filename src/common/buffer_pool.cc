#include "common/buffer_pool.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"

namespace livephase
{

namespace
{

/** Pool traffic telemetry. Hits/misses tell whether the recycle
 *  loop is closed (a steady-state data plane is all hits); the
 *  gauges expose the instantaneous free/leased balance. */
struct PoolCounters
{
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &returns;
    obs::Counter &discards;
    obs::Gauge &free_buffers;
    obs::Gauge &leased_buffers;

    static PoolCounters &get()
    {
        auto &reg = obs::MetricsRegistry::global();
        static PoolCounters c{
            reg.counter("livephase_alloc_pool_hits_total"),
            reg.counter("livephase_alloc_pool_misses_total"),
            reg.counter("livephase_alloc_pool_returns_total"),
            reg.counter("livephase_alloc_pool_discards_total"),
            reg.gauge("livephase_alloc_pool_free_buffers"),
            reg.gauge("livephase_alloc_pool_leased_buffers"),
        };
        return c;
    }
};

} // namespace

BufferPool &
BufferPool::global()
{
    static BufferPool pool;
    return pool;
}

BufferPool::Lease
BufferPool::lease()
{
    PoolCounters &pc = PoolCounters::get();
    Buffer buf;
    {
        std::lock_guard lock(mu);
        if (!free_list.empty()) {
            buf = std::move(free_list.back());
            free_list.pop_back();
            pc.hits.inc();
        } else {
            pc.misses.inc();
            // Windowed twin for the watchdog's pool-exhaustion
            // rate rule — the cumulative counter can't say "now".
            static obs::WindowedCounter &miss_window =
                obs::TimeSeriesRegistry::global().counter(
                    "service.pool_exhausted");
            miss_window.inc();
        }
        ++leased;
        pc.free_buffers.set(static_cast<double>(free_list.size()));
        pc.leased_buffers.set(static_cast<double>(leased));
    }
    buf.clear(); // capacity survives; contents must not
    return Lease(this, std::move(buf));
}

void
BufferPool::store(Buffer &&bytes)
{
    PoolCounters &pc = PoolCounters::get();
    std::lock_guard lock(mu);
    if (bytes.capacity() == 0 ||
        bytes.capacity() > MAX_RETAINED_BYTES ||
        free_list.size() >= MAX_FREE_BUFFERS) {
        pc.discards.inc();
    } else {
        free_list.push_back(std::move(bytes));
        pc.returns.inc();
    }
    pc.free_buffers.set(static_cast<double>(free_list.size()));
}

void
BufferPool::giveBack(Buffer &&bytes)
{
    store(std::move(bytes));
}

void
BufferPool::giveBackLeased(Buffer &&bytes)
{
    {
        std::lock_guard lock(mu);
        if (leased == 0)
            fatal("BufferPool: lease returned to a balanced pool "
                  "(double return?)");
        --leased;
        PoolCounters::get().leased_buffers.set(
            static_cast<double>(leased));
    }
    store(std::move(bytes));
}

void
BufferPool::noteDetached()
{
    std::lock_guard lock(mu);
    if (leased == 0)
        fatal("BufferPool: detach from a balanced pool "
              "(double return?)");
    --leased;
    PoolCounters::get().leased_buffers.set(
        static_cast<double>(leased));
}

size_t
BufferPool::freeCount() const
{
    std::lock_guard lock(mu);
    return free_list.size();
}

size_t
BufferPool::leasedCount() const
{
    std::lock_guard lock(mu);
    return leased;
}

} // namespace livephase
