#include "admission/ratekeeper.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "fault/failpoint.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/runtime.hh"
#include "obs/timeseries.hh"

namespace livephase::admission
{

namespace
{

/** Where recovery resumes relative to the measured capacity —
 *  just under it, so the snap-back itself does not re-trip the
 *  wait target before the additive probe takes over. */
constexpr double RESUME_FRACTION = 0.9;

/** Per-tick decay of the capacity estimate. Completions can never
 *  exceed capacity, so a decaying *max* of the completion rate is
 *  robust where an average is not: a tick whose completions were
 *  budget-limited (or starved by scheduler jitter) pulls an
 *  average toward the budget and locks the controller low, but
 *  cannot pull a max down. The decay (half-life ~34 ticks) lets
 *  the estimate follow a genuine capacity drop. */
constexpr double CAPACITY_DECAY = 0.98;

/** Per-tick decay of the smoothed wait estimate on an idle tick
 *  (no completions, empty queue). Fast on purpose — a handful of
 *  ticks, not a window: the stale value blocks admission via the
 *  deadline drops, and every decayed tick is one where tenants are
 *  being shed on a signal that no longer describes the queue. */
constexpr double STALE_SIGNAL_DECAY = 0.8;

struct KeeperMetrics
{
    obs::Gauge &budget;
    obs::Gauge &wait_ms;
    obs::Gauge &fallback;
    obs::Counter &ticks;
    obs::Counter &blind_ticks;

    static KeeperMetrics &instance()
    {
        auto &reg = obs::MetricsRegistry::global();
        static KeeperMetrics m{
            reg.gauge("livephase_admission_budget_batches_per_s"),
            reg.gauge("livephase_admission_wait_ewma_ms"),
            reg.gauge("livephase_admission_fallback"),
            reg.counter("livephase_admission_ticks_total"),
            reg.counter("livephase_admission_blind_ticks_total"),
        };
        return m;
    }
};

} // namespace

Ratekeeper::Ratekeeper(const RatekeeperConfig &config,
                       Signals sigs, TagThrottler &tags, Clock clk)
    : cfg(config),
      signals(std::move(sigs)),
      throttler(tags),
      clock(clk ? std::move(clk) : Clock(&obs::monoNowNs)),
      budget_now(config.max_budget)
{
    // Baseline for the first tick's dt — without it the first
    // sample would difference against time zero (or a guessed
    // period) and mis-scale every rate it derives. The cumulative
    // signals are baselined the same way: the wait histogram and
    // eviction counters are process-global, so a keeper constructed
    // into a warm process (a second service instance, a sim replay)
    // must not read their whole history as its first tick's delta.
    last_tick_ns = clock();
    if (signals.queue_wait) {
        const auto [count, sum] = signals.queue_wait();
        last_wait_count = count;
        last_wait_sum = sum;
    }
    if (signals.evictions)
        last_evictions = signals.evictions();
    if (signals.pool_exhausted)
        last_pool_exhausted = signals.pool_exhausted();
    KeeperMetrics::instance().budget.set(cfg.max_budget);
}

Ratekeeper::~Ratekeeper()
{
    stop();
}

void
Ratekeeper::start()
{
    if (cfg.sample_period_ms == 0)
        return;
    std::lock_guard<std::mutex> lock(run_mu);
    if (running)
        return;
    stopping = false;
    running = true;
    controller = std::thread([this] { runLoop(); });
}

void
Ratekeeper::stop()
{
    {
        std::lock_guard<std::mutex> lock(run_mu);
        if (!running)
            return;
        stopping = true;
    }
    run_cv.notify_all();
    controller.join();
    std::lock_guard<std::mutex> lock(run_mu);
    running = false;
}

void
Ratekeeper::runLoop()
{
    std::unique_lock<std::mutex> lock(run_mu);
    while (!stopping) {
        lock.unlock();
        sampleOnce();
        lock.lock();
        run_cv.wait_for(
            lock, std::chrono::milliseconds(cfg.sample_period_ms),
            [this] { return stopping; });
    }
}

void
Ratekeeper::blindTick()
{
    blind_total.fetch_add(1, std::memory_order_relaxed);
    KeeperMetrics::instance().blind_ticks.inc();
    if (++blind_streak < cfg.blind_limit ||
        fallback_on.load(std::memory_order_relaxed))
        return;
    // The controller has been unable to observe the service for
    // blind_limit ticks. Enforcing budgets computed from stale
    // signals is worse than no budgets: degrade to the static
    // bound (bounded queue + RetryAfter) until sight returns.
    fallback_on.store(true, std::memory_order_relaxed);
    throttler.setBypass(true);
    KeeperMetrics::instance().fallback.set(1.0);
    obs::FlightRecorder::global().record(
        obs::Severity::Warn, "admission.blind",
        {{"blind_ticks", static_cast<uint64_t>(blind_streak)},
         {"budget", budget_now.load(std::memory_order_relaxed)}});
}

void
Ratekeeper::sampleOnce()
{
    const uint64_t now = clock();
    double dt_s = static_cast<double>(now - last_tick_ns) / 1e9;
    last_tick_ns = now;
    if (dt_s <= 0.0)
        dt_s = static_cast<double>(
                   std::max<uint32_t>(cfg.sample_period_ms, 1)) /
            1e3;

    tick_count.fetch_add(1, std::memory_order_relaxed);
    KeeperMetrics::instance().ticks.inc();

    // Keep the windowed time-series rotating even when no watchdog
    // thread is running (admission-only deployments) — the per-tag
    // windowed p99 below depends on cells closing on time. CAS-
    // guarded, so a concurrent watchdog driver is harmless.
    obs::MetricsRegistry::global().rotateIfDue();

    if (auto f = FAULT_POINT("admission.sample")) {
        if (f.action == fault::Action::Error) {
            blindTick();
            return;
        }
    }

    // --- sample ---------------------------------------------------
    const size_t depth =
        signals.queue_depth ? signals.queue_depth() : 0;
    const size_t capacity =
        signals.queue_capacity ? signals.queue_capacity() : 0;
    const uint64_t evictions =
        signals.evictions ? signals.evictions() : 0;
    const uint64_t pool_exhausted =
        signals.pool_exhausted ? signals.pool_exhausted() : 0;
    uint64_t wait_count = last_wait_count;
    double wait_sum = last_wait_sum;
    if (signals.queue_wait) {
        const auto [count, sum] = signals.queue_wait();
        wait_count = count;
        wait_sum = sum;
    }

    if (blind_streak != 0) {
        blind_streak = 0;
        if (fallback_on.load(std::memory_order_relaxed)) {
            fallback_on.store(false, std::memory_order_relaxed);
            throttler.setBypass(false);
            KeeperMetrics::instance().fallback.set(0.0);
            obs::FlightRecorder::global().record(
                obs::Severity::Info, "admission.sight-restored");
        }
    }

    // Mean wait of the requests dequeued since the previous tick.
    // The *budget decision* runs on this tick's mean (`wait_now`):
    // an EWMA keeps reporting the pre-cut backlog for several ticks
    // after a decrease and each stale tick would trigger another
    // multiplicative cut, collapsing the budget far below capacity.
    // The EWMA is still maintained as the smoothed estimate the
    // deadline-aware early drop compares against. A tick with no
    // completions and a non-empty queue keeps the previous estimate
    // (the plant may be wedged); no completions with an *empty*
    // queue means the plant is idle — the estimate is stale and
    // must decay, or a panic value recorded just before admission
    // cut everything off latches: deadline drops keyed on it shed
    // all traffic, shed traffic produces no completions, and the
    // estimate that caused the shedding never updates again.
    double wait_ewma =
        smoothed_wait_ms.load(std::memory_order_relaxed);
    double wait_now = wait_ewma;
    if (wait_count > last_wait_count) {
        const double mean_ms = (wait_sum - last_wait_sum) /
            static_cast<double>(wait_count - last_wait_count) * 1e3;
        wait_now = mean_ms;
        wait_ewma += cfg.wait_alpha * (mean_ms - wait_ewma);
        smoothed_wait_ms.store(wait_ewma,
                               std::memory_order_relaxed);
    } else if (depth == 0) {
        wait_ewma *= STALE_SIGNAL_DECAY;
        if (wait_ewma < 0.01)
            wait_ewma = 0.0;
        wait_now = wait_ewma;
        smoothed_wait_ms.store(wait_ewma,
                               std::memory_order_relaxed);
    }
    // Batches that left the queue this tick, per second. On an
    // overloaded tick the workers are saturated, making this an
    // honest capacity sample (the token-admission rate is not: it
    // may have been budget-limited all tick).
    const double completed_rate =
        static_cast<double>(wait_count - last_wait_count) / dt_s;
    last_wait_count = wait_count;
    last_wait_sum = wait_sum;
    capacity_est =
        std::max(completed_rate, capacity_est * CAPACITY_DECAY);

    const double eviction_rate =
        static_cast<double>(evictions - last_evictions) / dt_s;
    const double pool_rate =
        static_cast<double>(pool_exhausted - last_pool_exhausted) /
        dt_s;
    last_evictions = evictions;
    last_pool_exhausted = pool_exhausted;

    const double depth_frac = capacity != 0
        ? static_cast<double>(depth) / static_cast<double>(capacity)
        : 0.0;

    const DemandSample demand = throttler.tickDemand(dt_s);

    // --- decide ---------------------------------------------------
    const bool degraded =
        signals.health_degraded && signals.health_degraded();
    const bool overload = wait_now > cfg.target_wait_ms ||
        depth_frac >= cfg.depth_high ||
        eviction_rate > cfg.eviction_high_per_s ||
        pool_rate > cfg.pool_exhaust_high_per_s || degraded;

    double budget = budget_now.load(std::memory_order_relaxed);
    if (overload && cut_holdoff > 0) {
        // A cut is already in flight: the backlog present when it
        // landed is still draining, and the batches dequeued from it
        // report the *pre-cut* waits. Cutting again on that echo is
        // how budgets collapse far below capacity (TCP's one-cut-
        // per-RTT rule, with the queue wait as the RTT). Hold the
        // budget flat until the echo has had time to drain.
        --cut_holdoff;
    } else if (overload) {
        // Anchor the decrease at the capacity estimate: from the
        // unlimited initial budget a plain budget *= decrease would
        // take dozens of ticks to even reach capacity, and this
        // tick's own completion count may be budget-limited rather
        // than capacity-limited (the decaying max above is not).
        const double measured = capacity_est > 0.0
            ? capacity_est
            : demand.admitted_rate;
        double anchor = budget;
        if (measured > 0.0)
            anchor = std::min(anchor, measured);
        // The observed backlog takes about wait_now of wall time to
        // drain, and the *tail* of the echo (batches that waited
        // longest) roughly twice that; ignore overload readings for
        // that long, bounded so a genuine capacity collapse still
        // gets a second cut soon.
        const double tick_ms = std::max(dt_s * 1e3, 1.0);
        cut_holdoff = static_cast<uint32_t>(std::clamp(
            std::ceil(2.0 * wait_now / tick_ms), 1.0, 10.0));
        // Cut exactly deep enough that the freed headroom drains
        // the observed backlog (wait_now's worth of work) over the
        // holdoff window — a wait barely over target shaves a few
        // percent, keeping the steady-state oscillation shallow. A
        // depth/churn trigger carries no wait magnitude and takes
        // the full configured factor.
        double factor = cfg.decrease;
        if (wait_now > cfg.target_wait_ms) {
            const double window_ms = (cut_holdoff + 1) * tick_ms;
            factor = std::clamp(1.0 - wait_now / window_ms,
                                cfg.decrease, 0.95);
        }
        const double next =
            std::max(cfg.min_budget, anchor * factor);
        if (next < budget)
            budget = next;
        if (budget <= cfg.min_budget && !collapsed) {
            collapsed = true;
            obs::FlightRecorder::global().record(
                obs::Severity::Warn, "admission.budget.collapse",
                {{"wait_ms", wait_ewma},
                 {"depth", static_cast<uint64_t>(depth)},
                 {"evict_per_s", eviction_rate}});
        }
    } else {
        // Geometric recovery with an additive floor: the
        // proportional step probes at a pace matched to the
        // service's actual capacity, the floor keeps a collapsed
        // budget from crawling back one constant at a time.
        cut_holdoff = 0;
        const double step =
            std::max(cfg.recover_per_tick, 0.05 * budget);
        double next = budget + step;
        // Snap back to just under the measured capacity (TCP's
        // ssthresh): the cut dug below capacity only to drain the
        // backlog, and the drain is over — crawling back additively
        // from there throws away goodput every cycle. Probing
        // *beyond* the estimate stays gradual. A stale-high
        // estimate self-corrects: the overshoot trips a cut whose
        // anchor re-measures capacity.
        if (capacity_est > 0.0)
            next = std::max(next, RESUME_FRACTION * capacity_est);
        budget = std::min(cfg.max_budget, next);
        if (collapsed && budget > 10.0 * cfg.min_budget)
            collapsed = false;
    }
    budget_now.store(budget, std::memory_order_relaxed);

    // --- act ------------------------------------------------------
    throttler.refill(budget, dt_s);
    KeeperMetrics::instance().budget.set(budget);
    KeeperMetrics::instance().wait_ms.set(wait_ewma);
}

double
Ratekeeper::budget() const
{
    return budget_now.load(std::memory_order_relaxed);
}

double
Ratekeeper::estimatedWaitMs() const
{
    return smoothed_wait_ms.load(std::memory_order_relaxed);
}

bool
Ratekeeper::fallback() const
{
    return fallback_on.load(std::memory_order_relaxed);
}

uint64_t
Ratekeeper::samples() const
{
    return tick_count.load(std::memory_order_relaxed);
}

uint64_t
Ratekeeper::blindSamples() const
{
    return blind_total.load(std::memory_order_relaxed);
}

} // namespace livephase::admission
