#include "admission/tag_throttler.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/runtime.hh"
#include "obs/timeseries.hh"

namespace livephase::admission
{

namespace
{

/** A tag's grant is capped at its smoothed demand times this, so a
 *  quiet tag cannot hoard budget the spill pass could hand to a
 *  busy one — but keeps enough headroom to ramp when it wakes. */
constexpr double DEMAND_HEADROOM = 1.25;

/** Every funded tag keeps at least this refill rate (batches/s) so
 *  a fully shed tenant can still probe its way back in. */
constexpr double MIN_TAG_RATE = 1.0;

/** Per-tick decay of the cached windowed p99 when the tag recorded
 *  no waits since the last tick (see Slot::windowed_p99_ms). Fast
 *  on purpose: every decayed tick is one where the tag may be shed
 *  on a tail estimate its own shedding is keeping stale. Matches
 *  the ratekeeper's STALE_SIGNAL_DECAY on its wait EWMA. */
constexpr double STALE_TAIL_DECAY = 0.8;

double
consumeToken(std::atomic<double> &tokens)
{
    double cur = tokens.load(std::memory_order_relaxed);
    while (cur >= 1.0 &&
           !tokens.compare_exchange_weak(cur, cur - 1.0,
                                         std::memory_order_relaxed)) {
    }
    return cur;
}

uint32_t
clampRetryMs(double ms)
{
    if (!(ms >= 1.0))
        return 1;
    return ms > 1000.0 ? 1000 : static_cast<uint32_t>(std::ceil(ms));
}

} // namespace

const char *
priorityName(Priority priority)
{
    switch (priority) {
      case Priority::Interactive: return "interactive";
      case Priority::Bulk: return "bulk";
    }
    return "priority-?";
}

TagThrottler::TagThrottler(const std::vector<TagPolicy> &policies,
                           double initial_budget_per_s, Clock clk)
    : clock(clk ? std::move(clk) : Clock(&obs::monoNowNs))
{
    auto &reg = obs::MetricsRegistry::global();
    auto wire = [&](Slot &slot, const TagPolicy &policy) {
        slot.policy = policy;
        const std::string label = "{tag=\"" + policy.name + "\"}";
        slot.admitted_total = &reg.counter(
            "livephase_admission_admitted_total" + label);
        slot.shed_throttle_total = &reg.counter(
            "livephase_admission_shed_throttle_total" + label);
        slot.shed_deadline_total = &reg.counter(
            "livephase_admission_shed_deadline_total" + label);
        slot.rate_gauge = &reg.gauge(
            "livephase_admission_tag_rate_batches_per_s" + label);
        slot.wait_hist = &reg.histogram(
            "livephase_admission_queue_wait_ms" + label);
        slot.wait_window =
            &obs::MetricsRegistry::global().windowedHistogram(
                "admission.queue_wait_ms" + label);
    };

    // Slot 0 is the untagged catch-all: Bulk priority, unit share,
    // no deadline — legacy and misconfigured clients share it.
    TagPolicy untagged;
    untagged.name = "untagged";
    untagged.tag = 0;
    untagged.priority = Priority::Bulk;
    untagged.share = 1.0;
    wire(slots[0], untagged);
    slot_count = 1;

    for (const TagPolicy &policy : policies) {
        if (slot_count >= MAX_TAGS) {
            warn("admission: tag '%s' dropped (MAX_TAGS=%zu)",
                 policy.name.c_str(), MAX_TAGS);
            continue;
        }
        wire(slots[slot_count++], policy);
    }

    // Fund the buckets to their full burst so a fresh service
    // admits immediately instead of shedding its first requests
    // while the controller warms up. (Accrual alone cannot do this:
    // a small rate never reaches the one-token burst floor over any
    // short window.)
    refill(initial_budget_per_s, BURST_SECONDS);
    const uint64_t now = clock();
    for (size_t i = 0; i < slot_count; ++i) {
        const double burst = std::max(
            1.0, slots[i].rate.load(std::memory_order_relaxed) *
                     BURST_SECONDS);
        slots[i].tokens.store(burst, std::memory_order_relaxed);
        slots[i].funded_ns.store(now, std::memory_order_relaxed);
    }
}

void
TagThrottler::topUp(Slot &slot)
{
    // Claim the elapsed window [funded, now) with one CAS so each
    // nanosecond is credited once; a losing thread's elapsed time
    // is simply part of the winner's window. The separate rate and
    // token CASes make the accrual approximate under contention —
    // off by at most one in-flight window, never compounding.
    const uint64_t now = clock();
    uint64_t funded = slot.funded_ns.load(std::memory_order_relaxed);
    if (now <= funded ||
        !slot.funded_ns.compare_exchange_strong(
            funded, now, std::memory_order_relaxed))
        return;
    const double rate = slot.rate.load(std::memory_order_relaxed);
    if (rate <= 0.0)
        return;
    const double add =
        rate * static_cast<double>(now - funded) * 1e-9;
    const double burst = std::max(1.0, rate * BURST_SECONDS);
    double cur = slot.tokens.load(std::memory_order_relaxed);
    double next;
    do {
        next = std::min(burst, cur + add);
    } while (!slot.tokens.compare_exchange_weak(
        cur, next, std::memory_order_relaxed));
}

TagThrottler::Slot &
TagThrottler::slotFor(TenantTag tag)
{
    // Linear probe: MAX_TAGS is small enough that this beats any
    // map on the submit path, and it is trivially allocation-free.
    for (size_t i = 1; i < slot_count; ++i) {
        if (slots[i].policy.tag == tag)
            return slots[i];
    }
    return slots[0];
}

Decision
TagThrottler::decide(TenantTag tag, double estimated_wait_ms)
{
    Slot &slot = slotFor(tag);

    if (bypass_on.load(std::memory_order_relaxed)) {
        slot.arrivals.fetch_add(1, std::memory_order_relaxed);
        slot.admitted.fetch_add(1, std::memory_order_relaxed);
        slot.admitted_total->inc();
        return {true, 0};
    }

    // Deadline-aware early drop: if the queue is already slower
    // than this tag's target, admitting would only burn a worker on
    // an answer the tenant has stopped waiting for. Two signals,
    // worst wins: the controller's fleet-mean estimate, and this
    // tag's own windowed p99 (cached by tickDemand — the tail can
    // blow the deadline while the mean still looks fine). Shed
    // here, the request is NOT counted as demand: no allocation of
    // queue capacity could have admitted it, so letting it claim
    // rate would park budget on a tag that cannot use it while
    // lower-priority tags starve (the split stops being work-
    // conserving exactly when goodput needs it most).
    const double deadline = slot.policy.target_wait_ms;
    if (deadline > 0.0) {
        const double wait = std::max(
            estimated_wait_ms,
            slot.windowed_p99_ms.load(std::memory_order_relaxed));
        if (wait > deadline) {
            slot.shed_deadline_total->inc();
            return {false, clampRetryMs(wait)};
        }
    }
    slot.arrivals.fetch_add(1, std::memory_order_relaxed);

    topUp(slot);
    const double had = consumeToken(slot.tokens);
    if (had >= 1.0) {
        slot.admitted.fetch_add(1, std::memory_order_relaxed);
        slot.admitted_total->inc();
        return {true, 0};
    }

    slot.shed_throttle_total->inc();
    const double rate = slot.rate.load(std::memory_order_relaxed);
    const double wait_for_token =
        rate > 0.0 ? (1.0 - had) / rate * 1000.0 : 1000.0;
    return {false, clampRetryMs(wait_for_token)};
}

void
TagThrottler::recordQueueWait(TenantTag tag, double wait_ms)
{
    Slot &slot = slotFor(tag);
    slot.wait_hist->record(wait_ms);
    slot.wait_window->record(wait_ms);
    slot.wait_samples.fetch_add(1, std::memory_order_relaxed);
}

DemandSample
TagThrottler::tickDemand(double dt_s)
{
    DemandSample sample;
    if (dt_s <= 0.0)
        return sample;
    // Half-life of roughly two ticks: quick enough to track a phase
    // change in a tenant's offered load, slow enough that one idle
    // tick does not zero its claim on the next split.
    constexpr double DEMAND_ALPHA = 0.3;
    const double slot_seconds =
        static_cast<double>(
            obs::MetricsRegistry::global().slotDurationNs()) /
        1e9;
    for (size_t i = 0; i < slot_count; ++i) {
        Slot &slot = slots[i];
        // Refresh the cached windowed p99 the deadline check reads:
        // an 11-cell histogram merge per tag per tick (controller
        // thread), never on the submit path. A tick that recorded
        // no waits gets a decayed cache instead of the raw window:
        // once the drop engages, the tag stops producing samples,
        // and the raw 10 s tail would hold the pre-drop panic
        // value until it ages out — a self-sustaining blackhole.
        // Decaying lets a probe through within a few ticks; if the
        // queue is still slow the probe's wait re-arms the drop.
        const uint64_t seen =
            slot.wait_samples.load(std::memory_order_relaxed);
        double p99 = slot.wait_window
                         ->stats(obs::Window::TenSeconds,
                                 slot_seconds)
                         .p99;
        if (seen == slot.last_wait_samples) {
            const double prev = slot.windowed_p99_ms.load(
                std::memory_order_relaxed);
            p99 = std::min(p99, prev * STALE_TAIL_DECAY);
            if (p99 < 0.01)
                p99 = 0.0;
        }
        slot.last_wait_samples = seen;
        slot.windowed_p99_ms.store(p99, std::memory_order_relaxed);
        const uint64_t arrivals =
            slot.arrivals.load(std::memory_order_relaxed);
        const uint64_t admitted =
            slot.admitted.load(std::memory_order_relaxed);
        const double arrival_rate =
            static_cast<double>(arrivals - slot.last_arrivals) / dt_s;
        const double admitted_rate =
            static_cast<double>(admitted - slot.last_admitted) / dt_s;
        slot.last_arrivals = arrivals;
        slot.last_admitted = admitted;
        const double demand =
            slot.demand.load(std::memory_order_relaxed);
        slot.demand.store(demand +
                              DEMAND_ALPHA * (arrival_rate - demand),
                          std::memory_order_relaxed);
        sample.arrival_rate += arrival_rate;
        sample.admitted_rate += admitted_rate;
    }
    return sample;
}

void
TagThrottler::refill(double budget_per_s, double dt_s)
{
    if (dt_s <= 0.0)
        return;

    // Pass 1, strict priority: each class splits what is left by
    // share, capped near each tag's smoothed demand; the capped-off
    // surplus falls through to the next class.
    double remaining = std::max(0.0, budget_per_s);
    for (size_t p = 0; p < NUM_PRIORITIES; ++p) {
        const auto prio = static_cast<Priority>(p);
        double share_sum = 0.0;
        for (size_t i = 0; i < slot_count; ++i) {
            if (slots[i].policy.priority == prio)
                share_sum += slots[i].policy.share;
        }
        if (share_sum <= 0.0)
            continue;
        const double pool = remaining;
        for (size_t i = 0; i < slot_count; ++i) {
            Slot &slot = slots[i];
            if (slot.policy.priority != prio)
                continue;
            const double offered =
                pool * slot.policy.share / share_sum;
            const double cap = std::max(
                slot.demand.load(std::memory_order_relaxed) *
                    DEMAND_HEADROOM,
                MIN_TAG_RATE);
            // The max() guards against the pool draining slightly
            // negative through floating-point subtraction (which
            // would surface as a "-0" rate in the tag table).
            slot.grant = std::max(0.0, std::min(offered, cap));
            remaining -= slot.grant;
        }
    }

    // Pass 2, work conservation: leftover budget (every tag demand-
    // capped below its share) tops everyone up by share, uncapped —
    // when demand is already met this is free headroom, not theft.
    if (remaining > 0.0) {
        double share_sum = 0.0;
        for (size_t i = 0; i < slot_count; ++i)
            share_sum += slots[i].policy.share;
        for (size_t i = 0; i < slot_count && share_sum > 0.0; ++i) {
            Slot &slot = slots[i];
            slot.grant += remaining * slot.policy.share / share_sum;
        }
    }

    for (size_t i = 0; i < slot_count; ++i) {
        Slot &slot = slots[i];
        slot.rate.store(slot.grant, std::memory_order_relaxed);
        slot.rate_gauge->set(slot.grant);
        // Tokens accrue continuously in decide(); here only clamp a
        // bucket *down* to the new burst so a budget decrease takes
        // effect immediately instead of draining a bucket sized for
        // the old rate.
        const double burst =
            std::max(1.0, slot.grant * BURST_SECONDS);
        double cur = slot.tokens.load(std::memory_order_relaxed);
        while (cur > burst &&
               !slot.tokens.compare_exchange_weak(
                   cur, burst, std::memory_order_relaxed)) {
        }
    }
}

void
TagThrottler::setBypass(bool on)
{
    bypass_on.store(on, std::memory_order_relaxed);
}

bool
TagThrottler::bypass() const
{
    return bypass_on.load(std::memory_order_relaxed);
}

std::vector<TagSnapshotRow>
TagThrottler::snapshot() const
{
    std::vector<TagSnapshotRow> rows;
    rows.reserve(slot_count);
    for (size_t i = 0; i < slot_count; ++i) {
        const Slot &slot = slots[i];
        TagSnapshotRow row;
        row.name = slot.policy.name;
        row.tag = slot.policy.tag;
        row.priority = slot.policy.priority;
        row.share = slot.policy.share;
        row.target_wait_ms = slot.policy.target_wait_ms;
        row.rate = slot.rate.load(std::memory_order_relaxed);
        row.demand = slot.demand.load(std::memory_order_relaxed);
        row.admitted = slot.admitted_total->value();
        row.shed_throttle = slot.shed_throttle_total->value();
        row.shed_deadline = slot.shed_deadline_total->value();
        row.p99_wait_ms = slot.wait_hist->snapshot().quantile(99.0);
        row.p99_wait_10s_ms =
            slot.windowed_p99_ms.load(std::memory_order_relaxed);
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace livephase::admission
