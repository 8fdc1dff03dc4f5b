/**
 * @file
 * Admission-control tests (src/admission/): ratekeeper budget
 * convergence against a simulated plant, per-tag QoS splits
 * (fairness, strict priority, deadline-aware drop), the blind-
 * controller chaos fallback, the --qos spec grammar, and the
 * service-level Throttled round trip with retry advice.
 *
 * Every controller here runs at sample_period_ms = 0 with an
 * injected clock: ticks happen only when the test calls
 * sampleOnce(), so budgets and token counts are deterministic.
 */

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "admission/admission.hh"
#include "fault/failpoint.hh"
#include "service/client.hh"
#include "service/service.hh"

using namespace livephase;
using namespace livephase::admission;

namespace
{

// --- ratekeeper feedback law -------------------------------------

TEST(Ratekeeper, BudgetConvergesUnderSteadyOverload)
{
    RatekeeperConfig cfg;
    cfg.sample_period_ms = 0;
    cfg.target_wait_ms = 5.0;
    cfg.recover_per_tick = 100.0;
    cfg.min_budget = 50.0;

    uint64_t now_ns = 0;
    TagThrottler tags({}, cfg.max_budget, [&] { return now_ns; });

    // Plant: a queueing server with fixed service capacity.
    // Admitted batches join a backlog; each tick the server
    // completes at most CAPACITY * DT of them, and a completed
    // batch's reported wait is the backlog it stood behind divided
    // by the service rate — the honest physics behind the signal
    // the controller steers on (completions can never exceed
    // capacity, waits grow only from real backlog).
    constexpr double CAPACITY = 1000.0; // batches/s
    constexpr double DT = 0.1;          // seconds per tick
    constexpr int OFFERED = 1000;       // per tick = 10x overload

    double backlog = 0.0; // batches admitted but not yet served
    uint64_t wait_count = 0;
    double wait_sum = 0.0;

    Signals sig;
    sig.queue_wait = [&] {
        return std::pair<uint64_t, double>{wait_count, wait_sum};
    };
    Ratekeeper keeper(cfg, std::move(sig), tags,
                      [&] { return now_ns; });

    uint64_t completed_tail = 0; // last 30 ticks
    for (int tick = 0; tick < 80; ++tick) {
        uint64_t admitted = 0;
        for (int i = 0; i < OFFERED; ++i)
            if (tags.decide(0, keeper.estimatedWaitMs()).admit)
                ++admitted;
        backlog += static_cast<double>(admitted);
        const double completed = std::min(backlog, CAPACITY * DT);
        backlog -= completed;
        wait_count += static_cast<uint64_t>(completed);
        wait_sum += completed * (backlog / CAPACITY);
        now_ns += static_cast<uint64_t>(DT * 1e9);
        keeper.sampleOnce();
        if (tick >= 50)
            completed_tail += static_cast<uint64_t>(completed);

        // Anchored decrease: within a handful of ticks the budget
        // must be within an order of magnitude of capacity,
        // nowhere near the 1e9 it started from.
        if (tick == 7) {
            EXPECT_LT(keeper.budget(), 100.0 * CAPACITY);
        }
    }

    EXPECT_GE(keeper.budget(), cfg.min_budget);
    EXPECT_LT(keeper.budget(), 5.0 * CAPACITY);
    // Steady state: the server keeps serving at capacity (the
    // controller neither wedges it nor collapses the budget so far
    // that the workers starve).
    const double tail_rate =
        static_cast<double>(completed_tail) / (30.0 * DT);
    EXPECT_GT(tail_rate, 0.5 * CAPACITY);
    EXPECT_LT(tail_rate, 1.1 * CAPACITY);
    EXPECT_EQ(keeper.samples(), 80u);
    EXPECT_EQ(keeper.blindSamples(), 0u);
}

TEST(Ratekeeper, DepthTriggersDecreaseBeforeWaitsDo)
{
    // A nearly-full queue is overload even while the wait EWMA is
    // still quiet (waits lag depth under a burst).
    RatekeeperConfig cfg;
    cfg.sample_period_ms = 0;
    cfg.max_budget = 10000.0;

    uint64_t now_ns = 0;
    TagThrottler tags({}, cfg.max_budget, [&] { return now_ns; });
    size_t depth = 0;
    Signals sig;
    sig.queue_depth = [&] { return depth; };
    sig.queue_capacity = [] { return size_t{100}; };
    Ratekeeper keeper(cfg, std::move(sig), tags,
                      [&] { return now_ns; });

    // Some admitted traffic so the decrease has an anchor.
    for (int i = 0; i < 100; ++i)
        tags.decide(0, 0.0);
    depth = 95; // 95% full
    now_ns += 100'000'000;
    keeper.sampleOnce();
    EXPECT_LT(keeper.budget(), cfg.max_budget);
}

TEST(Ratekeeper, StaleWaitDecaysWhenQueueEmpty)
{
    RatekeeperConfig cfg;
    cfg.sample_period_ms = 0;
    cfg.target_wait_ms = 5.0;

    uint64_t now_ns = 0;
    TagThrottler tags({}, cfg.max_budget, [&] { return now_ns; });
    uint64_t wait_count = 0;
    double wait_sum = 0.0;
    size_t depth = 0;
    Signals sig;
    sig.queue_wait = [&] {
        return std::pair<uint64_t, double>{wait_count, wait_sum};
    };
    sig.queue_depth = [&] { return depth; };
    sig.queue_capacity = [] { return size_t{100}; };
    Ratekeeper keeper(cfg, std::move(sig), tags,
                      [&] { return now_ns; });

    // One congested tick: completions reporting 40 ms waits.
    wait_count = 100;
    wait_sum = 100 * 0.040;
    now_ns += 100'000'000;
    keeper.sampleOnce();
    EXPECT_GT(keeper.estimatedWaitMs(), 10.0);

    // Then silence with an empty queue: nothing admitted, nothing
    // completing. An empty queue cannot be slow — the estimate must
    // decay instead of freezing at the panic value (a frozen
    // estimate above a tag's deadline would blackhole that tag:
    // deadline drops starve completions, and completions are the
    // only thing that refreshes the estimate).
    for (int i = 0; i < 40; ++i) {
        now_ns += 100'000'000;
        keeper.sampleOnce();
    }
    EXPECT_LT(keeper.estimatedWaitMs(), 1.0);
}

// --- tag throttler: fairness, priority, deadlines ----------------

TEST(TagThrottler, EqualTagsSplitBudgetFairly)
{
    const std::vector<TagPolicy> policies = {
        {"a", 1, Priority::Bulk, 1.0, 0.0},
        {"b", 2, Priority::Bulk, 1.0, 0.0},
    };
    constexpr double BUDGET = 1000.0;
    constexpr double DT = 0.1;
    uint64_t now_ns = 0;
    TagThrottler tags(policies, BUDGET, [&] { return now_ns; });

    uint64_t admitted_a = 0, admitted_b = 0;
    for (int tick = 0; tick < 50; ++tick) {
        now_ns += static_cast<uint64_t>(DT * 1e9);
        for (int i = 0; i < 200; ++i) { // 2000/s offered per tag
            if (tags.decide(1, 0.0).admit)
                ++admitted_a;
            if (tags.decide(2, 0.0).admit)
                ++admitted_b;
        }
        tags.tickDemand(DT);
        tags.refill(BUDGET, DT);
    }

    // Equal shares, equal demand: near-equal admissions.
    const double a = static_cast<double>(admitted_a);
    const double b = static_cast<double>(admitted_b);
    EXPECT_NEAR(a, b, 0.2 * std::max(a, b));
    // And together they consume most of the budget (work
    // conserving), without exceeding it by more than burst slack.
    const double total_budget = BUDGET * 50 * DT;
    EXPECT_GT(a + b, 0.6 * total_budget);
    EXPECT_LT(a + b, 1.3 * total_budget);
}

TEST(TagThrottler, InteractivePreemptsBulkUnderContention)
{
    const std::vector<TagPolicy> policies = {
        {"fg", 1, Priority::Interactive, 1.0, 0.0},
        {"bg", 2, Priority::Bulk, 1.0, 0.0},
    };
    constexpr double BUDGET = 100.0; // far below either demand
    constexpr double DT = 0.1;
    uint64_t now_ns = 0;
    TagThrottler tags(policies, BUDGET, [&] { return now_ns; });

    uint64_t admitted_fg = 0, admitted_bg = 0;
    for (int tick = 0; tick < 50; ++tick) {
        now_ns += static_cast<uint64_t>(DT * 1e9);
        for (int i = 0; i < 100; ++i) { // 1000/s offered per tag
            if (tags.decide(1, 0.0).admit)
                ++admitted_fg;
            if (tags.decide(2, 0.0).admit)
                ++admitted_bg;
        }
        tags.tickDemand(DT);
        tags.refill(BUDGET, DT);
    }

    // Strict priority: interactive eats essentially the whole
    // budget; bulk lives off leftovers.
    EXPECT_GT(admitted_fg, 5 * admitted_bg);
    EXPECT_GT(static_cast<double>(admitted_fg),
              0.5 * BUDGET * 50 * DT);

    // Shed requests carry a positive, bounded retry hint.
    const Decision shed = tags.decide(2, 0.0);
    if (!shed.admit) {
        EXPECT_GE(shed.retry_after_ms, 1u);
        EXPECT_LE(shed.retry_after_ms, 1000u);
    }
}

TEST(TagThrottler, DeadlineAwareEarlyDrop)
{
    const std::vector<TagPolicy> policies = {
        {"rt", 1, Priority::Interactive, 1.0, 5.0},
    };
    TagThrottler tags(policies, 1e6); // tokens are not the limit

    // Estimated wait above the tag's target: shed before any token
    // is spent, with the wait itself as the retry hint.
    const Decision drop = tags.decide(1, 12.0);
    EXPECT_FALSE(drop.admit);
    EXPECT_GE(drop.retry_after_ms, 1u);

    // Below target: admitted.
    EXPECT_TRUE(tags.decide(1, 1.0).admit);
    // The untagged slot has no deadline; long waits only throttle
    // it through the budget.
    EXPECT_TRUE(tags.decide(0, 12.0).admit);

    const auto rows = tags.snapshot();
    const auto rt = std::find_if(
        rows.begin(), rows.end(),
        [](const TagSnapshotRow &r) { return r.name == "rt"; });
    ASSERT_NE(rt, rows.end());
    EXPECT_EQ(rt->shed_deadline, 1u);
    EXPECT_EQ(rt->admitted, 1u);
}

TEST(TagThrottler, StaleWindowedTailUnlatches)
{
    const std::vector<TagPolicy> policies = {
        {"stale", 1, Priority::Interactive, 1.0, 50.0},
    };
    uint64_t now_ns = 0;
    TagThrottler tags(policies, 1e6, [&] { return now_ns; });

    // A burst of over-deadline waits lands in the window...
    for (int i = 0; i < 64; ++i)
        tags.recordQueueWait(1, 80.0);
    tags.tickDemand(0.01);
    // ...and the cached tail now sheds everything for the tag even
    // with a quiet controller estimate.
    EXPECT_FALSE(tags.decide(1, 0.0).admit);

    // Shedding means no fresh waits. The cached tail must decay
    // tick over tick instead of holding the pre-drop value for the
    // full 10 s window — a closed-loop tenant could otherwise never
    // recover (its own drop starves the window that gates it).
    int ticks = 0;
    while (!tags.decide(1, 0.0).admit && ticks < 50) {
        tags.tickDemand(0.01);
        ++ticks;
    }
    // 80 ms * 0.8^k drops below the 50 ms deadline at k = 3.
    EXPECT_LT(ticks, 10);
}

// --- chaos: blind controller degrades instead of wedging ---------

TEST(RatekeeperChaos, BlindControllerFallsBackToStaticBound)
{
    RatekeeperConfig cfg;
    cfg.sample_period_ms = 0;
    cfg.blind_limit = 3;
    cfg.min_budget = 0.0;
    cfg.max_budget = 0.0; // throttler sheds everything when sighted

    TagThrottler tags({}, 0.0);
    uint64_t now_ns = 0;
    Ratekeeper keeper(cfg, {}, tags, [&] { return now_ns; });

    // Sighted and unfunded: once the constructor's one-token burst
    // floor is spent, everything is shed.
    tags.decide(0, 0.0);
    EXPECT_FALSE(tags.decide(0, 0.0).admit);

    auto &reg = fault::FailpointRegistry::global();
    reg.arm("admission.sample", {fault::Action::Error, 1.0});

    for (uint32_t i = 0; i < cfg.blind_limit; ++i) {
        now_ns += 50'000'000;
        keeper.sampleOnce();
    }

    // Degraded to the static bound: bypass admits everything (the
    // bounded queue's RetryAfter remains the backstop), instead of
    // enforcing a stale budget forever.
    EXPECT_TRUE(keeper.fallback());
    EXPECT_TRUE(tags.bypass());
    EXPECT_TRUE(tags.decide(0, 100.0).admit);
    EXPECT_EQ(keeper.blindSamples(), cfg.blind_limit);

    // First good sample re-engages control.
    reg.disarm("admission.sample");
    now_ns += 50'000'000;
    keeper.sampleOnce();
    EXPECT_FALSE(keeper.fallback());
    EXPECT_FALSE(tags.bypass());
    EXPECT_FALSE(tags.decide(0, 0.0).admit);
}

// --- --qos spec grammar ------------------------------------------

TEST(QosSpec, ParsesPoliciesInOrder)
{
    AdmissionConfig cfg;
    std::string error;
    ASSERT_TRUE(parseQosSpec(
        "tag=interactive:prio=0:share=0.6:deadline_ms=50,"
        "tag=bulk:prio=bulk:share=0.4",
        cfg, &error))
        << error;
    ASSERT_EQ(cfg.tags.size(), 2u);
    EXPECT_EQ(cfg.tags[0].name, "interactive");
    EXPECT_EQ(cfg.tags[0].tag, 1u);
    EXPECT_EQ(cfg.tags[0].priority, Priority::Interactive);
    EXPECT_DOUBLE_EQ(cfg.tags[0].share, 0.6);
    EXPECT_DOUBLE_EQ(cfg.tags[0].target_wait_ms, 50.0);
    EXPECT_EQ(cfg.tags[1].name, "bulk");
    EXPECT_EQ(cfg.tags[1].tag, 2u);
    EXPECT_EQ(cfg.tags[1].priority, Priority::Bulk);
    EXPECT_DOUBLE_EQ(cfg.tags[1].target_wait_ms, 0.0);

    EXPECT_EQ(tagForName(cfg, "bulk"), 2u);
    EXPECT_EQ(tagForName(cfg, "nope"), 0u);
}

TEST(QosSpec, RejectsMalformedSpecs)
{
    AdmissionConfig cfg;
    std::string error;
    EXPECT_FALSE(parseQosSpec("", cfg, &error));
    EXPECT_FALSE(parseQosSpec("prio=0", cfg, &error));
    EXPECT_FALSE(parseQosSpec("tag=a:share=0", cfg, &error));
    EXPECT_FALSE(parseQosSpec("tag=a:share=-1", cfg, &error));
    EXPECT_FALSE(parseQosSpec("tag=a:prio=9", cfg, &error));
    EXPECT_FALSE(parseQosSpec("tag=a:bogus=1", cfg, &error));
    EXPECT_FALSE(parseQosSpec("tag=a,tag=a", cfg, &error));
    EXPECT_FALSE(error.empty());
}

// --- service integration: Throttled on the wire ------------------

TEST(ServiceAdmission, ThrottledResponseCarriesRetryAdvice)
{
    using namespace livephase::service;

    LivePhaseService::Config cfg;
    cfg.workers = 1;
    cfg.admission.enabled = true;
    // Controller never ticks; buckets hold exactly their prefund.
    cfg.admission.controller.sample_period_ms = 0;
    cfg.admission.controller.min_budget = 5.0;
    cfg.admission.controller.max_budget = 5.0; // burst = 1 token
    std::string error;
    ASSERT_TRUE(parseQosSpec("tag=t", cfg.admission, &error))
        << error;
    LivePhaseService svc(cfg);

    InProcessTransport transport(svc);
    ServiceClient client(transport); // one-shot: no hidden retries
    const auto open = client.open(PredictorKind::LastValue);
    ASSERT_EQ(open.status, Status::Ok);
    client.setTenantTag(tagForName(cfg.admission, "t"));

    const std::vector<IntervalRecord> records = {{100e6, 1e6, 1}};
    // First batch spends the tag's only token...
    auto reply = client.submitBatch(open.session_id, records);
    EXPECT_EQ(reply.status, Status::Ok);
    // ...so the second is shed before the queue, with advice.
    reply = client.submitBatch(open.session_id, records);
    ASSERT_EQ(reply.status, Status::Throttled);
    EXPECT_GE(client.lastCall().retry_hint_ms, 1u);
    EXPECT_EQ(client.lastCall().throttled, 1u);

    // Control ops are never throttled — stats must stay answerable
    // during overload.
    EXPECT_EQ(client.queryStats().status, Status::Ok);
    EXPECT_EQ(client.close(open.session_id), Status::Ok);
    svc.stop();

    const auto *admit = svc.admissionControl();
    ASSERT_NE(admit, nullptr);
}

TEST(ServiceAdmission, DisabledConfigCostsNothing)
{
    using namespace livephase::service;
    LivePhaseService svc; // default config: admission disabled
    EXPECT_EQ(svc.admissionControl(), nullptr);
    InProcessTransport transport(svc);
    ServiceClient client(transport);
    const auto open = client.open(PredictorKind::LastValue);
    ASSERT_EQ(open.status, Status::Ok);
    const auto reply =
        client.submitBatch(open.session_id, {{100e6, 1e6, 1}});
    EXPECT_EQ(reply.status, Status::Ok);
}

TEST(ServiceAdmission, ResilientClientAbsorbsThrottled)
{
    using namespace livephase::service;

    LivePhaseService::Config cfg;
    cfg.workers = 1;
    cfg.admission.enabled = true;
    cfg.admission.controller.sample_period_ms = 50;
    cfg.admission.controller.min_budget = 20.0;
    cfg.admission.controller.max_budget = 20.0; // 4-token burst
    LivePhaseService svc(cfg);

    InProcessTransport transport(svc);
    RetryPolicy policy;
    policy.deadline_us = 5'000'000;
    ServiceClient client(transport, policy);
    const auto open = client.open(PredictorKind::LastValue);
    ASSERT_EQ(open.status, Status::Ok);

    // Burn through the burst; the retry loop must ride out the
    // Throttled responses (hint-floored backoff) until the running
    // controller refills, never surfacing them as failures.
    const std::vector<IntervalRecord> records = {{100e6, 1e6, 1}};
    for (int i = 0; i < 12; ++i) {
        const auto reply =
            client.submitBatchRetrying(open.session_id, records);
        ASSERT_EQ(reply.status, Status::Ok) << "batch " << i;
    }
    EXPECT_EQ(client.close(open.session_id), Status::Ok);
}

} // namespace
