#include "sim/sim_world.hh"

#include <algorithm>
#include <memory>

#include "common/clock.hh"
#include "common/logging.hh"
#include "fault/failpoint.hh"
#include "obs/phase_telemetry.hh"
#include "obs/profiler.hh"
#include "obs/timeseries.hh"
#include "obs/watchdog.hh"
#include "service/client.hh"
#include "service/service.hh"
#include "sim/sim_clock.hh"
#include "workload/spec2000.hh"
#include "workload/trace.hh"

namespace livephase::sim
{

namespace
{

using service::IntervalRecord;
using service::IntervalResult;
using service::LivePhaseService;
using service::PredictorKind;
using service::RetryPolicy;
using service::ServiceClient;
using service::Status;

constexpr uint64_t MS = 1'000'000ULL;

/** Everything a scenario decides. Durations scale off
 *  SimOptions::until_ms when given; fault geometry is expressed as
 *  fractions of the steady-state phase so scaled runs keep the same
 *  shape. */
struct ScenarioParams
{
    uint32_t clients_per_node = 3;
    size_t samples = 96;     ///< generator trace length per client
    size_t batch_size = 24;  ///< records per SubmitBatch
    uint64_t inter_batch_ns = 30 * MS;
    uint64_t retry_delay_ns = 20 * MS;
    uint64_t duration_ns = 1500 * MS; ///< steady-state phase
    uint64_t flush_extra_ns = 8000 * MS; ///< heal + flush allowance
    LinkConfig link{};
    bool partitions = false;
    uint64_t idle_ttl_ns = 0;
    size_t max_sessions = 64;
    size_t session_shards = 2;
    double flap_prob = 0.0;      ///< close + idle after an acked batch
    uint64_t flap_idle_ns = 0;
    const char *watchdog_rules =
        "sim-drop-burst:sim.net.drops:count:10s:>:25:for=1";
};

ScenarioParams
resolveScenario(const SimOptions &opt)
{
    ScenarioParams p;
    if (opt.scenario == "steady") {
        // Defaults: lossless, light, the baseline digest.
    } else if (opt.scenario == "partition") {
        p.samples = 384; // 16 batches per client
        // Pacing spans the whole steady phase, so both partition
        // windows land on actively streaming clients.
        p.inter_batch_ns = 150 * MS;
        p.duration_ns = 4000 * MS;
        p.flush_extra_ns = 12000 * MS;
        p.link.drop_request_prob = 0.02;
        p.link.drop_response_prob = 0.02;
        p.partitions = true;
    } else if (opt.scenario == "churn") {
        p.clients_per_node = 4;
        p.samples = 120; // 5 batches per client
        p.inter_batch_ns = 25 * MS;
        p.duration_ns = 3000 * MS;
        p.link.drop_request_prob = 0.01;
        p.link.drop_response_prob = 0.01;
        p.idle_ttl_ns = 70 * MS;
        p.max_sessions = 3; // fewer than clients: constant LRU churn
        p.session_shards = 1;
        p.flap_prob = 0.3;
        p.flap_idle_ns = 150 * MS; // longer than the TTL: expiry
    } else {
        panic("unknown sim scenario '%s'", opt.scenario.c_str());
    }
    if (opt.until_ms != 0)
        p.duration_ns = opt.until_ms * MS;
    return p;
}

struct World;

/**
 * One simulated client: a resilient ServiceClient streaming one
 * SPEC-shaped generator's trace as SubmitBatch frames, driven as a
 * self-rescheduling event. Failure handling is the production
 * loop's job (retry/backoff/breaker inside the client); the actor
 * only decides *what* to do next: resubmit an unacked batch, reopen
 * after UnknownSession, flap, or finish.
 */
struct ClientActor
{
    World &world;
    uint32_t node;
    uint32_t index; ///< global client index
    std::unique_ptr<SimTransport> transport;
    std::unique_ptr<ServiceClient> client;
    std::vector<std::vector<IntervalRecord>> batches;
    size_t cursor = 0;
    uint64_t session_id = 0;
    uint64_t acked = 0;
    uint64_t open_attempts = 0;
    uint64_t submit_attempts = 0;
    uint64_t reopens = 0;
    Rng decisions; ///< actor-private stream (flap, retry stagger)
    bool done = false;

    ClientActor(World &w, uint32_t node_id, uint32_t idx);

    PredictorKind predictorKind() const
    {
        switch (index % 4) {
          case 0: return PredictorKind::Gpht;
          case 1: return PredictorKind::LastValue;
          case 2: return PredictorKind::SetAssocGpht;
          default: return PredictorKind::VariableWindow;
        }
    }

    void schedule(uint64_t delay_ns);
    void step();
};

/** The whole cluster under one scheduler. Members are declared in
 *  dependency order (actors hold references into nodes and net, so
 *  they are destroyed first). */
struct World
{
    SimOptions opt;
    ScenarioParams p;
    SimScheduler sched;
    SimNet net;
    std::vector<std::unique_ptr<LivePhaseService>> nodes;
    std::vector<std::unique_ptr<ClientActor>> actors;
    std::unique_ptr<obs::Watchdog> watchdog;
    Fnv64 result_fnv; ///< predictor-result checksum stream
    uint64_t hard_deadline_ns = 0;
    size_t done_count = 0;

    explicit World(const SimOptions &options)
        : opt(options), p(resolveScenario(options)),
          sched(options.seed), net(sched, options.nodes)
    {
        if (opt.nodes == 0)
            panic("sim: nodes must be >= 1");
        hard_deadline_ns = SimScheduler::EPOCH_NS + p.duration_ns +
                           p.flush_extra_ns;
    }

    bool allDone() const { return done_count == actors.size(); }

    void noteDone() { ++done_count; }

    void foldResults(uint32_t idx, size_t batch_idx,
                     const std::vector<IntervalResult> &results)
    {
        result_fnv.mix((static_cast<uint64_t>(idx) << 32) |
                       static_cast<uint64_t>(batch_idx));
        result_fnv.mix(results.size());
        for (const IntervalResult &r : results) {
            result_fnv.mix(
                static_cast<uint64_t>(
                    static_cast<uint32_t>(r.phase)) |
                (static_cast<uint64_t>(
                     static_cast<uint32_t>(r.predicted_next))
                 << 32));
            result_fnv.mix(r.dvfs_index);
        }
    }

    void resetGlobals()
    {
        // In-process replay hygiene: a second run must see the same
        // process-global state as the first. The profiling plane
        // must be silent before the virtual clock takes over —
        // start() refuses under virtual time, but a profiler some
        // earlier test left running would still be writing real
        // TSC/PMC state mid-simulation.
        obs::Profiler::global().stop();
        // Windowed series keep their registrations (handed-out
        // references stay valid) but lose all cells and the
        // rotation anchor.
        obs::MetricsRegistry::global().resetWindowsForTest();
        obs::PhaseTelemetry::global().resetForTest();
        auto &faults = fault::FailpointRegistry::global();
        faults.disarmAll();
        faults.setMasterSeed(opt.seed);
        if (opt.canary) {
            fault::FaultSpec spec;
            spec.action = fault::Action::Error;
            spec.probability = 1.0;
            spec.skip = 3;  // let the run warm up first
            spec.limit = 1; // exactly one duplicate delivery
            faults.arm("sim.net.duplicate", spec);
        }
    }

    void buildNodes()
    {
        for (uint32_t n = 0; n < opt.nodes; ++n) {
            LivePhaseService::Config cfg;
            cfg.workers = 0; // the event loop drains by hand
            cfg.queue_capacity = 64;
            cfg.max_batch = 1024;
            cfg.dump_trace_on_error = false;
            cfg.sessions.shards = p.session_shards;
            cfg.sessions.max_sessions = p.max_sessions;
            cfg.sessions.idle_ttl_ns = p.idle_ttl_ns;
            // admission + watchdog stay disabled: both own threads;
            // the sim drives a fleet watchdog itself, on virtual
            // time.
            nodes.push_back(
                std::make_unique<LivePhaseService>(cfg));
        }
        if (p.partitions) {
            // Even nodes lose connectivity twice during the steady
            // phase; both windows close well before the flush.
            for (uint32_t n = 0; n < opt.nodes; n += 2) {
                const uint64_t e = SimScheduler::EPOCH_NS;
                const uint64_t d = p.duration_ns;
                net.addPartition(n, {e + d / 5, e + 2 * d / 5});
                net.addPartition(
                    n, {e + 11 * d / 20, e + 7 * d / 10});
            }
        }
    }

    void buildActors()
    {
        uint32_t idx = 0;
        for (uint32_t n = 0; n < opt.nodes; ++n) {
            for (uint32_t c = 0; c < p.clients_per_node; ++c, ++idx)
                actors.push_back(
                    std::make_unique<ClientActor>(*this, n, idx));
        }
    }

    void buildWatchdog()
    {
        obs::WatchdogConfig cfg;
        cfg.eval_interval_ns = 500 * MS; // informational: tick is ours
        cfg.dump_on_breach = false;      // no disk artifacts mid-run
        auto rules = obs::parseWatchdogRules(p.watchdog_rules);
        if (!rules)
            panic("sim: malformed built-in watchdog rules");
        cfg.rules = *rules;
        watchdog = std::make_unique<obs::Watchdog>(cfg);
        // Never start()ed: evalOnce runs on the virtual tick below.
    }

    void scheduleWatchdogTick()
    {
        sched.after(500 * MS, [this] {
            if (allDone() || sched.nowNs() >= hard_deadline_ns)
                return;
            obs::MetricsRegistry::global().rotateIfDue(
                sched.nowNs());
            watchdog->evalOnce();
            scheduleWatchdogTick();
        });
    }

    void scheduleSweepTick()
    {
        sched.after(20 * MS, [this] {
            if (allDone() || sched.nowNs() >= hard_deadline_ns)
                return;
            for (auto &node : nodes)
                node->sessionManager().sweepExpired();
            scheduleSweepTick();
        });
    }

    SimResult collect()
    {
        SimResult res;
        res.virtual_ms =
            (sched.nowNs() - SimScheduler::EPOCH_NS) / MS;
        res.events_run = sched.eventsRun();
        res.net_events = net.events().size();

        Fnv64 d;
        d.mix(std::string_view("livephase-sim/v1"));
        d.mix(opt.seed);
        d.mix(opt.nodes);
        d.mix(std::string_view(opt.scenario));
        d.mix(static_cast<uint64_t>(opt.canary));

        d.mix(net.eventDigest());
        d.mix(net.events().size() + net.eventsDroppedFromLog());

        for (const auto &a : actors) {
            res.batches_total += a->batches.size();
            res.batches_acked += a->acked;
            d.mix((static_cast<uint64_t>(a->index) << 32) |
                  a->cursor);
            d.mix(a->acked);
            d.mix(a->submit_attempts);
            d.mix(a->open_attempts);
            d.mix(a->reopens);
            if (!a->done)
                res.violations.push_back(
                    "lost-batch: client " +
                    std::to_string(a->index) + " (node " +
                    std::to_string(a->node) + ") acked " +
                    std::to_string(a->acked) + "/" +
                    std::to_string(a->batches.size()) +
                    " batches at flush deadline");
        }
        d.mix(result_fnv.h);

        for (uint32_t n = 0; n < opt.nodes; ++n) {
            const NodeNetCounters &c = net.counters(n);
            res.server_ok_batches += c.server_ok_batches;
            res.dropped_requests += c.dropped_request;
            res.dropped_responses += c.dropped_response;
            res.duplicated += c.duplicated;
            if (c.sent != c.delivered + c.dropped_request)
                res.violations.push_back(
                    "net-accounting node " + std::to_string(n) +
                    ": sent " + std::to_string(c.sent) +
                    " != delivered " + std::to_string(c.delivered) +
                    " + dropped-request " +
                    std::to_string(c.dropped_request));
            if (c.delivered != c.returned + c.dropped_response)
                res.violations.push_back(
                    "net-accounting node " + std::to_string(n) +
                    ": delivered " + std::to_string(c.delivered) +
                    " != returned " + std::to_string(c.returned) +
                    " + dropped-response " +
                    std::to_string(c.dropped_response));

            uint64_t acked_here = 0;
            for (const auto &a : actors) {
                if (a->node == n)
                    acked_here += a->acked;
            }
            // The at-least-once ledger: every batch the server
            // acked is either acked at a client or its ack
            // demonstrably dropped. A duplicate delivery (canary)
            // breaks exactly this equation.
            if (c.server_ok_batches !=
                acked_here + c.dropped_ok_responses)
                res.violations.push_back(
                    "batch-accounting node " + std::to_string(n) +
                    ": server acked " +
                    std::to_string(c.server_ok_batches) +
                    " batches, clients acked " +
                    std::to_string(acked_here) +
                    " + dropped-ok-responses " +
                    std::to_string(c.dropped_ok_responses));

            const service::StatsSnapshot st = nodes[n]->stats();
            res.sessions_evicted += st.sessions_evicted_lru;
            res.sessions_expired += st.sessions_expired_ttl;
            if (st.batches_processed != c.server_ok_batches)
                res.violations.push_back(
                    "server-ledger node " + std::to_string(n) +
                    ": batches_processed " +
                    std::to_string(st.batches_processed) +
                    " != network-observed ok batches " +
                    std::to_string(c.server_ok_batches));

            d.mix(c.sent);
            d.mix(c.delivered);
            d.mix(c.duplicated);
            d.mix(c.dropped_request);
            d.mix(c.dropped_response);
            d.mix(c.returned);
            d.mix(c.server_ok_batches);
            d.mix(c.dropped_ok_responses);
            d.mix(st.sessions_opened);
            d.mix(st.sessions_closed);
            d.mix(st.sessions_evicted_lru);
            d.mix(st.sessions_expired_ttl);
            d.mix(st.sessions_open);
            d.mix(st.intervals_processed);
            d.mix(st.batches_processed);
            d.mix(st.rejected_queue_full);
            d.mix(st.frames_malformed);
        }

        // Fleet predictor-quality totals: the "predictor-state
        // checksum" leg of the replay invariant.
        const obs::PhaseTelemetrySnapshot pt =
            obs::PhaseTelemetry::global().snapshot();
        d.mix(pt.classified);
        d.mix(pt.predictions);
        d.mix(pt.mispredictions);
        d.mix(pt.transitions);
        for (size_t i = 0; i < pt.residency.size(); ++i) {
            if (pt.residency[i]) {
                d.mix(i);
                d.mix(pt.residency[i]);
            }
        }
        for (size_t i = 0; i < pt.dvfs_actions.size(); ++i) {
            if (pt.dvfs_actions[i]) {
                d.mix(i);
                d.mix(pt.dvfs_actions[i]);
            }
        }

        // Alert sequence: rule names + edge kind only. Timestamps
        // in WatchdogAlert come from obs::sinceStartNs(), whose
        // anchor is process-lifetime state, so they are excluded.
        for (const obs::WatchdogAlert &a : watchdog->alerts()) {
            std::string entry = a.rule;
            if (a.recovered)
                entry += ":recovered";
            d.mix(std::string_view(entry));
            res.alert_sequence.push_back(std::move(entry));
        }
        d.mix(watchdog->alertCount());

        res.digest = d.h;
        res.events = net.events();
        return res;
    }

    SimResult run()
    {
        resetGlobals();
        sched.install();
        buildNodes();
        buildWatchdog();
        buildActors();
        // Stagger first steps so same-time ties never depend on
        // actor construction order beyond the deterministic seq.
        for (auto &a : actors)
            a->schedule(MS + a->index * MS);
        scheduleWatchdogTick();
        scheduleSweepTick();

        while (sched.pending() > 0) {
            if (sched.runUntil(hard_deadline_ns) == 0)
                break; // nothing left that is due before the deadline
        }

        SimResult res = collect();
        for (auto &node : nodes)
            node->stop();
        fault::FailpointRegistry::global().disarmAll();
        sched.uninstall();
        return res;
    }
};

ClientActor::ClientActor(World &w, uint32_t node_id, uint32_t idx)
    : world(w), node(node_id), index(idx),
      decisions(w.sched.actorRng("sim.actor." + std::to_string(idx)))
{
    transport = std::make_unique<SimTransport>(
        w.net, *w.nodes[node_id], node_id, idx, w.p.link,
        w.sched.actorRng("sim.link." + std::to_string(node_id) +
                         "." + std::to_string(idx)));

    RetryPolicy policy;
    policy.deadline_us = 1'500'000;
    policy.backoff_initial_us = 200;
    policy.backoff_max_us = 50'000;
    policy.max_reconnects = 6;
    policy.breaker_threshold = 10;
    policy.breaker_cooldown_us = 200'000;
    policy.seed = decisions.next();
    client = std::make_unique<ServiceClient>(*transport, policy);

    // The workload: one of the 33 SPEC-shaped generators (phase
    // flappers included), chunked into batches. The trace seed
    // mixes the run seed with the actor name so actors replaying
    // the same benchmark still stream distinct (but replayable)
    // series.
    const auto &suite = Spec2000Suite::all();
    const SpecBenchmark &bench = suite[idx % suite.size()];
    const IntervalTrace trace = bench.makeTrace(
        world.p.samples,
        world.opt.seed ^ stableHash("sim.trace." +
                                    std::to_string(idx)),
        100e6);
    uint64_t tsc = 1'000'000ULL * (idx + 1);
    std::vector<IntervalRecord> batch;
    batch.reserve(world.p.batch_size);
    for (const Interval &ivl : trace) {
        IntervalRecord rec;
        rec.uops = ivl.uops;
        rec.bus_tran_mem = ivl.memTransactions();
        rec.tsc = tsc += 1000;
        batch.push_back(rec);
        if (batch.size() == world.p.batch_size) {
            batches.push_back(std::move(batch));
            batch = {};
            batch.reserve(world.p.batch_size);
        }
    }
    if (!batch.empty())
        batches.push_back(std::move(batch));
}

void
ClientActor::schedule(uint64_t delay_ns)
{
    // Past the hard deadline nothing reschedules; an actor stranded
    // here shows up as a lost-batch violation, which is the point —
    // the flush allowance is sized so only a genuine bug strands
    // one.
    if (world.sched.nowNs() + delay_ns > world.hard_deadline_ns)
        return;
    world.sched.after(delay_ns, [this] { step(); });
}

void
ClientActor::step()
{
    if (done)
        return;
    if (cursor >= batches.size()) {
        done = true;
        world.noteDone();
        return;
    }

    if (session_id == 0) {
        ++open_attempts;
        const ServiceClient::OpenReply reply =
            client->open(predictorKind());
        if (reply.status == Status::Ok && reply.session_id != 0) {
            session_id = reply.session_id;
            schedule(MS);
        } else {
            schedule(world.p.retry_delay_ns);
        }
        return;
    }

    ++submit_attempts;
    const ServiceClient::SubmitReply reply =
        client->submitBatch(session_id, batches[cursor]);
    if (reply.status == Status::Ok) {
        world.foldResults(index, cursor, reply.results);
        ++acked;
        ++cursor;
        if (world.p.flap_prob > 0.0 &&
            decisions.chance(world.p.flap_prob)) {
            // Flap: close (best effort — a lost Close just leaves
            // the session to the TTL reaper) and go idle long
            // enough to expire it, then reopen on the next step.
            client->close(session_id);
            session_id = 0;
            schedule(world.p.flap_idle_ns);
            return;
        }
        schedule(world.p.inter_batch_ns);
        return;
    }
    if (reply.status == Status::UnknownSession) {
        // Evicted (LRU), expired (TTL) or lost to a healed
        // partition: reopen and resubmit the same batch — exactly
        // once per batch is the *client's* job, and the invariant
        // checker holds it to that.
        session_id = 0;
        ++reopens;
        schedule(world.p.retry_delay_ns);
        return;
    }
    // Transport failure, deadline, breaker, or a backpressure
    // verdict the resilient client could not absorb in time: leave
    // the cursor where it is and try again later.
    schedule(world.p.retry_delay_ns);
}

} // namespace

const std::vector<std::string> &
knownScenarios()
{
    static const std::vector<std::string> names = {
        "steady", "partition", "churn"};
    return names;
}

SimResult
runSimulation(const SimOptions &options)
{
    World world(options);
    return world.run();
}

} // namespace livephase::sim
