/**
 * @file
 * Chaos tests: seeded fault schedules against the full
 * client -> transport -> queue -> worker -> session stack.
 *
 * The contract under test is the one a live deployment needs:
 * with faults armed at realistic probabilities on every transport
 * and queue failpoint, a fleet of resilient clients must (a) never
 * crash or corrupt session state, (b) resolve every request —
 * success, or a *clean* classified client error — and (c) leave the
 * service healthy once the faults are disarmed. Because every
 * failpoint draws its decisions from a seed-split stream indexed by
 * hit count, the same seed replays the identical fault schedule,
 * which the determinism tests assert directly on the trigger logs.
 *
 * Also here: protocol desync recovery (a corrupted length prefix
 * answers BadFrame and drops the connection; a fresh connection
 * carries on), which is the exact recovery path the resilient
 * client automates.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_pool.hh"
#include "common/random.hh"
#include "fault/failpoint.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/phase_telemetry.hh"
#include "obs/runtime.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "service/uds_transport.hh"
#include "test_util.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

/** Disarm everything on scope exit, whatever the test did. */
struct ScopedDisarm
{
    ~ScopedDisarm()
    {
        fault::FailpointRegistry::global().disarmAll();
        fault::FailpointRegistry::global().setMasterSeed(1);
    }
};

/** A phased interval stream (same shape service_test uses). */
std::vector<IntervalRecord>
makeStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<IntervalRecord> records;
    records.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const double base = (i / 8) % 2 == 0 ? 0.002 : 0.025;
        const double mem_per_uop =
            std::max(0.0, base + rng.gaussian(0.0, 0.004));
        const double uops = 100e6;
        records.push_back({uops, mem_per_uop * uops,
                           static_cast<uint64_t>(i) * 1000});
    }
    return records;
}

/** Per-thread tally of how its requests resolved. */
struct FleetOutcome
{
    size_t batches_ok = 0;
    size_t deadline_misses = 0; ///< clean DeadlineExceeded results
    size_t session_reopens = 0; ///< evictions survived
    size_t unexpected = 0;      ///< anything outside the contract
    std::string first_unexpected;
};

/**
 * Drive one client thread: open a session, push `batches` batches,
 * close. Every fault the service or transport throws at us must
 * resolve to an outcome in the contract; anything else is recorded
 * as unexpected (and fails the test).
 */
FleetOutcome
runFleetClient(FrameTransport &transport, const RetryPolicy &policy,
               uint64_t stream_seed, size_t batches,
               size_t batch_size)
{
    FleetOutcome tally;
    auto unexpected = [&](const std::string &what) {
        ++tally.unexpected;
        if (tally.first_unexpected.empty())
            tally.first_unexpected = what;
    };

    ServiceClient client(transport, policy);

    uint64_t session = 0;
    auto openSession = [&]() -> bool {
        for (int attempt = 0; attempt < 100; ++attempt) {
            const auto reply = client.open(PredictorKind::Gpht);
            if (reply.status == Status::Ok) {
                session = reply.session_id;
                return true;
            }
            if (client.lastCall().error != ClientError::None ||
                reply.status == Status::RetryAfter) {
                // Clean client-side failure (deadline, breaker
                // cooldown, reconnects exhausted): try again.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                continue;
            }
            unexpected("open -> " +
                       std::string(statusName(reply.status)));
            return false;
        }
        unexpected("open never succeeded");
        return false;
    };

    if (!openSession())
        return tally;

    const auto records = makeStream(stream_seed, batch_size);
    for (size_t b = 0; b < batches; ++b) {
        bool resolved = false;
        for (int attempt = 0; attempt < 100 && !resolved;
             ++attempt) {
            const auto reply =
                client.submitBatchRetrying(session, records);
            const ClientError err = client.lastCall().error;
            if (reply.status == Status::Ok &&
                err == ClientError::None) {
                if (reply.results.size() != records.size()) {
                    unexpected("short result batch");
                    return tally;
                }
                ++tally.batches_ok;
                resolved = true;
            } else if (reply.status == Status::UnknownSession) {
                // Evicted under pressure: reopen and resubmit.
                ++tally.session_reopens;
                if (!openSession())
                    return tally;
            } else if (err == ClientError::DeadlineExceeded) {
                // Clean, classified give-up: the contract allows it.
                ++tally.deadline_misses;
                resolved = true;
            } else if (err == ClientError::CircuitOpen ||
                       err == ClientError::TransportFailure) {
                // Breaker cooling down / reconnect budget spent on
                // one call: back off and retry the batch.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            } else {
                unexpected("submit -> " +
                           std::string(statusName(reply.status)) +
                           " / " + clientErrorName(err));
                return tally;
            }
        }
        if (!resolved) {
            unexpected("batch never resolved");
            return tally;
        }
    }

    // Close is best-effort under chaos: the session may already be
    // evicted, or the deadline may hit. Only protocol-level
    // surprises count against the contract.
    const Status closed = client.close(session);
    if (closed != Status::Ok && closed != Status::UnknownSession &&
        client.lastCall().error == ClientError::None &&
        closed != Status::RetryAfter)
        unexpected("close -> " +
                   std::string(statusName(closed)));
    return tally;
}

/** A fleet policy: generous deadline, quick backoff, per-thread
 *  jitter stream. */
RetryPolicy
fleetPolicy(uint64_t thread_seed)
{
    RetryPolicy policy;
    policy.deadline_us = 10'000'000;
    policy.backoff_initial_us = 50;
    policy.backoff_max_us = 2'000;
    policy.max_reconnects = 16;
    policy.breaker_threshold = 32;
    policy.breaker_cooldown_us = 2'000;
    policy.seed = 0xf1ee7 + thread_seed;
    return policy;
}

void
assertFleetClean(const std::vector<FleetOutcome> &outcomes,
                 size_t batches_per_thread)
{
    size_t total_ok = 0, total_deadline = 0, total_reopens = 0;
    for (size_t t = 0; t < outcomes.size(); ++t) {
        const FleetOutcome &o = outcomes[t];
        EXPECT_EQ(o.unexpected, 0u)
            << "thread " << t << ": " << o.first_unexpected;
        EXPECT_EQ(o.batches_ok + o.deadline_misses,
                  batches_per_thread)
            << "thread " << t << " left batches unresolved";
        total_ok += o.batches_ok;
        total_deadline += o.deadline_misses;
        total_reopens += o.session_reopens;
    }
    // With 10 s deadlines and µs faults, nearly everything should
    // actually succeed; require a solid majority so the test cannot
    // silently degrade into all-deadline-miss "success".
    EXPECT_GT(total_ok * 2,
              outcomes.size() * batches_per_thread)
        << "ok=" << total_ok << " deadline=" << total_deadline
        << " reopens=" << total_reopens;
}

/** The 8-thread fleet against one transport factory. */
template <typename MakeTransport>
std::vector<FleetOutcome>
runFleet(MakeTransport &&makeTransport, size_t threads,
         size_t batches, size_t batch_size)
{
    std::vector<FleetOutcome> outcomes(threads);
    std::vector<std::thread> fleet;
    fleet.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
        fleet.emplace_back([&, t]() {
            auto transport = makeTransport(t);
            outcomes[t] =
                runFleetClient(*transport, fleetPolicy(t),
                               /*stream_seed=*/1000 + t, batches,
                               batch_size);
        });
    }
    for (auto &th : fleet)
        th.join();
    return outcomes;
}

TEST(Chaos, InProcessFleetSurvivesQueueAndSessionFaults)
{
    ScopedDisarm guard;
    auto &reg = fault::FailpointRegistry::global();
    reg.setMasterSeed(2026);
    reg.arm("service.queue", {fault::Action::Error, 0.05});
    reg.arm("session.evict", {fault::Action::Error, 0.02});

    LivePhaseService::Config cfg;
    cfg.workers = 2;
    cfg.queue_capacity = 16; // small: organic RetryAfter too
    LivePhaseService svc(cfg);

    constexpr size_t THREADS = 8, BATCHES = 25, K = 32;
    const auto outcomes = runFleet(
        [&](size_t) {
            return std::make_unique<InProcessTransport>(svc);
        },
        THREADS, BATCHES, K);

    assertFleetClean(outcomes, BATCHES);

    // Faults fired (the schedule was not vacuously empty).
    EXPECT_GT(reg.point("service.queue").triggers(), 0u);

    // Disarmed, the service is healthy: a fresh client completes a
    // full round trip and the stats add up.
    reg.disarmAll();
    InProcessTransport transport(svc);
    ServiceClient client(transport);
    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    const auto submit = client.submitBatchRetrying(
        open.session_id, makeStream(7, 16));
    ASSERT_EQ(submit.status, Status::Ok);
    EXPECT_EQ(submit.results.size(), 16u);
    EXPECT_EQ(client.close(open.session_id), Status::Ok);

    const auto stats = client.queryStats();
    ASSERT_EQ(stats.status, Status::Ok);
    EXPECT_GE(stats.stats.sessions_opened,
              stats.stats.sessions_closed +
                  stats.stats.sessions_evicted_lru +
                  stats.stats.sessions_expired_ttl);
    EXPECT_GT(stats.stats.batches_processed, 0u);
}

TEST(Chaos, UdsFleetSurvivesTransportFaults)
{
    ScopedDisarm guard;

    LivePhaseService::Config cfg;
    cfg.workers = 2;
    LivePhaseService svc(cfg);
    const std::string path = "/tmp/livephase-chaos-" +
        std::to_string(::getpid()) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";

    auto &reg = fault::FailpointRegistry::global();
    reg.setMasterSeed(2027);
    reg.arm("uds.read", {fault::Action::Error, 0.05});
    reg.arm("uds.write", {fault::Action::PartialIo, 0.05});
    reg.arm("uds.frame", {fault::Action::CorruptFrame, 0.05});
    reg.arm("uds.connect", {fault::Action::Error, 0.05});
    reg.arm("service.queue", {fault::Action::Error, 0.05});

    constexpr size_t THREADS = 8, BATCHES = 12, K = 16;
    const auto outcomes = runFleet(
        [&](size_t) {
            auto transport =
                std::make_unique<UdsClientTransport>(path);
            // Initial dial may itself hit uds.connect.
            for (int i = 0; i < 50 && !transport->connected(); ++i)
                transport->connect();
            return transport;
        },
        THREADS, BATCHES, K);

    assertFleetClean(outcomes, BATCHES);

    // The schedule exercised the wire path both ways.
    EXPECT_GT(reg.point("uds.read").triggers() +
                  reg.point("uds.write").triggers() +
                  reg.point("uds.frame").triggers(),
              0u);

    // Quiesce and prove the server still serves clean traffic.
    reg.disarmAll();
    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    ServiceClient client(transport);
    const auto open = client.open(PredictorKind::LastValue);
    ASSERT_EQ(open.status, Status::Ok);
    const auto submit = client.submitBatchRetrying(
        open.session_id, makeStream(9, 8));
    ASSERT_EQ(submit.status, Status::Ok);
    EXPECT_EQ(client.close(open.session_id), Status::Ok);
}

/**
 * Same seed => identical fault schedule. Single client thread, so
 * the hit sequence of the armed point is deterministic end to end
 * and the trigger logs must match exactly.
 */
TEST(Chaos, SameSeedReplaysIdenticalFaultSchedule)
{
    ScopedDisarm guard;
    auto &reg = fault::FailpointRegistry::global();

    auto runOnce = [&](uint64_t seed) {
        reg.setMasterSeed(seed);
        reg.arm("service.queue", {fault::Action::Error, 0.3});

        LivePhaseService::Config cfg;
        cfg.workers = 1;
        LivePhaseService svc(cfg);
        InProcessTransport transport(svc);
        RetryPolicy policy = fleetPolicy(0);
        ServiceClient client(transport, policy);

        const auto open = client.open(PredictorKind::Gpht);
        EXPECT_EQ(open.status, Status::Ok);
        const auto records = makeStream(4, 8);
        for (int b = 0; b < 40; ++b) {
            const auto reply = client.submitBatchRetrying(
                open.session_id, records);
            EXPECT_EQ(reply.status, Status::Ok);
        }
        client.close(open.session_id);

        auto log = reg.point("service.queue").triggerLog();
        reg.disarmAll();
        return log;
    };

    const auto log_a = runOnce(77);
    const auto log_b = runOnce(77);
    const auto log_c = runOnce(78);

    EXPECT_GT(log_a.size(), 0u) << "schedule was vacuously empty";
    EXPECT_EQ(log_a, log_b) << "same seed must replay identically";
    EXPECT_NE(log_a, log_c);
}

/**
 * Multi-threaded replay: hit interleaving differs between runs, but
 * the per-hit decision stream is seed-determined, so the common
 * prefix of the trigger logs must agree.
 */
TEST(Chaos, SameSeedSchedulePrefixAgreesUnderThreads)
{
    ScopedDisarm guard;
    auto &reg = fault::FailpointRegistry::global();

    auto runOnce = [&]() {
        reg.setMasterSeed(99);
        reg.arm("service.queue", {fault::Action::Error, 0.1});

        LivePhaseService::Config cfg;
        cfg.workers = 2;
        LivePhaseService svc(cfg);
        const auto outcomes = runFleet(
            [&](size_t) {
                return std::make_unique<InProcessTransport>(svc);
            },
            4, 10, 16);
        assertFleetClean(outcomes, 10);

        auto log = reg.point("service.queue").triggerLog();
        reg.disarmAll();
        return log;
    };

    const auto log_a = runOnce();
    const auto log_b = runOnce();
    const size_t common = std::min(log_a.size(), log_b.size());
    ASSERT_GT(common, 0u);
    for (size_t i = 0; i < common; ++i)
        EXPECT_EQ(log_a[i], log_b[i]) << "diverged at entry " << i;
}

/**
 * Protocol desync recovery (by hand, no failpoints): a frame whose
 * length prefix is corrupted gets BadFrame and the server drops the
 * connection; a fresh connection with a valid frame succeeds.
 */
TEST(Chaos, DesyncedStreamRecoversOnFreshConnection)
{
    LivePhaseService svc;
    const std::string path = "/tmp/livephase-desync-" +
        std::to_string(::getpid()) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());

    // Corrupt the payload_size field (bytes 16..19) so the declared
    // payload exceeds MAX_PAYLOAD_SIZE — an unrecoverable desync.
    const Bytes open_frame =
        ENCODED(encodeOpenRequestInto, PredictorKind::Gpht);
    Bytes corrupt = open_frame;
    ASSERT_GE(corrupt.size(), FRAME_HEADER_SIZE);
    corrupt[16] = corrupt[17] = corrupt[18] = corrupt[19] = 0xFF;

    Bytes answer;
    ASSERT_TRUE(transport.roundTripInto(corrupt, answer))
        << "server must answer BadFrame";
    ResponseView parsed;
    ASSERT_TRUE(parseResponse(answer, parsed));
    EXPECT_EQ(parsed.status, Status::BadFrame);

    // The server dropped the stream: the next round trip on this
    // connection fails at the transport level...
    EXPECT_FALSE(transport.roundTripInto(open_frame, answer));

    // ...and a reconnect carries on as if nothing happened.
    ASSERT_TRUE(transport.reconnect());
    ServiceClient client(transport);
    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    const auto submit = client.submitBatchRetrying(
        open.session_id, makeStream(3, 8));
    EXPECT_EQ(submit.status, Status::Ok);
    EXPECT_EQ(client.close(open.session_id), Status::Ok);
}

/**
 * The resilient client automates that recovery: with the server
 * corrupting its *view* of one inbound frame (uds.frame, limit=1),
 * the client's desync retry path reconnects and completes the call.
 */
TEST(Chaos, ResilientClientRecoversFromInjectedDesync)
{
    ScopedDisarm guard;

    LivePhaseService svc;
    const std::string path = "/tmp/livephase-desync2-" +
        std::to_string(::getpid()) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    RetryPolicy policy; // defaults: 2 s deadline, 8 reconnects
    ServiceClient client(transport, policy);

    auto &reg = fault::FailpointRegistry::global();
    fault::FaultSpec spec{fault::Action::CorruptFrame, 1.0};
    spec.limit = 1; // corrupt exactly the next server-side read
    reg.arm("uds.frame", spec);

    const auto open = client.open(PredictorKind::Gpht);
    EXPECT_EQ(open.status, Status::Ok);
    EXPECT_GE(client.lastCall().reconnects, 1u)
        << "recovery should have gone through the desync path";
    EXPECT_EQ(reg.point("uds.frame").triggers(), 1u);

    reg.disarmAll();
    const auto submit = client.submitBatchRetrying(
        open.session_id, makeStream(5, 8));
    EXPECT_EQ(submit.status, Status::Ok);
    EXPECT_EQ(client.close(open.session_id), Status::Ok);
}

/**
 * The tracing acceptance scenario: over UDS, with a fault injected
 * into the client's response read, ONE trace id must link the failed
 * first attempt, the backoff sleep, the reconnect, the triggered
 * failpoint (named in a span annotation) and the successful retry —
 * including the server-side service.handle spans parented to the
 * exact attempt that carried them. The same tree must then come back
 * through the query-traces op as Chrome trace-event JSON.
 */
TEST(Chaos, OneTraceLinksFailureBackoffReconnectAndRetry)
{
    ScopedDisarm guard;
    obs::Tracer::global().setSampleRate(1.0);
    obs::Tracer::global().reset();
    struct TracingOff
    {
        ~TracingOff()
        {
            obs::setCurrentTrace({});
            obs::Tracer::global().setSampleRate(0.0);
            obs::Tracer::global().reset();
        }
    } tracing_off;

    LivePhaseService::Config cfg;
    cfg.workers = 1;
    LivePhaseService svc(cfg);
    const std::string path = "/tmp/livephase-trace-" +
        std::to_string(::getpid()) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    RetryPolicy policy;
    ServiceClient client(transport, policy);

    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    ASSERT_GE(client.peerVersion(), 2)
        << "wire tracing needs the v2 advert";

    auto &reg = fault::FailpointRegistry::global();
    const auto records = makeStream(11, 8);

    // A deterministic two-fault schedule, chosen so each trigger can
    // only land on one side of the socket:
    //  - uds.frame (CorruptFrame, limit 1) always fires on the
    //    *server's* request-header read — the client's only uds.frame
    //    evaluation is on the response, which the server must corrupt
    //    and answer first. The desync makes attempt 1 come back
    //    BadFrame and drops the connection.
    //  - uds.connect (Error, limit 1) is evaluated only by the
    //    client's dial, so the desync-retry reconnect fails *inside*
    //    the traced request: the trigger lands in the span tree.
    // Attempt 2 then finds the link down (transport failure), backs
    // off, reconnects for real, and attempt 3 succeeds.
    obs::Tracer::global().reset();
    fault::FaultSpec corrupt{fault::Action::CorruptFrame, 1.0};
    corrupt.limit = 1;
    reg.arm("uds.frame", corrupt);
    fault::FaultSpec refuse{fault::Action::Error, 1.0};
    refuse.limit = 1;
    reg.arm("uds.connect", refuse);

    const auto reply = client.submitBatch(open.session_id, records);
    reg.disarmAll();
    ASSERT_EQ(reply.status, Status::Ok);
    ASSERT_EQ(reply.results.size(), records.size());
    ASSERT_GE(client.lastCall().attempts, 3u);
    ASSERT_GE(client.lastCall().reconnects, 2u);
    EXPECT_EQ(reg.point("uds.frame").triggers(), 1u);
    EXPECT_EQ(reg.point("uds.connect").triggers(), 1u);

    std::vector<obs::SpanRecord> trace;
    for (const obs::SpanRecord &s :
         obs::Tracer::global().snapshotSpans())
        if (std::string(s.name) == "fault.trigger") {
            trace = obs::Tracer::global().snapshotTrace(s.trace_id);
            break;
        }
    ASSERT_FALSE(trace.empty())
        << "the fault never fired inside the client's trace";

    auto named = [&](const char *name) {
        std::vector<const obs::SpanRecord *> out;
        for (const obs::SpanRecord &s : trace)
            if (std::string(s.name) == name)
                out.push_back(&s);
        return out;
    };
    auto annotation = [](const obs::SpanRecord &s, const char *key) {
        for (uint8_t i = 0; i < s.nannotations; ++i)
            if (std::string(s.annotations[i].key) == key)
                return std::string(s.annotations[i].value);
        return std::string{};
    };

    const auto roots = named("client.request");
    ASSERT_EQ(roots.size(), 1u);
    const obs::SpanRecord &root = *roots[0];
    EXPECT_EQ(root.parent_id, 0u);
    EXPECT_EQ(annotation(root, "op"), "submit-batch");

    // Three attempts under the root: the desynced one (the server
    // answered BadFrame to the corrupted frame), the one that found
    // the link down, and the retry that succeeded.
    const auto attempts = named("client.attempt");
    ASSERT_GE(attempts.size(), 3u);
    const obs::SpanRecord *desynced = nullptr, *failed = nullptr,
                          *succeeded = nullptr;
    for (const obs::SpanRecord *a : attempts) {
        EXPECT_EQ(a->parent_id, root.span_id);
        if (annotation(*a, "status") == "bad-frame")
            desynced = a;
        if (annotation(*a, "outcome") == "transport-failure")
            failed = a;
        if (annotation(*a, "status") == "ok")
            succeeded = a;
    }
    ASSERT_NE(desynced, nullptr);
    ASSERT_NE(failed, nullptr);
    ASSERT_NE(succeeded, nullptr);

    // Desync retry, backoffs and the reconnect all hang off the
    // root, between the attempts.
    ASSERT_GE(named("client.desync.retry").size(), 1u);
    const auto backoffs = named("client.backoff");
    ASSERT_GE(backoffs.size(), 2u);
    for (const obs::SpanRecord *b : backoffs)
        EXPECT_EQ(b->parent_id, root.span_id);
    const auto reconnects = named("client.reconnect");
    ASSERT_GE(reconnects.size(), 1u);
    EXPECT_EQ(reconnects[0]->parent_id, root.span_id);

    // The triggered failpoint that refused the client's redial is
    // an annotated instant inside the request's tree. (The frame
    // corruption fired on the server's untraced reader thread, so
    // by design it is *not* here.)
    const auto faults = named("fault.trigger");
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0]->parent_id, root.span_id);
    EXPECT_EQ(annotation(*faults[0], "point"), "uds.connect");
    EXPECT_EQ(annotation(*faults[0], "action"), "error");

    // The server's handling of the successful retry is in the same
    // tree, parented to the exact attempt that carried it.
    const auto handles = named("service.handle");
    ASSERT_GE(handles.size(), 1u);
    bool handle_under_success = false;
    for (const obs::SpanRecord *h : handles)
        handle_under_success |= h->parent_id == succeeded->span_id;
    EXPECT_TRUE(handle_under_success);
    for (const obs::SpanRecord &s : trace)
        EXPECT_EQ(s.trace_id, root.trace_id) << s.name;

    // The whole tree exports over the wire as Chrome trace JSON.
    const auto exported = client.queryTraces(root.trace_id);
    ASSERT_EQ(exported.status, Status::Ok);
    char id_hex[24];
    std::snprintf(id_hex, sizeof(id_hex), "0x%llx",
                  static_cast<unsigned long long>(root.trace_id));
    EXPECT_NE(exported.json.find("\"traceEvents\""),
              std::string::npos);
    EXPECT_NE(exported.json.find(id_hex), std::string::npos);
    EXPECT_NE(exported.json.find("client.request"),
              std::string::npos);
    EXPECT_NE(exported.json.find("fault.trigger"),
              std::string::npos);
    EXPECT_NE(exported.json.find("service.handle"),
              std::string::npos);

    EXPECT_EQ(client.close(open.session_id), Status::Ok);
}

/**
 * The buffer-pool invariant under fire: a fault storm across both
 * transports must leave zero leases outstanding once the fleet and
 * the server quiesce — every error path (corrupt frame, dead
 * socket, queue rejection, mid-frame disconnect) returns or donates
 * its buffer exactly once. Run under ASan, this is also the
 * leak/double-return check for the whole lease lifecycle.
 */
TEST(Chaos, BufferPoolStaysBalancedThroughFaultStorms)
{
    ScopedDisarm guard;
    auto &reg = fault::FailpointRegistry::global();
    reg.setMasterSeed(2028);
    reg.arm("service.queue", {fault::Action::Error, 0.05});
    reg.arm("session.evict", {fault::Action::Error, 0.02});

    constexpr size_t THREADS = 8, BATCHES = 12, K = 16;
    {
        LivePhaseService::Config cfg;
        cfg.workers = 2;
        cfg.queue_capacity = 16;
        LivePhaseService svc(cfg);
        const auto outcomes = runFleet(
            [&](size_t) {
                return std::make_unique<InProcessTransport>(svc);
            },
            THREADS, BATCHES, K);
        assertFleetClean(outcomes, BATCHES);
        svc.stop(); // drain, so no request can still hold a lease
        EXPECT_EQ(BufferPool::global().leasedCount(), 0u)
            << "in-process storm leaked request/response leases";
    }

    reg.arm("uds.read", {fault::Action::Error, 0.05});
    reg.arm("uds.write", {fault::Action::PartialIo, 0.05});
    reg.arm("uds.frame", {fault::Action::CorruptFrame, 0.05});
    reg.arm("uds.connect", {fault::Action::Error, 0.05});
    {
        LivePhaseService::Config cfg;
        cfg.workers = 2;
        LivePhaseService svc(cfg);
        const std::string path = "/tmp/livephase-poolbal-" +
            std::to_string(::getpid()) + ".sock";
        UdsServer server(svc, path);
        if (!server.start())
            GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";
        const auto outcomes = runFleet(
            [&](size_t) {
                auto transport =
                    std::make_unique<UdsClientTransport>(path);
                for (int i = 0; i < 50 && !transport->connected();
                     ++i)
                    transport->connect();
                return transport;
            },
            THREADS, BATCHES, K);
        assertFleetClean(outcomes, BATCHES);
        reg.disarmAll();
        server.stop(); // joins every connection thread
        svc.stop();
        EXPECT_EQ(BufferPool::global().leasedCount(), 0u)
            << "socket storm leaked request/response leases";
    }
}

/**
 * The watchdog acceptance scenario: with the obs.accuracy failpoint
 * scrambling the predictor, the accuracy-collapse SLO rule must
 * fire within one evaluation window — alert event, latched flight
 * dump, health gauge flipped to degraded — and the injected fault
 * schedule must replay identically under the same seed.
 */
TEST(Chaos, AccuracyCollapseTripsWatchdogWithinOneWindow)
{
    ScopedDisarm guard;
    struct ScopedObsEnable
    {
        bool was;
        ScopedObsEnable() : was(obs::enabled())
        {
            obs::setEnabled(true);
        }
        ~ScopedObsEnable() { obs::setEnabled(was); }
    } obs_on;

    auto &reg = fault::FailpointRegistry::global();
    auto &rec = obs::FlightRecorder::global();
    auto &pt = obs::PhaseTelemetry::global();
    auto &ts = obs::MetricsRegistry::global();

    // One run of the scenario: scrambled predictor, watchdog with a
    // fast evaluation tick, assert the full detection chain, hand
    // back the fault schedule's trigger log for the replay check
    // (out-param: ASSERT_* needs a void-returning body).
    auto runOnce = [&](uint64_t seed, std::vector<uint64_t> &log) {
        // Earlier tests in this binary left prediction volume in
        // the global windowed series; start from a clean slate so
        // the ratio reflects only this run's scrambled traffic.
        pt.resetForTest();
        for (size_t i = 0; i < obs::TS_SLOTS; ++i) {
            ts.windowedCounter("core.predictions").rotate();
            ts.windowedCounter("core.mispredictions").rotate();
        }
        std::ostringstream dumps;
        rec.setDumpSink(&dumps);
        rec.resetDumpLatches();

        reg.setMasterSeed(seed);
        // p < 1 so the schedule has seed-dependent structure; the
        // scrambled majority still drives the miss ratio far past
        // the 0.5 default threshold.
        reg.arm("obs.accuracy", {fault::Action::Error, 0.85});

        LivePhaseService::Config cfg;
        cfg.workers = 1;
        cfg.watchdog.enabled = true;
        cfg.watchdog.eval_interval_ns = 20'000'000; // 20 ms
        LivePhaseService svc(cfg);
        ASSERT_NE(svc.watchdog(), nullptr);

        InProcessTransport transport(svc);
        ServiceClient client(transport);
        const auto open = client.open(PredictorKind::Gpht);
        ASSERT_EQ(open.status, Status::Ok);
        const auto records = makeStream(21, 32);
        for (int b = 0; b < 8; ++b) {
            const auto reply = client.submitBatchRetrying(
                open.session_id, records);
            ASSERT_EQ(reply.status, Status::Ok);
        }

        // The 10 s ratio window includes the live cell, so the next
        // evaluation tick must already see the collapse: allow a
        // few ticks of slack, nowhere near a full rotation.
        obs::Watchdog &wd = *svc.watchdog();
        for (int i = 0; i < 200 && !wd.degraded(); ++i)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));

        EXPECT_TRUE(wd.degraded());
        EXPECT_GE(wd.alertCount(), 1u);
        const auto firing = wd.firingRules();
        EXPECT_NE(std::find(firing.begin(), firing.end(),
                            "accuracy-collapse"),
                  firing.end());
        EXPECT_NE(wd.alertsJsonl().find(
                      "\"rule\":\"accuracy-collapse\""),
                  std::string::npos);
        EXPECT_DOUBLE_EQ(obs::MetricsRegistry::global()
                             .gauge("livephase_slo_health")
                             .value(),
                         0.0);

        client.close(open.session_id);
        svc.stop();

        // The breach latched exactly one flight dump under the
        // rule's reason, and the dump carries the breach event.
        const std::string dumped = dumps.str();
        EXPECT_NE(dumped.find("slo:accuracy-collapse"),
                  std::string::npos);
        EXPECT_NE(dumped.find("slo.breach"), std::string::npos);
        rec.setDumpSink(nullptr);

        log = reg.point("obs.accuracy").triggerLog();
        reg.disarmAll();
    };

    std::vector<uint64_t> log_a, log_b, log_c;
    runOnce(4242, log_a);
    runOnce(4242, log_b);
    runOnce(977, log_c);
    EXPECT_GT(log_a.size(), 0u) << "fault never fired";
    EXPECT_EQ(log_a, log_b) << "same seed must replay identically";
    EXPECT_NE(log_a, log_c);
}

} // namespace

