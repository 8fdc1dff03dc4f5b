/**
 * @file
 * End-to-end livephased service tests.
 *
 * The load-bearing property is *serving equivalence*: the phase /
 * next-phase / DVFS sequence a session returns must be bit-identical
 * to a single-threaded run of the paper's pipeline (classifier ->
 * predictor -> policy, the same protocol evaluatePredictor() and the
 * kernel module's PMI handler follow) on the same stream — no matter
 * how many sessions, client threads or batch splits are in flight.
 * The reference below is computed independently from core
 * components, not by calling the service code.
 *
 * Also covered: queue-full backpressure (RetryAfter), malformed
 * frame rejection, batch limits, eviction/TTL behavior through the
 * protocol, the stats op, shutdown semantics, caller-runs serving
 * (inline when idle, bounded by the worker count, safe against
 * stop()) and the UDS transport.
 */

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/gpht_predictor.hh"
#include "core/last_value_predictor.hh"
#include "core/variable_window_predictor.hh"
#include "cpu/dvfs_table.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "service/client.hh"
#include "service/request_queue.hh"
#include "service/service.hh"
#include "service/uds_transport.hh"
#include "test_util.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

/** Serve `frame` synchronously into `rx` and parse the reply; `resp`
 *  stays valid while `rx` is unchanged. */
bool
serve(LivePhaseService &svc, ByteView frame, Bytes &rx,
      ResponseView &resp)
{
    svc.handleFrameInto(frame, rx);
    return parseResponse(rx, resp);
}

/** Submit a QueryStats frame through the leased submit() path. */
std::future<Bytes>
submitStats(LivePhaseService &svc)
{
    BufferPool::Lease frame = BufferPool::global().lease();
    encodeStatsRequestInto(*frame);
    return svc.submit(std::move(frame));
}

/** Synthesize a session's interval stream: phased Mem/Uop pattern
 *  with per-stream variation, exercising all 6 phases. */
std::vector<IntervalRecord>
makeStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<IntervalRecord> records;
    records.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        // Repetitive multi-phase pattern (applu-like) + noise.
        const double base = (i / 8) % 2 == 0 ? 0.002 : 0.025;
        const double mem_per_uop =
            std::max(0.0, base + rng.gaussian(0.0, 0.004));
        const double uops = 100e6;
        records.push_back({uops, mem_per_uop * uops,
                           static_cast<uint64_t>(i) * 1000});
    }
    return records;
}

PredictorPtr
makeReferencePredictor(PredictorKind kind,
                       const SessionManager::Config &cfg)
{
    switch (kind) {
      case PredictorKind::LastValue:
        return std::make_unique<LastValuePredictor>();
      case PredictorKind::Gpht:
        return std::make_unique<GphtPredictor>(cfg.gphr_depth,
                                               cfg.pht_entries);
      case PredictorKind::SetAssocGpht:
        return std::make_unique<GphtPredictor>(
            cfg.gphr_depth, cfg.pht_entries, cfg.sa_sets);
      case PredictorKind::VariableWindow:
        return std::make_unique<VariableWindowPredictor>(
            cfg.var_window, cfg.var_threshold);
    }
    return nullptr;
}

/**
 * The single-threaded reference: one pass of the deployed
 * PMI-handler pipeline over the stream, built directly from core
 * components.
 */
std::vector<IntervalResult>
referenceRun(const std::vector<IntervalRecord> &records,
             PredictorKind kind, const SessionManager::Config &cfg)
{
    const PhaseClassifier classifier = PhaseClassifier::table1();
    const DvfsPolicy policy =
        DvfsPolicy::table2(classifier, DvfsTable::pentiumM());
    PredictorPtr predictor = makeReferencePredictor(kind, cfg);
    predictor->reset();

    std::vector<IntervalResult> results;
    results.reserve(records.size());
    for (const IntervalRecord &rec : records) {
        const PhaseSample observed =
            classifier.sample(rec.bus_tran_mem / rec.uops);
        predictor->observe(observed);
        PhaseId next = predictor->predict();
        if (next == INVALID_PHASE)
            next = observed.phase;
        results.push_back(IntervalResult{
            observed.phase, next,
            static_cast<uint32_t>(policy.settingForPhase(next))});
    }
    return results;
}

TEST(Service, SingleSessionMatchesReference)
{
    LivePhaseService svc;
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    for (PredictorKind kind :
         {PredictorKind::LastValue, PredictorKind::Gpht,
          PredictorKind::SetAssocGpht,
          PredictorKind::VariableWindow}) {
        const auto stream =
            makeStream(1000 + static_cast<uint64_t>(kind), 200);
        const auto expected =
            referenceRun(stream, kind, svc.config().sessions);

        const auto open = client.open(kind);
        ASSERT_EQ(open.status, Status::Ok);

        // Split into uneven batches to exercise batching.
        std::vector<IntervalResult> got;
        size_t at = 0;
        const size_t sizes[] = {1, 7, 64, 13, 100, 200};
        size_t which = 0;
        while (at < stream.size()) {
            const size_t n = std::min(sizes[which++ % 6],
                                      stream.size() - at);
            const std::vector<IntervalRecord> batch(
                stream.begin() + at, stream.begin() + at + n);
            const auto reply =
                client.submitBatchRetrying(open.session_id, batch);
            ASSERT_EQ(reply.status, Status::Ok);
            got.insert(got.end(), reply.results.begin(),
                       reply.results.end());
            at += n;
        }

        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], expected[i])
                << predictorKindName(kind) << " interval " << i;
        EXPECT_EQ(client.close(open.session_id), Status::Ok);
    }
}

TEST(Service, ConcurrentSessionsMatchSequentialRuns)
{
    // >= 64 sessions across >= 8 client threads (acceptance bar).
    constexpr size_t THREADS = 8;
    constexpr size_t SESSIONS_PER_THREAD = 8;
    constexpr size_t INTERVALS = 96;

    LivePhaseService::Config cfg;
    cfg.workers = 4;
    cfg.queue_capacity = 64;
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);

    const PredictorKind kinds[] = {
        PredictorKind::LastValue, PredictorKind::Gpht,
        PredictorKind::SetAssocGpht, PredictorKind::VariableWindow};

    std::atomic<bool> failed{false};
    std::vector<std::thread> clients;
    for (size_t t = 0; t < THREADS; ++t) {
        clients.emplace_back([&, t] {
            ServiceClient client(transport);
            Rng rng(7000 + t);
            for (size_t s = 0; s < SESSIONS_PER_THREAD; ++s) {
                const PredictorKind kind =
                    kinds[(t * SESSIONS_PER_THREAD + s) % 4];
                const auto stream = makeStream(
                    t * 100 + s, INTERVALS);

                const auto open = client.open(kind);
                if (open.status != Status::Ok) {
                    failed = true;
                    return;
                }
                std::vector<IntervalResult> got;
                size_t at = 0;
                while (at < stream.size()) {
                    // Random batch sizes interleave sessions hard.
                    const size_t n = std::min<size_t>(
                        static_cast<size_t>(rng.uniformInt(1, 32)),
                        stream.size() - at);
                    const std::vector<IntervalRecord> batch(
                        stream.begin() + at,
                        stream.begin() + at + n);
                    const auto reply = client.submitBatchRetrying(
                        open.session_id, batch);
                    if (reply.status != Status::Ok) {
                        failed = true;
                        return;
                    }
                    got.insert(got.end(), reply.results.begin(),
                               reply.results.end());
                    at += n;
                }
                const auto expected = referenceRun(
                    stream, kind, svc.config().sessions);
                if (got != expected)
                    failed = true;
                if (client.close(open.session_id) != Status::Ok)
                    failed = true;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_FALSE(failed.load())
        << "a concurrent session diverged from its "
           "single-threaded reference";

    const StatsSnapshot snap = svc.stats();
    EXPECT_EQ(snap.sessions_opened, THREADS * SESSIONS_PER_THREAD);
    EXPECT_EQ(snap.sessions_closed, THREADS * SESSIONS_PER_THREAD);
    EXPECT_EQ(snap.intervals_processed,
              THREADS * SESSIONS_PER_THREAD * INTERVALS);
}

TEST(Service, QueueFullBackpressure)
{
    LivePhaseService::Config cfg;
    cfg.workers = 0; // drain manually -> deterministic queue state
    cfg.queue_capacity = 2;
    LivePhaseService svc(cfg);

    auto f1 = submitStats(svc);
    auto f2 = submitStats(svc);
    auto f3 = submitStats(svc); // over capacity

    // The rejected request resolves immediately with RetryAfter.
    ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const Bytes r3 = f3.get();
    ResponseView resp;
    ASSERT_TRUE(parseResponse(r3, resp));
    EXPECT_EQ(resp.status, Status::RetryAfter);
    EXPECT_EQ(static_cast<Op>(resp.header.op), Op::QueryStats);

    // Accepted requests are still pending, then drain to Ok.
    EXPECT_NE(f1.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(svc.drainOne());
    EXPECT_TRUE(svc.drainOne());
    EXPECT_FALSE(svc.drainOne());
    const Bytes r1 = f1.get();
    ASSERT_TRUE(parseResponse(r1, resp));
    EXPECT_EQ(resp.status, Status::Ok);
    const Bytes r2 = f2.get();
    ASSERT_TRUE(parseResponse(r2, resp));
    EXPECT_EQ(resp.status, Status::Ok);

    const StatsSnapshot snap = svc.stats();
    EXPECT_EQ(snap.rejected_queue_full, 1u);
    EXPECT_EQ(snap.queue_high_water, 2u);

    // Capacity is available again.
    auto f4 = submitStats(svc);
    EXPECT_TRUE(svc.drainOne());
    const Bytes r4 = f4.get();
    ASSERT_TRUE(parseResponse(r4, resp));
    EXPECT_EQ(resp.status, Status::Ok);
}

TEST(Service, MalformedFramesRejected)
{
    LivePhaseService svc;

    // Garbage bytes.
    Bytes rx;
    ResponseView resp;
    ASSERT_TRUE(serve(svc, Bytes{0xde, 0xad, 0xbe, 0xef}, rx, resp));
    EXPECT_EQ(resp.status, Status::BadFrame);

    // Valid header, wrong magic.
    Bytes frame = ENCODED(encodeStatsRequestInto);
    frame[0] ^= 0xff;
    ASSERT_TRUE(serve(svc, frame, rx, resp));
    EXPECT_EQ(resp.status, Status::BadFrame);

    // Invalid interval record (uops = 0) in a well-formed frame.
    ASSERT_TRUE(serve(svc,
                      ENCODED(encodeOpenRequestInto,
                              PredictorKind::LastValue),
                      rx, resp));
    ASSERT_EQ(resp.status, Status::Ok);
    const uint64_t sid = resp.header.session_id;
    const std::vector<IntervalRecord> zero_uops = {{0.0, 1.0, 0}};
    ASSERT_TRUE(serve(svc,
                      ENCODED(encodeSubmitRequestInto, sid, zero_uops),
                      rx, resp));
    EXPECT_EQ(resp.status, Status::BadFrame);

    EXPECT_EQ(svc.stats().frames_malformed, 3u);
}

TEST(Service, UnknownSessionAndPredictor)
{
    LivePhaseService svc;
    Bytes rx;
    ResponseView resp;

    const std::vector<IntervalRecord> one = {{100e6, 1e6, 0}};
    ASSERT_TRUE(serve(svc, ENCODED(encodeSubmitRequestInto, 12345, one),
                      rx, resp));
    EXPECT_EQ(resp.status, Status::UnknownSession);

    ASSERT_TRUE(
        serve(svc, ENCODED(encodeCloseRequestInto, 12345), rx, resp));
    EXPECT_EQ(resp.status, Status::UnknownSession);

    Bytes open = ENCODED(encodeOpenRequestInto, PredictorKind::LastValue);
    open[FRAME_HEADER_SIZE] = 99; // unsupported predictor kind
    ASSERT_TRUE(serve(svc, open, rx, resp));
    EXPECT_EQ(resp.status, Status::UnknownPredictor);
}

TEST(Service, BatchTooLarge)
{
    LivePhaseService::Config cfg;
    cfg.max_batch = 8;
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto open = client.open(PredictorKind::LastValue);
    ASSERT_EQ(open.status, Status::Ok);
    const auto reply =
        client.submitBatch(open.session_id, makeStream(1, 9));
    EXPECT_EQ(reply.status, Status::BatchTooLarge);
    EXPECT_EQ(client
                  .submitBatch(open.session_id, makeStream(1, 8))
                  .status,
              Status::Ok);
}

TEST(Service, EvictionAndTtlThroughProtocol)
{
    uint64_t now_ns = 0;
    LivePhaseService::Config cfg;
    cfg.workers = 1;
    cfg.sessions.shards = 1;
    cfg.sessions.max_sessions = 2;
    cfg.sessions.idle_ttl_ns = 1000;
    const PhaseClassifier classifier = PhaseClassifier::table1();
    LivePhaseService svc(
        cfg, classifier,
        DvfsPolicy::table2(classifier, DvfsTable::pentiumM()),
        [&now_ns] { return now_ns; });
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto a = client.open(PredictorKind::LastValue);
    const auto b = client.open(PredictorKind::LastValue);
    ASSERT_EQ(a.status, Status::Ok);
    ASSERT_EQ(b.status, Status::Ok);

    // Third open evicts LRU session `a`.
    const auto c = client.open(PredictorKind::LastValue);
    ASSERT_EQ(c.status, Status::Ok);
    EXPECT_EQ(client.submitBatch(a.session_id, makeStream(1, 1))
                  .status,
              Status::UnknownSession);
    EXPECT_EQ(client.submitBatch(b.session_id, makeStream(1, 1))
                  .status,
              Status::Ok);

    // Idle past the TTL: the next touch observes expiry.
    now_ns += 2000;
    EXPECT_EQ(client.submitBatch(b.session_id, makeStream(1, 1))
                  .status,
              Status::UnknownSession);

    const auto stats = client.queryStats();
    ASSERT_EQ(stats.status, Status::Ok);
    EXPECT_EQ(stats.stats.sessions_evicted_lru, 1u);
    EXPECT_GE(stats.stats.sessions_expired_ttl, 1u);
}

TEST(Service, StatsOpReportsTraffic)
{
    LivePhaseService svc;
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    ASSERT_EQ(client
                  .submitBatchRetrying(open.session_id,
                                       makeStream(3, 256))
                  .status,
              Status::Ok);

    const auto reply = client.queryStats();
    ASSERT_EQ(reply.status, Status::Ok);
    const StatsSnapshot &snap = reply.stats;
    EXPECT_EQ(snap.sessions_opened, 1u);
    EXPECT_EQ(snap.sessions_open, 1u);
    EXPECT_EQ(snap.intervals_processed, 256u);
    EXPECT_EQ(snap.batches_processed, 1u);
    EXPECT_EQ(snap.batch_hist[batchHistBucket(256)], 1u);
    const auto raw_submit =
        static_cast<size_t>(Op::SubmitBatch) - 1;
    EXPECT_EQ(snap.op_latency[raw_submit].count, 1u);
    EXPECT_GT(snap.op_latency[raw_submit].max_us, 0.0);
    // A lone client finds the service idle every time: all of its
    // frames are served inline and none ever touches the queue.
    EXPECT_EQ(snap.queue_high_water, 0u);
}

TEST(Service, QueuedFramesRaiseHighWater)
{
    LivePhaseService::Config cfg;
    cfg.workers = 0; // manual drain: never served inline
    LivePhaseService svc(cfg);

    auto reply = submitStats(svc);
    EXPECT_NE(reply.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(svc.stats().queue_high_water, 1u);
    EXPECT_TRUE(svc.drainOne());
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const Bytes rx = reply.get();
    ResponseView resp;
    ASSERT_TRUE(parseResponse(rx, resp));
    EXPECT_EQ(resp.status, Status::Ok);
    EXPECT_EQ(svc.stats().queue_high_water, 1u);
}

TEST(Service, IdleSubmitIsServedInline)
{
    obs::Counter &inline_frames =
        obs::MetricsRegistry::global().counter(
            "livephase_service_inline_frames_total");
    const uint64_t before = inline_frames.value();

    LivePhaseService::Config cfg;
    cfg.workers = 2;
    LivePhaseService svc(cfg);
    auto reply = submitStats(svc);
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const Bytes rx = reply.get();
    ResponseView resp;
    ASSERT_TRUE(parseResponse(rx, resp));
    EXPECT_EQ(resp.status, Status::Ok);
    EXPECT_EQ(inline_frames.value() - before, 1u);
    EXPECT_EQ(svc.stats().queue_high_water, 0u);
}

TEST(Service, InlineServingIsBoundedByWorkerCount)
{
    // The injected clock runs inside every served frame (session
    // lookup and completion stamp), so concurrent clock callers are
    // a lower bound on frames in service. It lingers to make any
    // overlap visible.
    std::atomic<int> inside{0};
    std::atomic<int> peak{0};
    auto clock = [&inside, &peak] {
        const int now_inside = inside.fetch_add(1) + 1;
        int seen = peak.load();
        while (now_inside > seen &&
               !peak.compare_exchange_weak(seen, now_inside)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        inside.fetch_sub(1);
        return uint64_t{0};
    };
    LivePhaseService::Config cfg;
    cfg.workers = 1;
    const PhaseClassifier classifier = PhaseClassifier::table1();
    LivePhaseService svc(
        cfg, classifier,
        DvfsPolicy::table2(classifier, DvfsTable::pentiumM()),
        clock);

    constexpr size_t CLIENTS = 8;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < CLIENTS; ++c) {
        clients.emplace_back([&svc, c] {
            InProcessTransport transport(svc);
            ServiceClient client(transport);
            const auto open = client.open(PredictorKind::LastValue);
            ASSERT_EQ(open.status, Status::Ok);
            const auto stream = makeStream(c, 20);
            for (const IntervalRecord &rec : stream)
                ASSERT_EQ(client
                              .submitBatchRetrying(open.session_id,
                                                   {rec})
                              .status,
                          Status::Ok);
        });
    }
    for (std::thread &t : clients)
        t.join();

    // One inline frame plus one pool frame at most (workers = 1).
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), 2);
}

TEST(Service, StopRacingSubmittersResolvesEveryFuture)
{
    LivePhaseService::Config cfg;
    cfg.workers = 2;
    auto svc = std::make_unique<LivePhaseService>(cfg);

    constexpr size_t CLIENTS = 8;
    std::atomic<size_t> served{0};
    std::atomic<size_t> bad{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < CLIENTS; ++c) {
        clients.emplace_back([&] {
            for (;;) {
                const Bytes rx = submitStats(*svc).get();
                ResponseView resp;
                if (!parseResponse(rx, resp)) {
                    bad.fetch_add(1);
                    return;
                }
                if (resp.status == Status::ShuttingDown)
                    return;
                if (resp.status != Status::Ok) {
                    bad.fetch_add(1);
                    return;
                }
                served.fetch_add(1);
            }
        });
    }
    while (served.load() < 200 && bad.load() == 0)
        std::this_thread::yield();
    svc->stop();
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(bad.load(), 0u);
    svc.reset();
}

TEST(Service, ConstructorReturnsWithEveryWorkerRegistered)
{
    // A worker that registers with the profiling plane after the
    // constructor returns makes that registration's allocations
    // inside the caller's first requests, where the allocation gate
    // (bench_pipeline_allocs, which counts every thread) sees them.
    const obs::Profiler &prof = obs::Profiler::global();
    const size_t idle = prof.threadCount();
    for (int round = 0; round < 20; ++round) {
        LivePhaseService::Config cfg;
        cfg.workers = 3;
        LivePhaseService svc(cfg);
        ASSERT_EQ(prof.threadCount(), idle + 3) << "round " << round;
    }
    EXPECT_EQ(prof.threadCount(), idle);
}

TEST(Service, ShutdownRefusesNewWork)
{
    LivePhaseService svc;
    svc.stop();
    const Bytes rx = submitStats(svc).get();
    ResponseView resp;
    ASSERT_TRUE(parseResponse(rx, resp));
    EXPECT_EQ(resp.status, Status::ShuttingDown);
}

TEST(Service, UdsTransportRoundTrip)
{
    LivePhaseService svc;
    const std::string path =
        "/tmp/livephased_test_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    ServiceClient client(transport);

    const auto stream = makeStream(42, 64);
    const auto expected = referenceRun(stream, PredictorKind::Gpht,
                                       svc.config().sessions);

    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    std::vector<IntervalResult> got;
    for (size_t at = 0; at < stream.size(); at += 16) {
        const std::vector<IntervalRecord> batch(
            stream.begin() + at, stream.begin() + at + 16);
        const auto reply =
            client.submitBatchRetrying(open.session_id, batch);
        ASSERT_EQ(reply.status, Status::Ok);
        got.insert(got.end(), reply.results.begin(),
                   reply.results.end());
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(client.close(open.session_id), Status::Ok);

    server.stop();
}

TEST(Service, ProfiledDaemonSamplesUdsConnectionThreads)
{
    LivePhaseService::Config cfg;
    cfg.profiler.enabled = true;
    cfg.profiler.sample_hz = 997;
    cfg.profiler.counters = false;
    LivePhaseService svc(cfg);
    obs::Profiler &prof = obs::Profiler::global();
    if (!prof.running())
        GTEST_SKIP() << "per-thread CPU timers unavailable";
    const std::string path =
        "/tmp/livephased_prof_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start()) {
        prof.stop();
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";
    }

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    ServiceClient client(transport);
    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    const auto batch = makeStream(7, 256);
    auto connSampled = [&prof] {
        for (const obs::StackSample &s : prof.snapshot())
            if (std::string(s.thread_name) == "uds-conn")
                return true;
        return false;
    };
    // An idle service serves every frame on the connection thread,
    // so that is where the CPU time, and the samples, land.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool sampled = false;
    while (!sampled && std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < 20; ++i)
            ASSERT_EQ(client.submitBatchRetrying(open.session_id, batch)
                          .status,
                      Status::Ok);
        sampled = connSampled();
    }
    server.stop();
    prof.stop();
    prof.reset();
    EXPECT_TRUE(sampled);
}

TEST(Service, UdsRejectsDesynchronizedStream)
{
    LivePhaseService svc;
    const std::string path =
        "/tmp/livephased_badmagic_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());

    Bytes frame = ENCODED(encodeStatsRequestInto);
    frame[0] ^= 0xff; // corrupt magic
    Bytes response;
    ASSERT_TRUE(transport.roundTripInto(frame, response));
    ResponseView resp;
    ASSERT_TRUE(parseResponse(response, resp));
    EXPECT_EQ(resp.status, Status::BadFrame);
    EXPECT_EQ(svc.stats().frames_malformed, 1u);

    // The stream cannot be resynchronized: the server hangs up, so
    // the next round trip fails at the transport.
    EXPECT_FALSE(transport.roundTripInto(ENCODED(encodeStatsRequestInto),
                                         response));

    server.stop();
}

/** Wait up to 10 s for `counter` to reach `target`. */
bool
waitForCount(const obs::Counter &counter, uint64_t target)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (counter.value() < target) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

obs::Counter &
udsClosedCounter()
{
    return obs::MetricsRegistry::global().counter(
        "livephase_uds_connections_closed_total");
}

/** The process's open descriptor numbers. */
std::set<int>
openFds()
{
    std::set<int> fds;
    DIR *dir = ::opendir("/proc/self/fd");
    if (!dir)
        return fds;
    while (const dirent *entry = ::readdir(dir)) {
        const int fd = std::atoi(entry->d_name);
        if (entry->d_name[0] != '.' && fd != ::dirfd(dir))
            fds.insert(fd);
    }
    ::closedir(dir);
    return fds;
}

TEST(Service, UdsStopLeavesReusedFdNumbersAlone)
{
    // A finished connection's descriptor number is free for reuse;
    // stop() must not shut down whatever socket took it since.
    LivePhaseService svc;
    const std::string path =
        "/tmp/livephased_fdreuse_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";
    obs::Counter &closed = udsClosedCounter();
    const uint64_t before = closed.value();

    // The server's end of the connection: the new socket bound to
    // the server's path (the client's own socket is unnamed).
    const std::set<int> idle = openFds();
    int server_fd = -1;
    {
        UdsClientTransport transport(path);
        ASSERT_TRUE(transport.connect());
        Bytes rx;
        ASSERT_TRUE(transport.roundTripInto(
            ENCODED(encodeStatsRequestInto), rx));
        for (const int fd : openFds()) {
            sockaddr_un addr{};
            socklen_t len = sizeof(addr);
            if (!idle.count(fd) &&
                ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                              &len) == 0 &&
                addr.sun_family == AF_UNIX && path == addr.sun_path)
                server_fd = fd;
        }
    }
    ASSERT_GE(server_fd, 0);
    ASSERT_TRUE(waitForCount(closed, before + 1));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (::fcntl(server_fd, F_GETFD) != -1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(::fcntl(server_fd, F_GETFD), -1);

    // Descriptors are allocated lowest first, so a few socket pairs
    // take the freed number.
    std::vector<std::array<int, 2>> pairs;
    bool reused = false;
    for (int i = 0; i < 64 && !reused; ++i) {
        int pair[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
        pairs.push_back({pair[0], pair[1]});
        reused = pair[0] == server_fd || pair[1] == server_fd;
    }
    ASSERT_TRUE(reused);
    server.stop();

    // Every pair still carries bytes both ways.
    for (const auto &[a, b] : pairs) {
        const char ping = 'p';
        char got = 0;
        EXPECT_EQ(::send(a, &ping, 1, MSG_NOSIGNAL), 1) << "fd " << a;
        EXPECT_EQ(::recv(b, &got, 1, MSG_DONTWAIT), 1) << "fd " << a;
        EXPECT_EQ(::send(b, &ping, 1, MSG_NOSIGNAL), 1) << "fd " << a;
        EXPECT_EQ(::recv(a, &got, 1, MSG_DONTWAIT), 1) << "fd " << a;
        ::close(a);
        ::close(b);
    }
}

TEST(Service, UdsServerJoinsFinishedConnectionThreads)
{
    LivePhaseService svc;
    const std::string path =
        "/tmp/livephased_reap_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";
    obs::Counter &closed = udsClosedCounter();
    const uint64_t before = closed.value();

    const Bytes stats = ENCODED(encodeStatsRequestInto);
    Bytes rx;
    for (uint64_t i = 1; i <= 64; ++i) {
        {
            UdsClientTransport transport(path);
            ASSERT_TRUE(transport.connect());
            ASSERT_TRUE(transport.roundTripInto(stats, rx));
        }
        ASSERT_TRUE(waitForCount(closed, before + i));
    }
    // Accepting one more connection joins every finished thread, so
    // the server holds exactly the live one.
    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    ASSERT_TRUE(transport.roundTripInto(stats, rx));
    EXPECT_EQ(server.connectionThreads(), 1u);
    server.stop();
}

/** CPU time the whole process has used so far, in microseconds. */
uint64_t
processCpuUs()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto us = [](const timeval &tv) {
        return static_cast<uint64_t>(tv.tv_sec) * 1'000'000u +
            static_cast<uint64_t>(tv.tv_usec);
    };
    return us(ru.ru_utime) + us(ru.ru_stime);
}

TEST(Service, UdsIdleConnectionSpendsNoCpu)
{
    // Both ends spin before they block on a frame wait; a connection
    // that goes quiet must stop costing CPU once the budget is spent.
    LivePhaseService svc;
    const std::string path =
        "/tmp/livephased_idle_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    const Bytes stats = ENCODED(encodeStatsRequestInto);
    Bytes rx;
    ASSERT_TRUE(transport.roundTripInto(stats, rx));
    const uint64_t before = processCpuUs();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LT(processCpuUs() - before, 10'000u)
        << "us of process CPU while the connection sat idle for 200 ms";
    EXPECT_TRUE(transport.roundTripInto(stats, rx));
    server.stop();
}

TEST(Service, UdsStopEndsABusyConnectionPromptly)
{
    // stop() shuts the connection down while its thread is waiting
    // for the next frame, spinning or blocked: either way it returns.
    LivePhaseService svc;
    const std::string path =
        "/tmp/livephased_busystop_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";

    std::atomic<uint64_t> trips{0};
    std::thread client([&] {
        UdsClientTransport transport(path);
        if (!transport.connect())
            return;
        const Bytes stats = ENCODED(encodeStatsRequestInto);
        Bytes rx;
        while (transport.roundTripInto(stats, rx))
            trips.fetch_add(1);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (trips.load() < 100 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(trips.load(), 100u);

    const auto start = std::chrono::steady_clock::now();
    server.stop();
    const auto took = std::chrono::steady_clock::now() - start;
    client.join();
    EXPECT_LT(took, std::chrono::seconds(1));
    EXPECT_EQ(server.connectionThreads(), 0u);
}

TEST(Service, UdsClientGrowsItsReplyBufferForALargerReply)
{
    // The client recycles its reply buffer across round trips; a
    // reply longer than the last (1024 results right after one) must
    // grow it and come back whole.
    LivePhaseService svc;
    const std::string path =
        "/tmp/livephased_grow_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    Bytes rx;
    ResponseView resp;
    ASSERT_TRUE(transport.roundTripInto(
        ENCODED(encodeOpenRequestInto, PredictorKind::Gpht), rx));
    ASSERT_TRUE(parseResponse(rx, resp));
    ASSERT_EQ(resp.status, Status::Ok);
    const uint64_t session = resp.header.session_id;

    const auto stream = makeStream(11, 1 + 1024 + 1);
    const auto expected = referenceRun(stream, PredictorKind::Gpht,
                                       svc.config().sessions);
    std::vector<IntervalResult> got;
    std::vector<IntervalResult> part;
    size_t at = 0;
    for (const size_t n : {1u, 1024u, 1u}) {
        const size_t before = rx.size();
        ASSERT_TRUE(transport.roundTripInto(
            ENCODED(encodeSubmitRequestInto, session,
                    RecordView(stream).subspan(at, n)),
            rx));
        if (n == 1024) {
            EXPECT_GT(rx.size(), before);
        }
        ASSERT_TRUE(parseResponse(rx, resp));
        ASSERT_EQ(resp.status, Status::Ok);
        ASSERT_TRUE(decodeSubmitResultsInto(resp.body, part));
        ASSERT_EQ(part.size(), n);
        got.insert(got.end(), part.begin(), part.end());
        at += n;
    }
    EXPECT_EQ(got, expected);
    server.stop();
}

/** Send all of `bytes` on a test socket. */
void
sendBytes(int fd, const uint8_t *bytes, size_t n)
{
    while (n > 0) {
        const ssize_t sent = ::send(fd, bytes, n, MSG_NOSIGNAL);
        ASSERT_GT(sent, 0);
        bytes += sent;
        n -= static_cast<size_t>(sent);
    }
}

/** Read one whole request frame off a test socket. */
void
recvRequest(int fd)
{
    uint8_t header[FRAME_HEADER_SIZE];
    ASSERT_EQ(::recv(fd, header, sizeof(header), MSG_WAITALL),
              static_cast<ssize_t>(sizeof(header)));
    const auto parsed = peekHeader(header, sizeof(header));
    ASSERT_TRUE(parsed);
    Bytes payload(parsed->payload_size);
    if (!payload.empty()) {
        ASSERT_EQ(::recv(fd, payload.data(), payload.size(), MSG_WAITALL),
                  static_cast<ssize_t>(payload.size()));
    }
}

TEST(Service, UdsClientReadsAReplyThatArrivesInPieces)
{
    // A bare socket stands in for the server, so the test decides how
    // the reply's bytes arrive: split inside the header (the frame
    // wait's first recv takes only part of it) and inside the
    // payload, then whole.
    const std::string path =
        "/tmp/livephased_pieces_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ::unlink(path.c_str());
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 1) != 0) {
        if (listener >= 0)
            ::close(listener);
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";
    }

    const Bytes body(300, 0x5a);
    const Bytes reply =
        ENCODED(encodeResponseInto,
                static_cast<uint16_t>(Op::QueryStats), 0, Status::Ok,
                ByteView(body));
    std::thread peer([&] {
        const int fd = ::accept(listener, nullptr, nullptr);
        ASSERT_GE(fd, 0);
        recvRequest(fd);
        for (const auto &[from, to] : {std::pair<size_t, size_t>{0, 7},
                                       {7, 60},
                                       {60, reply.size()}}) {
            sendBytes(fd, reply.data() + from, to - from);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        recvRequest(fd);
        sendBytes(fd, reply.data(), reply.size());
        ::close(fd);
    });

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    const Bytes stats = ENCODED(encodeStatsRequestInto);
    Bytes rx;
    for (int trip = 0; trip < 2; ++trip) {
        EXPECT_TRUE(transport.roundTripInto(stats, rx));
        EXPECT_EQ(rx, reply);
    }
    peer.join();
    ::close(listener);
    ::unlink(path.c_str());
}

TEST(Service, HandleFrameIntoMatchesOwningHandleFrame)
{
    // The synchronous handleFrameInto() path and the leased submit()
    // path (through InProcessTransport) must produce byte-identical
    // responses for every op and for malformed input.
    LivePhaseService svc;
    InProcessTransport transport(svc);
    Bytes rx_sync, rx_submit;

    // Deterministic (state-independent) responses must agree
    // byte-for-byte between the two entry points.
    const auto both = [&](const Bytes &frame) {
        svc.handleFrameInto(ByteView(frame), rx_sync);
        ASSERT_TRUE(transport.roundTripInto(frame, rx_submit));
        EXPECT_EQ(rx_sync, rx_submit);
    };

    ResponseView resp;
    const Bytes open = ENCODED(encodeOpenRequestInto, PredictorKind::Gpht);
    ASSERT_TRUE(serve(svc, open, rx_sync, resp));
    ASSERT_EQ(resp.status, Status::Ok);
    const uint64_t sid = resp.header.session_id;

    // Two sessions fed the same stream stay in lockstep, so the
    // submit responses agree between the two entry points.
    ASSERT_TRUE(transport.roundTripInto(open, rx_submit));
    ASSERT_TRUE(parseResponse(rx_submit, resp));
    const uint64_t sid2 = resp.header.session_id;
    const auto stream = makeStream(7, 64);
    Bytes tx;
    for (size_t at = 0; at < stream.size(); at += 16) {
        const RecordView batch(stream.data() + at, 16);
        encodeSubmitRequestInto(tx, sid, batch);
        svc.handleFrameInto(ByteView(tx), rx_sync);
        encodeSubmitRequestInto(tx, sid2, batch);
        ASSERT_TRUE(transport.roundTripInto(tx, rx_submit));
        ResponseView a, b;
        ASSERT_TRUE(parseResponse(rx_sync, a));
        ASSERT_TRUE(parseResponse(rx_submit, b));
        EXPECT_EQ(a.status, Status::Ok);
        EXPECT_EQ(b.status, Status::Ok);
        // Identical result arrays.
        EXPECT_TRUE(std::equal(a.body.begin(), a.body.end(),
                               b.body.begin(), b.body.end()));
    }

    both(Bytes{0xde, 0xad, 0xbe, 0xef}); // malformed
    const std::vector<IntervalRecord> one = {{100e6, 1e6, 0}};
    both(ENCODED(encodeSubmitRequestInto, 999999, one)); // no session
    both(ENCODED(encodeCloseRequestInto, 888888)); // unknown session
}

TEST(Service, QueueRingWrapsAroundWithoutLosingItems)
{
    BoundedMpmcQueue<int> q(4);
    EXPECT_EQ(q.capacity(), 4u);
    // March head around the ring several times with mixed
    // occupancy, verifying FIFO order across the wrap.
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 5; ++round) {
        EXPECT_TRUE(q.tryPush(next_in++));
        EXPECT_TRUE(q.tryPush(next_in++));
        EXPECT_TRUE(q.tryPush(next_in++));
        auto a = q.tryPop();
        auto b = q.tryPop();
        ASSERT_TRUE(a && b);
        EXPECT_EQ(*a, next_out++);
        EXPECT_EQ(*b, next_out++);
        auto c = q.tryPop();
        ASSERT_TRUE(c);
        EXPECT_EQ(*c, next_out++);
    }
    EXPECT_EQ(q.depth(), 0u);

    // Fill to capacity across a wrapped head; overflow is rejected.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.tryPush(100 + i));
    EXPECT_FALSE(q.tryPush(999));
    EXPECT_EQ(q.highWaterMark(), 4u);

    // Drain-after-close still yields every accepted item in order.
    q.close();
    EXPECT_FALSE(q.tryPush(777));
    for (int i = 0; i < 4; ++i) {
        auto item = q.pop();
        ASSERT_TRUE(item);
        EXPECT_EQ(*item, 100 + i);
    }
    EXPECT_FALSE(q.pop());
}

} // namespace
