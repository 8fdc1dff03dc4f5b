#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "fault/failpoint.hh"
#include "obs/exposition.hh"
#include "obs/flight_recorder.hh"
#include "obs/phase_telemetry.hh"
#include "obs/profiler.hh"
#include "obs/runtime.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

namespace livephase::service
{

namespace
{

/** Little-endian u32 retry advice on the stack — the alloc-free
 *  twin of encodeRetryAdviceInto for in-flight response paths. */
struct RetryAdvice
{
    uint8_t buf[4];

    explicit RetryAdvice(uint32_t ms)
        : buf{static_cast<uint8_t>(ms),
              static_cast<uint8_t>(ms >> 8),
              static_cast<uint8_t>(ms >> 16),
              static_cast<uint8_t>(ms >> 24)}
    {
    }

    ByteView view() const { return ByteView(buf, sizeof(buf)); }
};

} // namespace

LivePhaseService::LivePhaseService()
    : LivePhaseService(Config{})
{
}

LivePhaseService::LivePhaseService(Config config)
    : cfg(config), manager(cfg.sessions, &counters),
      queue(cfg.queue_capacity)
{
    if (cfg.max_batch == 0)
        fatal("LivePhaseService: max_batch must be > 0");
    initAdmission();
    initWatchdog();
    initProfiler();
    pool.reserve(cfg.workers);
    for (size_t i = 0; i < cfg.workers; ++i)
        pool.emplace_back([this] { workerLoop(); });
}

LivePhaseService::LivePhaseService(Config config,
                                   PhaseClassifier classifier,
                                   DvfsPolicy policy,
                                   SessionManager::Clock clock)
    : cfg(config),
      manager(cfg.sessions, std::move(classifier), std::move(policy),
              &counters, std::move(clock)),
      queue(cfg.queue_capacity)
{
    if (cfg.max_batch == 0)
        fatal("LivePhaseService: max_batch must be > 0");
    initAdmission();
    initWatchdog();
    initProfiler();
    pool.reserve(cfg.workers);
    for (size_t i = 0; i < cfg.workers; ++i)
        pool.emplace_back([this] { workerLoop(); });
}

void
LivePhaseService::initAdmission()
{
    if (!cfg.admission.enabled)
        return;
    admission::Signals signals;
    signals.queue_depth = [this] { return queue.depth(); };
    signals.queue_capacity = [this] { return queue.capacity(); };
    signals.evictions = [this] { return counters.evictionsTotal(); };
    signals.pool_exhausted = [] {
        // BufferPool misses = leases that had to heap-allocate —
        // the pool's free list was exhausted by in-flight frames.
        static obs::Counter &misses =
            obs::MetricsRegistry::global().counter(
                "livephase_alloc_pool_misses_total");
        return misses.value();
    };
    signals.queue_wait = [] {
        obs::Histogram &hist = obs::queueWaitSecondsHistogram();
        return std::pair<uint64_t, double>{hist.count(), hist.sum()};
    };
    // initWatchdog() runs after initAdmission(), so the lambda must
    // re-read the pointer each tick rather than capture it.
    signals.health_degraded = [this] {
        return slo_watchdog && slo_watchdog->degraded();
    };
    admit_ctl = std::make_unique<admission::AdmissionControl>(
        cfg.admission, std::move(signals));
    admit_ctl->start();
}

void
LivePhaseService::initWatchdog()
{
    if (!cfg.watchdog.enabled)
        return;
    obs::WatchdogConfig wd;
    wd.eval_interval_ns = cfg.watchdog.eval_interval_ns;
    if (!cfg.watchdog.rules.empty()) {
        auto rules = obs::parseWatchdogRules(cfg.watchdog.rules);
        if (!rules)
            fatal("LivePhaseService: malformed watchdog rule spec");
        wd.rules = std::move(*rules);
    }
    slo_watchdog = std::make_unique<obs::Watchdog>(wd);
    slo_watchdog->start();
}

void
LivePhaseService::initProfiler()
{
    if (!cfg.profiler.enabled)
        return;
    obs::ProfilerConfig pc;
    pc.sample_hz = cfg.profiler.sample_hz;
    pc.counters = cfg.profiler.counters;
    // The plane is process-global and refcount-free: a second
    // service's start() is an idempotent no-op, and stop() is the
    // operator's (or the simulator's) call, not ours — samples
    // should keep flowing across service restarts.
    obs::Profiler::global().start(pc);
}

LivePhaseService::~LivePhaseService()
{
    stop();
}

void
LivePhaseService::stop()
{
    if (stopping.exchange(true))
        return;
    if (slo_watchdog)
        slo_watchdog->stop();
    if (admit_ctl)
        admit_ctl->stop();
    queue.close();
    for (std::thread &worker : pool)
        worker.join();
    pool.clear();
    // A caller that claimed its slot before `stopping` was set may
    // still be serving inline; one that claims after sees `stopping`
    // and backs out, so once the count reads 0 no frame is served.
    for (size_t busy = in_service.load(); busy != 0;
         busy = in_service.load())
        in_service.wait(busy);
    // Anything still queued (workers == 0 mode) must not leave its
    // client's future dangling.
    while (auto req = queue.tryPop())
        req->reply.set_value(rejectionResponse(
            ByteView(*req->frame), Status::ShuttingDown));
}

Bytes
LivePhaseService::rejectionResponse(ByteView request_frame,
                                    Status status, ByteView body)
{
    uint16_t raw_op = 0;
    uint64_t session_id = 0;
    uint16_t version = PROTOCOL_VERSION;
    if (const auto header = peekHeader(request_frame.data(),
                                       request_frame.size())) {
        raw_op = header->op;
        session_id = header->session_id;
        version = header->version; // encodeResponseInto clamps
    }
    Bytes out;
    encodeResponseInto(out, raw_op, session_id, status, body,
                       version);
    return out;
}

uint32_t
LivePhaseService::retryAfterMs() const
{
    // Expected time for the current backlog to drain: queued
    // requests times the measured per-request handle latency,
    // spread across the worker pool. Replaces the old constant —
    // a client of a fast service retries in ~1ms, one behind a
    // deep queue of slow batches waits proportionally longer.
    const double per_request_us =
        handle_ewma_us.load(std::memory_order_relaxed);
    if (per_request_us <= 0.0)
        return 1; // no drain-rate sample yet
    const double workers =
        static_cast<double>(std::max<size_t>(cfg.workers, 1));
    const double ms = static_cast<double>(queue.depth() + 1) *
        per_request_us / (workers * 1000.0);
    if (!(ms >= 1.0))
        return 1;
    return ms > 1000.0 ? 1000 : static_cast<uint32_t>(std::ceil(ms));
}

bool
LivePhaseService::shedEarly(ByteView request_frame, Bytes &response)
{
    if (!admit_ctl)
        return false;
    const auto header =
        peekHeader(request_frame.data(), request_frame.size());
    if (!header || static_cast<Op>(header->op) != Op::SubmitBatch)
        return false;
    const admission::Decision verdict =
        admit_ctl->decide(peekTenantTag(request_frame));
    if (verdict.admit)
        return false;
    const RetryAdvice advice(verdict.retry_after_ms);
    encodeResponseInto(response, header->op, header->session_id,
                       Status::Throttled, advice.view(),
                       header->version);
    return true;
}

std::future<Bytes>
LivePhaseService::submit(BufferPool::Lease request_frame,
                         bool pre_admitted)
{
    Request req;
    req.frame = std::move(request_frame);
    // The enqueue stamp is both span telemetry and — when admission
    // control is on — the controller's wait signal, so it must flow
    // even with obs span timing disabled.
    if (admit_ctl || obs::enabled())
        req.enqueue_ns = obs::monoNowNs();
    std::future<Bytes> result = req.reply.get_future();

    if (stopping.load(std::memory_order_acquire)) {
        req.reply.set_value(rejectionResponse(
            ByteView(*req.frame), Status::ShuttingDown));
        return result;
    }

    // QoS admission: only SubmitBatch frames spend budget — control
    // ops (Open/Close/QueryStats/...) must stay answerable during
    // overload, which is exactly when operators need them.
    if (admit_ctl) {
        const auto header =
            peekHeader(req.frame->data(), req.frame->size());
        if (header &&
            static_cast<Op>(header->op) == Op::SubmitBatch) {
            // The tag is needed even when the budget was already
            // spent in shedEarly(): the worker attributes the
            // observed queue wait to it after dequeue.
            req.tag = peekTenantTag(ByteView(*req.frame));
            if (!pre_admitted) {
                const admission::Decision verdict =
                    admit_ctl->decide(req.tag);
                if (!verdict.admit) {
                    const RetryAdvice advice(
                        verdict.retry_after_ms);
                    req.reply.set_value(rejectionResponse(
                        ByteView(*req.frame), Status::Throttled,
                        advice.view()));
                    return result;
                }
            }
        }
    }

    // Failpoint "service.queue": Error answers RetryAfter as if the
    // queue were full — forced backpressure without real pressure.
    if (auto f = FAULT_POINT("service.queue");
        f.action == fault::Action::Error) {
        counters.frameRejectedQueueFull();
        const RetryAdvice advice(retryAfterMs());
        req.reply.set_value(rejectionResponse(
            ByteView(*req.frame), Status::RetryAfter,
            advice.view()));
        return result;
    }

    if (serveInline(req))
        return result;

    if (!queue.tryPush(std::move(req))) {
        // tryPush moves only on success, so req is still whole.
        const Status status = stopping.load(std::memory_order_acquire)
            ? Status::ShuttingDown
            : Status::RetryAfter;
        if (status == Status::RetryAfter) {
            counters.frameRejectedQueueFull();
            const RetryAdvice advice(retryAfterMs());
            req.reply.set_value(rejectionResponse(
                ByteView(*req.frame), status, advice.view()));
        } else {
            req.reply.set_value(
                rejectionResponse(ByteView(*req.frame), status));
        }
    }
    return result;
    // req.frame's lease ends here on the rejection paths, recycling
    // the storage; on the queued path it travels with the Request.
}

void
LivePhaseService::workerLoop()
{
    // Register with the profiling plane for the thread's lifetime;
    // while the profiler is stopped this allocates no sample ring.
    obs::ThreadProfile profile_guard("worker");
    while (auto req = queue.pop()) {
        in_service.fetch_add(1);
        serveRequest(*req);
        releaseSlot();
    }
}

bool
LivePhaseService::serveInline(Request &req)
{
    if (cfg.workers == 0 || queue.depth() != 0)
        return false;
    size_t busy = in_service.load();
    do {
        if (busy >= cfg.workers)
            return false;
    } while (!in_service.compare_exchange_weak(busy, busy + 1));
    // Claim first, then read `stopping`: paired with stop()'s store
    // then wait-for-zero, a frame is either waited for or refused.
    if (stopping.load()) {
        req.reply.set_value(rejectionResponse(
            ByteView(*req.frame), Status::ShuttingDown));
        releaseSlot();
        return true;
    }
    // Frames queued while we claimed go first; join them.
    if (queue.depth() != 0) {
        releaseSlot();
        return false;
    }
    static obs::Counter &inline_frames =
        obs::MetricsRegistry::global().counter(
            "livephase_service_inline_frames_total");
    inline_frames.inc();
    {
        // The caller's client span must not parent the server
        // spans: a worker would have started from an empty context.
        obs::ScopedTrace isolate(obs::TraceContext{});
        serveRequest(req);
    }
    releaseSlot();
    return true;
}

void
LivePhaseService::releaseSlot()
{
    if (in_service.fetch_sub(1) == 1 && stopping.load())
        in_service.notify_all();
}

bool
LivePhaseService::drainOne()
{
    auto req = queue.tryPop();
    if (!req)
        return false;
    serveRequest(*req);
    return true;
}

void
LivePhaseService::serveRequest(Request &req)
{
    if (req.enqueue_ns != 0) {
        const double wait_s =
            static_cast<double>(obs::monoNowNs() - req.enqueue_ns) /
            1e9;
        // Unconditional: the admission controller differences this
        // histogram's count/sum every tick (see initAdmission).
        obs::queueWaitSecondsHistogram().record(wait_s);
        // Windowed twin — the watchdog's burn-rate rules evaluate
        // p99 over this series, so it is a control signal too.
        static obs::WindowedHistogram &wait_window =
            obs::MetricsRegistry::global().windowedHistogram(
                "service.queue_wait_ms");
        wait_window.record(wait_s * 1e3);
        if (admit_ctl)
            admit_ctl->recordQueueWait(req.tag, wait_s * 1e3);
        if (obs::enabled()) {
            static obs::Histogram &queue_wait =
                obs::MetricsRegistry::global().histogram(
                    "livephase_service_queue_wait_us");
            queue_wait.record(wait_s * 1e6);
        }
    }
    // Request and response storage both cycle through the pool: the
    // response buffer is leased, filled, then detach()ed into the
    // promise (std::future requires owning Bytes); whoever consumes
    // it donates the storage back via giveBack(). The request
    // frame's lease ends when `req` dies.
    BufferPool::Lease response = BufferPool::global().lease();
    handleFrameInto(ByteView(*req.frame), *response, req.enqueue_ns,
                    /*pre_admitted=*/true);
    req.reply.set_value(response.detach());
}

void
LivePhaseService::handleFrameInto(ByteView request_frame,
                                  Bytes &response)
{
    handleFrameInto(request_frame, response, 0,
                    /*pre_admitted=*/false);
}

void
LivePhaseService::handleFrameInto(ByteView request_frame,
                                  Bytes &response,
                                  uint64_t enqueue_ns,
                                  bool pre_admitted)
{
    // Histogram + span-stack scope covers the whole request,
    // including parsing, so malformed-frame flight events still
    // carry span=service.handle. Its embedded trace twin is inert:
    // the wire trace context is only known *after* parsing.
    static obs::Histogram &handle_hist =
        obs::spanHistogram("service.handle");
    static std::atomic<obs::WindowedHistogram *> handle_cycles{
        nullptr};
    obs::Span span("service.handle", handle_hist, &handle_cycles);
    // Seamed clock, not steady_clock directly: this latency feeds
    // retryAfterMs(), which must run on virtual time under sim.
    const uint64_t start_ns = obs::monoNowNs();

    // Request-scoped scratch: the parse's copying-decode fallback
    // and staging draw from a per-thread arena that is reset (not
    // freed) between requests — the other half, with BufferPool, of
    // the zero-allocation steady state.
    static thread_local Arena scratch_arena;
    scratch_arena.reset();

    RequestView parsed;
    Status parse_status;
    {
        // Parse gets its own stage so cycle attribution separates
        // wire decode from pipeline work (obs/profiler.hh).
        OBS_SPAN("service.parse");
        parse_status =
            parseRequest(request_frame, scratch_arena, parsed);
    }
    if (parse_status != Status::Ok) {
        counters.frameMalformed();
        // Redacted on purpose: header fields and lengths only,
        // never payload bytes (frames can carry client data).
        obs::FlightRecorder::global().record(
            obs::Severity::Error, "frame.malformed",
            {{"op", static_cast<uint64_t>(parsed.header.op)},
             {"payload_size",
              static_cast<uint64_t>(parsed.header.payload_size)},
             {"frame_size",
              static_cast<uint64_t>(request_frame.size())}});
        if (cfg.dump_trace_on_error)
            obs::FlightRecorder::global().autoDump("malformed-frame");
        encodeResponseInto(response, parsed.header.op,
                           parsed.header.session_id, parse_status,
                           {}, parsed.header.version);
        return;
    }

    // Synchronous transports skip submit(), so their SubmitBatch
    // frames meet admission here instead — same verdict, same
    // Throttled + retry-advice response, still allocation-free.
    if (admit_ctl && !pre_admitted &&
        static_cast<Op>(parsed.header.op) == Op::SubmitBatch) {
        const admission::Decision verdict =
            admit_ctl->decide(parsed.tenant_tag);
        if (!verdict.admit) {
            const RetryAdvice advice(verdict.retry_after_ms);
            encodeResponseInto(response, parsed.header.op,
                               parsed.header.session_id,
                               Status::Throttled, advice.view(),
                               parsed.header.version);
            return;
        }
    }

    // Adopt the wire trace context (if any) for the dispatch — the
    // service.handle trace span and the pipeline spans under it
    // then nest beneath the client's per-attempt span.
    obs::ScopedTrace adopt(obs::TraceContext{
        parsed.trace.trace_id, parsed.trace.parent_span_id});
    obs::TraceSpan tspan("service.handle");
    if (tspan.sampled()) {
        tspan.annotate({"op", opName(parsed.header.op)});
        if (enqueue_ns != 0)
            tspan.annotate({"queue_wait_us",
                            (obs::monoNowNs() - enqueue_ns) / 1e3});
    }

    dispatch(parsed, response);
    const double micros =
        static_cast<double>(obs::monoNowNs() - start_ns) / 1e3;
    counters.opLatency(parsed.header.op, micros);
    // Drain-rate estimate behind retryAfterMs(). Racy read-modify-
    // write by design: a lost update skews an advisory EWMA by one
    // sample, which is not worth a CAS loop on the hot path.
    const double prev =
        handle_ewma_us.load(std::memory_order_relaxed);
    handle_ewma_us.store(prev + 0.125 * (micros - prev),
                         std::memory_order_relaxed);
}

void
LivePhaseService::dispatch(const RequestView &req, Bytes &out)
{
    const uint16_t op = req.header.op;
    const uint64_t sid = req.header.session_id;
    const uint16_t ver = req.header.version;

    switch (static_cast<Op>(op)) {
      case Op::Open: {
        auto [status, session] = manager.open(req.predictor);
        // The advert rides the OK body: v1 clients ignore trailing
        // body bytes, v2 clients learn they may attach trace blocks.
        encodeResponseInto(out, op, session ? session->id() : 0,
                           status,
                           status == Status::Ok
                               ? ByteView(encodeVersionAdvert())
                               : ByteView{},
                           ver);
        return;
      }
      case Op::SubmitBatch: {
        if (req.records.size() > cfg.max_batch) {
            encodeResponseInto(out, op, sid, Status::BatchTooLarge,
                               {}, ver);
            return;
        }
        for (const IntervalRecord &rec : req.records) {
            if (!rec.valid()) {
                counters.frameMalformed();
                encodeResponseInto(out, op, sid, Status::BadFrame,
                                   {}, ver);
                return;
            }
        }
        std::shared_ptr<Session> session = manager.find(sid);
        if (!session) {
            encodeResponseInto(out, op, sid,
                               Status::UnknownSession, {}, ver);
            return;
        }
        // Results are staged in per-thread storage (capacity reused
        // across requests) and bulk-encoded straight into the
        // response buffer — no per-request vectors, no body copy.
        static thread_local std::vector<IntervalResult> results;
        results.resize(req.records.size());
        session->processBatch(req.records, results);
        // Idle tracking: one touch per batch, stamped at completion
        // on the manager's (possibly test-injected) clock, so a
        // session is "idle" only after its last batch *finished*.
        session->touch(manager.nowNs());
        counters.batchProcessed(results.size());
        {
            OBS_SPAN("service.encode");
            encodeSubmitResponseInto(out, op, sid, results, ver);
        }
        return;
      }
      case Op::QueryStats:
        encodeResponseInto(out, op, sid, Status::Ok,
                           encodeStats(stats()), ver);
        return;
      case Op::Close:
        encodeResponseInto(out, op, sid,
                           manager.close(sid)
                               ? Status::Ok
                               : Status::UnknownSession,
                           {}, ver);
        return;
      case Op::QueryMetrics:
        encodeResponseInto(
            out, op, sid, Status::Ok,
            encodeMetricsText(metricsText(req.metrics_format)),
            ver);
        return;
      case Op::QueryTraces: {
        const std::vector<obs::SpanRecord> spans = req.traces_filter
            ? obs::Tracer::global().snapshotTrace(req.traces_filter)
            : obs::Tracer::global().snapshotSpans();
        encodeResponseInto(
            out, op, sid, Status::Ok,
            encodeMetricsText(obs::chromeTraceJson(spans)), ver);
        return;
      }
      case Op::QueryPhases: {
        Status status = Status::Ok;
        const std::string text =
            phasesText(sid, req.metrics_format, status);
        const Bytes body = status == Status::Ok
            ? encodeMetricsText(text)
            : Bytes{};
        encodeResponseInto(out, op, sid, status, ByteView(body),
                           ver);
        return;
      }
      case Op::QueryProfile: {
        const obs::Profiler &prof = obs::Profiler::global();
        const std::string text = req.metrics_format == 1
            ? prof.renderJsonl()
            : prof.renderFolded();
        encodeResponseInto(out, op, sid, Status::Ok,
                           encodeMetricsText(text), ver);
        return;
      }
    }
    // parseRequest only admits known ops; defend anyway.
    counters.frameMalformed();
    encodeResponseInto(out, op, sid, Status::BadFrame, {}, ver);
}

StatsSnapshot
LivePhaseService::stats() const
{
    return counters.snapshot(manager.openCount(),
                             queue.highWaterMark());
}

std::string
LivePhaseService::metricsText(uint16_t raw_format) const
{
    const auto format = static_cast<obs::ExpositionFormat>(raw_format);
    std::ostringstream out;
    if (format == obs::ExpositionFormat::Trace) {
        obs::FlightRecorder::global().dump(out);
        return out.str();
    }

    obs::refreshRuntimeMetrics(); // build info + uptime gauges
    obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    counters.fillMetrics(snap, manager.openCount(),
                         queue.highWaterMark());
    // Splice in the windowed time-series and phase-quality planes:
    // one scrape answers "what is happening *now*", not just
    // since-boot cumulatives. Rotate first so a service scraped by
    // a slow poller still closes its one-second cells on time.
    obs::MetricsRegistry::global().rotateIfDue();
    const obs::TimeSeriesSnapshot windows =
        obs::MetricsRegistry::global().windowSnapshot();
    if (format == obs::ExpositionFormat::Jsonl) {
        std::string text = obs::renderJsonl(snap);
        text += obs::renderTimeSeriesJsonl(windows);
        text += obs::PhaseTelemetry::global().renderJson();
        text += "\n";
        return text;
    }
    std::string text = obs::renderPrometheus(snap);
    text += obs::renderTimeSeriesPrometheus(windows);
    text += obs::PhaseTelemetry::global().renderPrometheus();
    return text;
}

std::string
LivePhaseService::phasesText(uint64_t session_id,
                             uint16_t raw_format, Status &status)
{
    const auto format =
        static_cast<obs::ExpositionFormat>(raw_format);
    status = Status::Ok;

    if (session_id == 0) {
        // Fleet scope: the process-global phase-telemetry plane.
        if (format == obs::ExpositionFormat::Jsonl) {
            std::string text =
                obs::PhaseTelemetry::global().renderJson();
            text += "\n";
            return text;
        }
        return obs::PhaseTelemetry::global().renderPrometheus();
    }

    // Per-session scope: predictor-quality detail for one live
    // session (UnknownSession once evicted/closed — phase history
    // dies with the session, only the fleet aggregate persists).
    const std::shared_ptr<Session> session =
        manager.find(session_id);
    if (!session) {
        status = Status::UnknownSession;
        return {};
    }
    char buf[512];
    if (format == obs::ExpositionFormat::Jsonl) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"session\": %llu, \"predictor\": \"%s\", "
            "\"intervals\": %llu, \"predictions\": %llu, "
            "\"mispredictions\": %llu, \"transitions\": %llu, "
            "\"hit_rate\": %.6f}\n",
            static_cast<unsigned long long>(session->id()),
            session->predictorName().c_str(),
            static_cast<unsigned long long>(
                session->intervalsProcessed()),
            static_cast<unsigned long long>(session->predictions()),
            static_cast<unsigned long long>(
                session->mispredictions()),
            static_cast<unsigned long long>(session->transitions()),
            session->hitRate());
        return buf;
    }
    std::snprintf(
        buf, sizeof(buf),
        "livephase_session_intervals_total{session=\"%llu\"} %llu\n"
        "livephase_session_predictions_total{session=\"%llu\"} "
        "%llu\n"
        "livephase_session_mispredictions_total{session=\"%llu\"} "
        "%llu\n"
        "livephase_session_transitions_total{session=\"%llu\"} "
        "%llu\n"
        "livephase_session_hit_rate{session=\"%llu\"} %.6f\n",
        static_cast<unsigned long long>(session->id()),
        static_cast<unsigned long long>(
            session->intervalsProcessed()),
        static_cast<unsigned long long>(session->id()),
        static_cast<unsigned long long>(session->predictions()),
        static_cast<unsigned long long>(session->id()),
        static_cast<unsigned long long>(session->mispredictions()),
        static_cast<unsigned long long>(session->id()),
        static_cast<unsigned long long>(session->transitions()),
        static_cast<unsigned long long>(session->id()),
        session->hitRate());
    return buf;
}

} // namespace livephase::service
