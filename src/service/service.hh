/**
 * @file
 * `livephased` — the phase-prediction service.
 *
 * Serving shape: clients encode protocol frames (see protocol.hh)
 * and submit() them; each submit is one request. When the service is
 * idle — empty queue, fewer than `workers` frames in service — the
 * request is served on the submitting thread (caller-runs, as the
 * paper's PMI handler computes its prediction on the CPU that took
 * the interrupt) and the future comes back already fulfilled.
 * Otherwise a bounded MPMC queue hands it to a fixed worker pool;
 * the worker parses, dispatches against the sharded SessionManager,
 * and fulfils the client's future with the response frame. Both
 * paths run the same serveRequest(). A full queue is answered
 * *immediately* with Status::RetryAfter (never unbounded buffering,
 * never silent drops) — the client backs off and retries.
 *
 * The synchronous entry point handleFrame() is the same parse +
 * dispatch path minus the queue; transports that already have a
 * thread per connection may call it directly, and the worker pool
 * itself is just a loop around it.
 *
 * With workers = 0 nothing drains the queue automatically and
 * nothing is served inline; call drainOne() to process requests by
 * hand — tests and the simulator use this to make queue state
 * deterministic.
 */

#ifndef LIVEPHASE_SERVICE_SERVICE_HH
#define LIVEPHASE_SERVICE_SERVICE_HH

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "admission/admission.hh"
#include "common/buffer_pool.hh"
#include "obs/watchdog.hh"
#include "service/protocol.hh"
#include "service/request_queue.hh"
#include "service/service_stats.hh"
#include "service/session_manager.hh"

namespace livephase::service
{

/**
 * Concurrent multi-session phase-prediction daemon core.
 */
class LivePhaseService
{
  public:
    struct Config
    {
        SessionManager::Config sessions{};

        /** Worker threads; 0 = drain manually via drainOne(). */
        size_t workers = 2;

        /** Bounded request-queue capacity; fatal() when 0. */
        size_t queue_capacity = 256;

        /** Largest accepted SubmitBatch (the K limit); fatal()
         *  when 0. */
        size_t max_batch = 1024;

        /** Auto-dump the flight recorder on malformed frames and
         *  other error triggers (latched once per reason). */
        bool dump_trace_on_error = true;

        /** Adaptive admission control (ratekeeper + per-tenant QoS
         *  throttling, src/admission/). Disabled by default: no
         *  controller thread, no admission check on submit. */
        admission::AdmissionConfig admission{};

        /** SLO watchdog (obs/watchdog.hh). Disabled by default: no
         *  evaluation thread, no time-series rotation driver. */
        struct WatchdogSettings
        {
            bool enabled = false;

            /** Rule spec in the watchdog grammar; empty = built-in
             *  defaults. fatal() at construction on a malformed
             *  spec — a typo'd SLO must not silently disarm. */
            std::string rules;

            /** Evaluation + rotation cadence. */
            uint64_t eval_interval_ns = 1'000'000'000;
        } watchdog{};

        /** Continuous in-process profiling (obs/profiler.hh).
         *  Disabled by default; when enabled each worker registers
         *  with the global profiler and the service starts it.
         *  Under virtual time the start is refused and the service
         *  simply runs unprofiled. */
        struct ProfilerSettings
        {
            bool enabled = false;

            /** Per-thread on-CPU sampling frequency. */
            uint32_t sample_hz = 99;

            /** Attempt perf_event_open hardware counters; denial
             *  degrades to timer-only sampling either way. */
            bool counters = true;
        } profiler{};
    };

    /** Default Config: deployed pipeline, 2 workers, queue 256. */
    LivePhaseService();

    /** Deployed defaults: Table-1 phases, Table-2 policy. */
    explicit LivePhaseService(Config cfg);

    /** Custom pipeline pieces and (for tests) an injected clock. */
    LivePhaseService(Config cfg, PhaseClassifier classifier,
                     DvfsPolicy policy,
                     SessionManager::Clock clock = {});

    ~LivePhaseService();

    LivePhaseService(const LivePhaseService &) = delete;
    LivePhaseService &operator=(const LivePhaseService &) = delete;

    /**
     * Serve or queue a leased request frame. The future always
     * resolves with a response frame:
     *  - service idle (workers > 0, queue empty, fewer than
     *    `workers` frames in service): served on the calling thread
     *    before submit() returns, so the future is already ready;
     *  - queue accepted: resolved by a worker (or drainOne());
     *  - queue full: resolved immediately with RetryAfter;
     *  - service stopping: resolved immediately with ShuttingDown.
     * The stopping, admission and "service.queue" failpoint checks
     * run once per frame before either path. At most `workers`
     * frames run inline alongside the pool's `workers`.
     * The frame's storage is recycled through the lease once it has
     * been served; the response travels as owning Bytes
     * (the std::future contract) whose storage was itself leased —
     * transports giveBack() their previous buffer to keep the
     * recycle loop closed. `pre_admitted` skips the QoS admission
     * check — set by callers that already ran shedEarly() on this
     * frame (decide() must spend budget exactly once per frame).
     */
    std::future<Bytes> submit(BufferPool::Lease request_frame,
                              bool pre_admitted = false);

    /** Owning-frame convenience: adopts the bytes into the global
     *  pool so the storage joins the recycle loop. */
    std::future<Bytes> submit(Bytes request_frame);

    /**
     * QoS admission preflight on a frame *view*, before the caller
     * pays the queue handoff (lease copy, promise/future). True
     * means the frame was shed: `response` (cleared first, capacity
     * reused) holds the Throttled + retry-advice frame and the
     * caller must not submit. False means proceed — and when the
     * frame is a SubmitBatch under admission control its budget is
     * already spent, so complete the handoff with
     * submit(..., pre_admitted = true). This is what keeps a
     * rejected request cheap under overload: an attacker's shed
     * frame costs a header peek and one token CAS, not a copy.
     */
    bool shedEarly(ByteView request_frame, Bytes &response);

    /**
     * Parse + dispatch one frame synchronously on the calling
     * thread, recording per-op latency, encoding the response into
     * `response` (cleared first; its capacity is reused across
     * calls — THE zero-allocation hot path `bench_pipeline_allocs`
     * gates). `response` must not alias `request_frame`: the
     * decoded record view reads the request bytes while the
     * response is being written. Never throws, never fatal()s on
     * malformed input — always produces a response frame.
     */
    void handleFrameInto(ByteView request_frame, Bytes &response);

    /** Owning wrapper over handleFrameInto(). */
    Bytes handleFrame(const Bytes &request_frame);

    /**
     * Process one queued request on the calling thread (workers = 0
     * mode). @return false when the queue was empty.
     */
    bool drainOne();

    /** Snapshot every service counter. */
    StatsSnapshot stats() const;

    /**
     * Render the service's telemetry (this instance's counters and
     * latency histograms merged with the process-global registry —
     * spans, core pipeline counters) in the requested exposition
     * format. ExpositionFormat::Trace returns a flight-recorder
     * dump instead. Unknown raw formats render as Prometheus.
     */
    std::string metricsText(uint16_t raw_format) const;

    /** The session store (tests drive eviction/TTL through it). */
    SessionManager &sessionManager() { return manager; }

    /** The admission controller; nullptr when disabled. Tests and
     *  the CLI read budgets and per-tag tables through it. */
    admission::AdmissionControl *admissionControl()
    {
        return admit_ctl.get();
    }

    /** The SLO watchdog; nullptr when disabled. */
    obs::Watchdog *watchdog() { return slo_watchdog.get(); }

    /** Stop accepting work, drain the queue, join workers, then
     *  wait out frames still being served inline. Idempotent; the
     *  destructor calls it. */
    void stop();

    const Config &config() const { return cfg; }

  private:
    struct Request
    {
        BufferPool::Lease frame;
        std::promise<Bytes> reply;
        /** obs::monoNowNs() at submit time; 0 when neither obs nor
         *  admission control needs the queue-wait signal. */
        uint64_t enqueue_ns = 0;
        /** Peeked tenant tag (admission enabled only). */
        TenantTag tag = 0;
    };

    void workerLoop();
    void serveRequest(Request &req);

    /** Caller-runs: serve `req` on this thread when the service is
     *  idle. @return false (req untouched) when it must queue. */
    bool serveInline(Request &req);

    /** Give back an in-service slot; wakes stop() at zero. */
    void releaseSlot();

    void dispatch(const RequestView &req, Bytes &out);

    /** Build the AdmissionControl (when cfg.admission.enabled) and
     *  wire its signals to this service's queue/counters/obs. */
    void initAdmission();

    /** Build + start the SLO watchdog (when cfg.watchdog.enabled). */
    void initWatchdog();

    /** Start the global profiling plane when cfg.profiler asks. */
    void initProfiler();

    /** Phase-telemetry response body for QueryPhases. */
    std::string phasesText(uint64_t session_id,
                           uint16_t raw_format, Status &status);

    /** handleFrameInto with the submit-time timestamp (0 =
     *  unqueued); annotates the request's trace span with its
     *  queue wait. `pre_admitted` marks frames that already passed
     *  the admission check in submit(); the synchronous path passes
     *  false and is checked after parsing. */
    void handleFrameInto(ByteView request_frame, Bytes &response,
                         uint64_t enqueue_ns, bool pre_admitted);

    /** Response for frames rejected before parsing (queue full /
     *  shutdown): echo what little of the header is readable.
     *  `body` carries retry advice on RetryAfter/Throttled. */
    Bytes rejectionResponse(ByteView request_frame, Status status,
                            ByteView body = {});

    /** Queue-full retry advice: expected drain time of the current
     *  backlog from the measured per-request handle latency —
     *  replaces the old hard-coded constant. */
    uint32_t retryAfterMs() const;

    Config cfg;
    ServiceCounters counters;
    SessionManager manager;
    BoundedMpmcQueue<Request> queue;
    std::unique_ptr<admission::AdmissionControl> admit_ctl;
    std::unique_ptr<obs::Watchdog> slo_watchdog;
    /** EWMA of handleFrameInto latency, µs (relaxed; advisory). */
    std::atomic<double> handle_ewma_us{0.0};
    std::vector<std::thread> pool;
    std::atomic<bool> stopping{false};
    /** Frames being served now, inline or by a worker. Inline
     *  callers claim a slot only below cfg.workers; workers never
     *  wait for one. stop() waits for it to reach 0. */
    std::atomic<size_t> in_service{0};
};

} // namespace livephase::service

#endif // LIVEPHASE_SERVICE_SERVICE_HH
