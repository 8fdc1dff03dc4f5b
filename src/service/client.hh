/**
 * @file
 * Client library for the livephased service.
 *
 * A ServiceClient speaks the protocol over a FrameTransport; the
 * transport abstraction is the reason examples, benches and tests
 * run identical client code whether the service lives in the same
 * process (InProcessTransport — frames go through the real request
 * queue, worker pool and backpressure path) or behind a Unix-domain
 * socket (UdsClientTransport in uds_transport.hh).
 *
 * Resilience: constructed with a RetryPolicy, every operation runs
 * inside one retry loop that (a) honors RetryAfter and Throttled
 * backpressure with capped exponential backoff plus deterministic
 * jitter — when the response body carries a retry-after hint the
 * next backoff step is floored to it, so clients of a throttling
 * server pace themselves to the server's own estimate —
 * (b) survives transport loss with bounded reconnects, (c) bounds
 * the whole affair with a per-request deadline, and (d) trips a
 * client-side circuit breaker after consecutive transport failures
 * so a dead service is not hammered.
 *
 * QoS tagging: setTenantTag() stamps every subsequent request with
 * a tenant tag in the v2 extension block (nothing extra on the wire
 * against a v1 server, mirroring trace propagation). The server's
 * admission controller budgets each tag separately; a Throttled
 * response counts into livephase_client_throttled_total. Every retry, reconnect,
 * deadline miss and breaker trip is counted in the obs metrics
 * registry and recorded in the flight recorder. Constructed without
 * a policy, the client is the bare one-shot protocol wrapper it
 * always was (tests that drive the queue by hand rely on that).
 *
 * Tracing: every operation asks the global obs::Tracer for a
 * head-sampling decision (or joins an already-installed sampled
 * context) and becomes a `client.request` root span with one
 * `client.attempt` child per round trip; backoff sleeps, reconnects,
 * breaker transitions and deadline misses appear as child spans and
 * instant events. When the server's Open response advertised
 * protocol v2, the per-attempt span context additionally travels in
 * the request frame's trace block so server-side spans nest under
 * the attempt that caused them; against a v1 server the client
 * keeps tracing locally but puts nothing extra on the wire.
 *
 * A ServiceClient is not itself thread-safe; give each client
 * thread its own instance (they may share an InProcessTransport,
 * whose round trip is a thread-safe submit + future wait).
 */

#ifndef LIVEPHASE_SERVICE_CLIENT_HH
#define LIVEPHASE_SERVICE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "service/service_stats.hh"

namespace livephase::service
{

/**
 * One request frame in, one response frame out.
 */
class FrameTransport
{
  public:
    virtual ~FrameTransport() = default;

    /** Deliver a request frame; block for the response frame.
     *  An empty return means the transport itself failed. */
    virtual Bytes roundTrip(Bytes request_frame) = 0;

    /**
     * Buffer-reusing round trip: deliver `request_frame` (the
     * transport does not take ownership), decode the response into
     * `response` — cleared first, capacity reused across calls, so
     * a client looping on the same rx buffer stops allocating once
     * warmed up. False means the transport itself failed
     * (`response` contents are then unspecified). The default
     * bridges to the owning roundTrip() so custom transports keep
     * working unchanged; the built-in transports override it with
     * genuinely copy-free paths.
     */
    virtual bool roundTripInto(const Bytes &request_frame,
                               Bytes &response);

    /**
     * Re-establish the link after a roundTrip failure. The default
     * is a no-op success: an in-process link cannot be *lost*, so
     * the retry loop simply tries again.
     */
    virtual bool reconnect() { return true; }
};

/**
 * Transport into a LivePhaseService in the same process, through
 * submit(): served on the calling thread when the service is idle,
 * through its queue and worker pool under load (so backpressure is
 * observable).
 */
class InProcessTransport : public FrameTransport
{
  public:
    explicit InProcessTransport(LivePhaseService &service)
        : svc(service)
    {
    }

    Bytes roundTrip(Bytes request_frame) override
    {
        return svc.submit(std::move(request_frame)).get();
    }

    bool roundTripInto(const Bytes &request_frame,
                       Bytes &response) override
    {
        // Admission preflight on the borrowed view: a shed frame
        // is answered without paying the copy or the future.
        if (svc.shedEarly(ByteView(request_frame), response))
            return true;
        // submit() must own its frame, so the request is
        // copied into a pooled lease (a memcpy, not an allocation,
        // once the pool is warm). The response arrives as detached
        // pool storage; donating the caller's previous rx buffer
        // back keeps the pool balanced. pre_admitted: the budget
        // for this frame was spent by shedEarly() above.
        BufferPool::Lease tx = BufferPool::global().lease();
        tx->assign(request_frame.begin(), request_frame.end());
        Bytes got =
            svc.submit(std::move(tx), /*pre_admitted=*/true).get();
        BufferPool::global().giveBack(std::move(response));
        response = std::move(got);
        return true;
    }

  private:
    LivePhaseService &svc;
};

/** Client-side failure classification, orthogonal to the wire
 *  Status (which only exists when a response actually arrived). */
enum class ClientError : uint8_t
{
    None = 0,
    TransportFailure, ///< roundTrip failed; reconnects exhausted
    DeadlineExceeded, ///< per-request deadline elapsed mid-retry
    CircuitOpen,      ///< breaker open: failed fast, no I/O issued
};

/** "none", "transport-failure", ... */
const char *clientErrorName(ClientError error);

/**
 * Retry/deadline/breaker policy for a resilient ServiceClient.
 * The defaults suit an interactive client of a local service.
 */
struct RetryPolicy
{
    /** Per-request budget, microseconds; 0 = no deadline. */
    uint64_t deadline_us = 2'000'000;

    /** First backoff sleep, microseconds. */
    uint64_t backoff_initial_us = 50;

    /** Backoff cap, microseconds. */
    uint64_t backoff_max_us = 20'000;

    /** Geometric growth factor per retry. */
    double backoff_multiplier = 2.0;

    /** Uniform jitter fraction: each sleep is scaled by a factor
     *  drawn from [1 - jitter, 1 + jitter). */
    double jitter = 0.2;

    /** Reconnect attempts per request after transport loss. */
    size_t max_reconnects = 8;

    /** Consecutive transport failures that trip the breaker open;
     *  0 disables the breaker. */
    size_t breaker_threshold = 8;

    /** How long an open breaker fails fast before allowing a
     *  half-open probe, microseconds. */
    uint64_t breaker_cooldown_us = 100'000;

    /** Seed of the client's private jitter stream (deterministic
     *  backoff schedules for tests). */
    uint64_t seed = 0x5eedc11e47ULL;
};

/**
 * Typed wrapper over the wire protocol.
 */
class ServiceClient
{
  public:
    /** Bare one-shot client: no retries, no deadline, no breaker —
     *  every call is exactly one roundTrip. */
    explicit ServiceClient(FrameTransport &transport)
        : link(transport)
    {
    }

    /** Resilient client governed by `policy`. */
    ServiceClient(FrameTransport &transport,
                  const RetryPolicy &retry_policy)
        : link(transport), policy(retry_policy), resilient(true),
          jitter_rng(retry_policy.seed)
    {
    }

    /** Bookkeeping of the most recent operation. */
    struct CallInfo
    {
        ClientError error = ClientError::None;
        size_t attempts = 0;      ///< roundTrips issued
        size_t retry_after = 0;   ///< RetryAfter responses absorbed
        size_t throttled = 0;     ///< Throttled responses absorbed
        size_t reconnects = 0;    ///< transport re-dials
        uint64_t backoff_us = 0;  ///< total time slept backing off
        /** Last server retry-after hint, ms (0 = none given). */
        uint32_t retry_hint_ms = 0;
    };

    struct OpenReply
    {
        Status status = Status::BadFrame;
        uint64_t session_id = 0;
    };

    /** Open a session with the given per-session predictor. */
    OpenReply open(PredictorKind kind);

    struct SubmitReply
    {
        Status status = Status::BadFrame;
        std::vector<IntervalResult> results;
    };

    /** Submit one batch of interval records. */
    SubmitReply submitBatch(uint64_t session_id,
                            const std::vector<IntervalRecord> &records);

    /**
     * submitBatch honoring the backpressure contract. One-shot
     * clients yield and retry on RetryAfter, up to `max_attempts`
     * times; resilient clients already absorb RetryAfter with
     * backoff inside submitBatch, so this is an alias there.
     */
    SubmitReply
    submitBatchRetrying(uint64_t session_id,
                        const std::vector<IntervalRecord> &records,
                        size_t max_attempts = 1000);

    struct StatsReply
    {
        Status status = Status::BadFrame;
        StatsSnapshot stats{};
    };

    /** Fetch the service's counter snapshot. */
    StatsReply queryStats();

    struct MetricsReply
    {
        Status status = Status::BadFrame;
        std::string text; ///< rendered exposition / trace dump
    };

    /** Fetch rendered telemetry; `raw_format` is an
     *  obs::ExpositionFormat value. */
    MetricsReply queryMetrics(uint16_t raw_format);

    /** Close a session. */
    Status close(uint64_t session_id);

    struct TracesReply
    {
        Status status = Status::BadFrame;
        std::string json; ///< Chrome trace-event JSON
    };

    /** Fetch the server's retained trace spans as Chrome
     *  trace-event JSON; `trace_id` 0 requests every trace.
     *  Requires a v2 server (a v1 server answers BadFrame). */
    TracesReply queryTraces(uint64_t trace_id = 0);

    /** Fetch phase telemetry: `session_id` 0 = fleet-wide summary,
     *  nonzero = that session's predictor-quality detail.
     *  `raw_format` is an obs::ExpositionFormat (Jsonl renders
     *  JSON; anything else Prometheus text). v2 servers only. */
    MetricsReply queryPhases(uint64_t session_id = 0,
                             uint16_t raw_format = 1);

    /** Fetch the server's in-process profiler samples.
     *  `raw_format` 0 = folded stacks (flamegraph.pl input),
     *  1 = JSONL. Empty text when the server never profiled.
     *  v2 servers only. */
    MetricsReply queryProfile(uint16_t raw_format = 0);

    /** How the most recent operation went (attempts, retries,
     *  reconnects, terminal client-side error if any). */
    const CallInfo &lastCall() const { return last_call; }

    /** True while the circuit breaker refuses to issue I/O. */
    bool breakerOpen() const { return breaker_open; }

    /** Protocol revision the server advertised in its Open
     *  response; PROTOCOL_VERSION_MIN until an Open succeeded.
     *  Trace contexts go on the wire only when this is >= 2. */
    uint16_t peerVersion() const { return peer_version; }

    /** Tag every subsequent request with `tag` for per-tenant QoS
     *  accounting (0 = untagged). Travels in the v2 extension
     *  block, so a v1 peer sees byte-identical v1 frames. */
    void setTenantTag(TenantTag tag) { tenant_tag = tag; }

    TenantTag tenantTag() const { return tenant_tag; }

  private:
    /** Builds the request frame for one attempt into the client's
     *  reused tx buffer; the trace field is that attempt's span
     *  context (zero when untraced) and the tag is the client's
     *  tenant tag (zeroed by call() against a v1 peer). */
    using EncodeFn =
        std::function<void(Bytes &, const TraceField &, TenantTag)>;

    /**
     * Run one request through the retry/deadline/breaker loop.
     * `op_label` names the root span; `encode` is re-invoked per
     * attempt when a trace context travels on the wire (each
     * attempt parents the server's spans) and exactly once
     * otherwise. Returns true with `out` filled when a well-formed
     * response arrived; false when the call failed client-side (see
     * lastCall().error) or the response was unparseable (out.status
     * stays BadFrame). `out` is a view into the client's rx buffer:
     * valid only until the next operation on this client.
     */
    bool call(const char *op_label, const EncodeFn &encode,
              ResponseView &out);

    /** Sleep the next backoff step (capped, jittered, clipped to
     *  the remaining deadline). */
    void backoff(uint64_t &step_us, uint64_t deadline_ns);

    bool deadlinePassed(uint64_t deadline_ns) const;

    void noteTransportFailure();
    void noteTransportSuccess();

    FrameTransport &link;
    RetryPolicy policy{};
    bool resilient = false;
    Rng jitter_rng{0};
    CallInfo last_call{};
    uint16_t peer_version = PROTOCOL_VERSION_MIN;
    TenantTag tenant_tag = 0;

    /** Wire buffers reused across calls AND attempts: encoders
     *  build frames into `tx`, transports decode into `rx`, and
     *  both keep their capacity, so a steady-state client performs
     *  no per-request allocation on the framing path. */
    Bytes tx;
    Bytes rx;

    // Circuit breaker (per client, as each thread owns one client).
    size_t consecutive_failures = 0;
    bool breaker_open = false;
    uint64_t breaker_reopen_ns = 0;
};

} // namespace livephase::service

#endif // LIVEPHASE_SERVICE_CLIENT_HH
