#include "service/client.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/clock.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/runtime.hh"
#include "obs/trace.hh"

namespace livephase::service
{

namespace
{

/** Client-side resilience counters (process-wide; clients share). */
struct ClientCounters
{
    obs::Counter &retries;
    obs::Counter &throttled;
    obs::Counter &reconnects;
    obs::Counter &transport_failures;
    obs::Counter &deadline_exceeded;
    obs::Counter &breaker_trips;
    obs::Counter &breaker_fast_fails;

    static ClientCounters &get()
    {
        auto &reg = obs::MetricsRegistry::global();
        static ClientCounters c{
            reg.counter("livephase_client_retries_total"),
            reg.counter("livephase_client_throttled_total"),
            reg.counter("livephase_client_reconnects_total"),
            reg.counter("livephase_client_transport_failures_total"),
            reg.counter("livephase_client_deadline_exceeded_total"),
            reg.counter("livephase_client_breaker_trips_total"),
            reg.counter("livephase_client_breaker_fast_fails_total"),
        };
        return c;
    }
};

} // namespace

const char *
clientErrorName(ClientError error)
{
    switch (error) {
      case ClientError::None:
        return "none";
      case ClientError::TransportFailure:
        return "transport-failure";
      case ClientError::DeadlineExceeded:
        return "deadline-exceeded";
      case ClientError::CircuitOpen:
        return "circuit-open";
    }
    return "unknown";
}

bool
ServiceClient::deadlinePassed(uint64_t deadline_ns) const
{
    return deadline_ns != 0 && obs::monoNowNs() >= deadline_ns;
}

void
ServiceClient::backoff(uint64_t &step_us, uint64_t deadline_ns)
{
    const double jitter = policy.jitter <= 0.0
        ? 1.0
        : jitter_rng.uniform(1.0 - policy.jitter,
                             1.0 + policy.jitter);
    uint64_t sleep_us =
        static_cast<uint64_t>(static_cast<double>(step_us) * jitter);
    if (deadline_ns != 0) {
        const uint64_t now = obs::monoNowNs();
        if (now >= deadline_ns)
            return;
        sleep_us = std::min(sleep_us, (deadline_ns - now) / 1000);
    }
    if (sleep_us > 0) {
        obs::TraceSpan sleep_span("client.backoff");
        if (sleep_span.sampled())
            sleep_span.annotate({"sleep_us", sleep_us});
        // Seamed sleep: under simulation this advances virtual time
        // (and runs other actors) instead of blocking the thread.
        timebase::sleepNs(sleep_us * 1000);
    }
    last_call.backoff_us += sleep_us;
    step_us = std::min(
        static_cast<uint64_t>(static_cast<double>(step_us) *
                              policy.backoff_multiplier),
        policy.backoff_max_us);
}

void
ServiceClient::noteTransportFailure()
{
    ClientCounters::get().transport_failures.inc();
    if (policy.breaker_threshold == 0)
        return;
    ++consecutive_failures;
    if (consecutive_failures >= policy.breaker_threshold &&
        !breaker_open) {
        breaker_open = true;
        breaker_reopen_ns =
            obs::monoNowNs() + policy.breaker_cooldown_us * 1000;
        ClientCounters::get().breaker_trips.inc();
        obs::FlightRecorder::global().record(
            obs::Severity::Warn, "client.breaker.open",
            {{"failures",
              static_cast<uint64_t>(consecutive_failures)},
             {"cooldown_us", policy.breaker_cooldown_us}});
        obs::traceInstant(
            "client.breaker.open",
            {{"failures",
              static_cast<uint64_t>(consecutive_failures)},
             {"cooldown_us", policy.breaker_cooldown_us}});
    } else if (breaker_open) {
        // Failed half-open probe: restart the cooldown.
        breaker_reopen_ns =
            obs::monoNowNs() + policy.breaker_cooldown_us * 1000;
    }
}

void
ServiceClient::noteTransportSuccess()
{
    consecutive_failures = 0;
    if (breaker_open) {
        breaker_open = false;
        obs::FlightRecorder::global().record(
            obs::Severity::Info, "client.breaker.close", {});
        obs::traceInstant("client.breaker.close", {});
    }
}

bool
ServiceClient::call(const char *op_label, const EncodeFn &encode,
                    ResponseView &out)
{
    last_call = CallInfo{};
    out = ResponseView{};

    // Trace root: join an ambient sampled context (the CLI's
    // `traces` command installs one around its replay) or ask the
    // head sampler; an unsampled decision leaves a zero context and
    // every trace call below is a cheap no-op.
    const obs::TraceContext ambient = obs::currentTrace();
    obs::ScopedTrace scope(ambient.sampled()
                               ? ambient
                               : obs::Tracer::global().startTrace());
    obs::TraceSpan root("client.request");
    if (root.sampled())
        root.annotate({"op", op_label});

    // Trace context and tenant tag go on the wire only to a peer
    // that advertised v2 — a v1 server would reject the unknown
    // revision. Untraced frames are invariant across attempts, so
    // encode exactly once; either way the frame is built in place
    // in the reused tx buffer.
    const TenantTag wire_tag =
        peer_version >= 2 ? tenant_tag : TenantTag{0};
    const bool wire_trace = root.sampled() && peer_version >= 2;
    if (!wire_trace)
        encode(tx, TraceField{}, wire_tag);

    if (!resilient) {
        ++last_call.attempts;
        if (wire_trace) {
            const obs::TraceContext ctx = root.context();
            encode(tx, {ctx.trace_id, ctx.span_id}, wire_tag);
        }
        if (!link.roundTripInto(tx, rx)) {
            last_call.error = ClientError::TransportFailure;
            if (root.sampled())
                root.annotate({"error", "transport-failure"});
            return false;
        }
        const bool ok = parseResponse(ByteView(rx), out);
        // Even one-shot clients surface the server's pacing hint so
        // callers (submitBatchRetrying) can sleep it out.
        if (ok && (out.status == Status::RetryAfter ||
                   out.status == Status::Throttled)) {
            if (out.status == Status::Throttled) {
                ++last_call.throttled;
                ClientCounters::get().throttled.inc();
            }
            last_call.retry_hint_ms = decodeRetryAfterMs(out.body);
        }
        return ok;
    }

    ClientCounters &counters = ClientCounters::get();
    const uint64_t deadline_ns = policy.deadline_us == 0
        ? 0
        : obs::monoNowNs() + policy.deadline_us * 1000;

    if (breaker_open) {
        if (obs::monoNowNs() < breaker_reopen_ns) {
            counters.breaker_fast_fails.inc();
            last_call.error = ClientError::CircuitOpen;
            if (root.sampled()) {
                root.annotate({"error", "circuit-open"});
                obs::traceInstant("client.breaker.fastfail", {});
            }
            return false;
        }
        // Cooldown over: fall through as a half-open probe.
    }

    uint64_t step_us = policy.backoff_initial_us;
    size_t reconnects_left = policy.max_reconnects;
    for (;;) {
        ++last_call.attempts;
        // One span per round trip; a server that negotiated v2
        // parents its service.handle span to *this attempt*, so a
        // trace distinguishes the failed try from the retry that
        // succeeded.
        obs::TraceSpan attempt("client.attempt");
        if (attempt.sampled())
            attempt.annotate(
                {"n", static_cast<uint64_t>(last_call.attempts)});
        if (wire_trace) {
            const obs::TraceContext actx = attempt.context();
            encode(tx, {actx.trace_id, actx.span_id}, wire_tag);
        }

        if (!link.roundTripInto(tx, rx)) {
            if (attempt.sampled())
                attempt.annotate({"outcome", "transport-failure"});
            attempt.end();
            noteTransportFailure();
            if (breaker_open && last_call.attempts == 1) {
                // The half-open probe itself failed; fail fast.
                last_call.error = ClientError::TransportFailure;
                if (root.sampled())
                    root.annotate({"error", "transport-failure"});
                return false;
            }
            if (reconnects_left == 0) {
                last_call.error = ClientError::TransportFailure;
                if (root.sampled())
                    root.annotate({"error", "transport-failure"});
                return false;
            }
            --reconnects_left;
            ++last_call.reconnects;
            counters.reconnects.inc();
            obs::FlightRecorder::global().record(
                obs::Severity::Warn, "client.reconnect",
                {{"left", static_cast<uint64_t>(reconnects_left)}});
            if (deadlinePassed(deadline_ns)) {
                counters.deadline_exceeded.inc();
                obs::FlightRecorder::global().record(
                    obs::Severity::Warn, "client.deadline",
                    {{"attempts",
                      static_cast<uint64_t>(last_call.attempts)}});
                last_call.error = ClientError::DeadlineExceeded;
                if (root.sampled())
                    root.annotate({"error", "deadline-exceeded"});
                return false;
            }
            backoff(step_us, deadline_ns);
            obs::traceInstant(
                "client.reconnect",
                {{"left", static_cast<uint64_t>(reconnects_left)}});
            link.reconnect(); // a failed dial just burns a retry
            continue;
        }

        noteTransportSuccess();
        const bool parsed_ok = parseResponse(ByteView(rx), out);
        if (attempt.sampled())
            attempt.annotate({"status", parsed_ok
                                            ? statusName(out.status)
                                            : "unparseable"});
        attempt.end();

        if (parsed_ok && (out.status == Status::RetryAfter ||
                          out.status == Status::Throttled)) {
            if (out.status == Status::Throttled) {
                ++last_call.throttled;
                counters.throttled.inc();
            } else {
                ++last_call.retry_after;
            }
            counters.retries.inc();
            // Both rejections may carry the server's own estimate of
            // when capacity frees up; pacing to it beats blind
            // exponential growth, so it floors the next step.
            const uint32_t hint_ms = decodeRetryAfterMs(out.body);
            if (hint_ms > 0) {
                last_call.retry_hint_ms = hint_ms;
                step_us = std::max(
                    step_us, static_cast<uint64_t>(hint_ms) * 1000);
            }
            obs::FlightRecorder::global().record(
                obs::Severity::Info, "client.retry",
                {{"attempts",
                  static_cast<uint64_t>(last_call.attempts)},
                 {"backoff_us", step_us},
                 {"hint_ms", static_cast<uint64_t>(hint_ms)}});
            if (deadlinePassed(deadline_ns)) {
                counters.deadline_exceeded.inc();
                obs::FlightRecorder::global().record(
                    obs::Severity::Warn, "client.deadline",
                    {{"attempts",
                      static_cast<uint64_t>(last_call.attempts)}});
                last_call.error = ClientError::DeadlineExceeded;
                if (root.sampled())
                    root.annotate({"error", "deadline-exceeded"});
                // The service answered; report its status.
                return true;
            }
            backoff(step_us, deadline_ns);
            continue;
        }

        if (parsed_ok && out.status != Status::BadFrame)
            return true; // includes ShuttingDown: do not retry

        // BadFrame (or an unparseable response) to a well-formed
        // request smells like a desynchronized stream — the server
        // answers BadFrame and drops the connection. Reconnect and
        // retry on a fresh stream, spending the reconnect budget;
        // a genuinely malformed request comes back BadFrame again
        // and is reported once the budget runs out.
        if (reconnects_left == 0)
            return parsed_ok;
        --reconnects_left;
        ++last_call.reconnects;
        counters.reconnects.inc();
        obs::FlightRecorder::global().record(
            obs::Severity::Warn, "client.desync.retry",
            {{"left", static_cast<uint64_t>(reconnects_left)}});
        obs::traceInstant(
            "client.desync.retry",
            {{"left", static_cast<uint64_t>(reconnects_left)}});
        if (deadlinePassed(deadline_ns)) {
            counters.deadline_exceeded.inc();
            last_call.error = ClientError::DeadlineExceeded;
            if (root.sampled())
                root.annotate({"error", "deadline-exceeded"});
            return parsed_ok;
        }
        backoff(step_us, deadline_ns);
        link.reconnect();
    }
}

ServiceClient::OpenReply
ServiceClient::open(PredictorKind kind)
{
    ResponseView parsed;
    if (!call("open",
              [kind](Bytes &out, const TraceField &trace,
                     TenantTag tag) {
                  encodeOpenRequestInto(out, kind, trace, tag);
              },
              parsed))
        return {Status::BadFrame, 0};
    // The Open response carries the server's version advert (absent
    // on v1 servers => decodes as 1); it gates wire-level tracing
    // for every later call on this client.
    if (parsed.status == Status::Ok)
        peer_version = decodeVersionAdvert(parsed.body);
    return {parsed.status, parsed.header.session_id};
}

ServiceClient::SubmitReply
ServiceClient::submitBatch(uint64_t session_id,
                           const std::vector<IntervalRecord> &records)
{
    ResponseView parsed;
    if (!call("submit-batch",
              [session_id, &records](Bytes &out,
                                     const TraceField &trace,
                                     TenantTag tag) {
                  encodeSubmitRequestInto(out, session_id, records,
                                          trace, tag);
              },
              parsed))
        return {Status::BadFrame, {}};
    SubmitReply reply;
    reply.status = parsed.status;
    if (parsed.status == Status::Ok &&
        !decodeSubmitResultsInto(parsed.body, reply.results))
        return {Status::BadFrame, {}};
    return reply;
}

ServiceClient::SubmitReply
ServiceClient::submitBatchRetrying(
    uint64_t session_id, const std::vector<IntervalRecord> &records,
    size_t max_attempts)
{
    SubmitReply reply;
    for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
        reply = submitBatch(session_id, records);
        if (reply.status != Status::RetryAfter &&
            reply.status != Status::Throttled)
            return reply;
        if (resilient) // backoff already happened inside call()
            return reply;
        // One-shot client: honor the server's retry-after hint when
        // it sent one; yield otherwise (local service, fast drain).
        if (last_call.retry_hint_ms > 0)
            timebase::sleepNs(
                static_cast<uint64_t>(last_call.retry_hint_ms) *
                1'000'000);
        else
            std::this_thread::yield();
    }
    return reply;
}

ServiceClient::StatsReply
ServiceClient::queryStats()
{
    ResponseView parsed;
    if (!call("query-stats",
              [](Bytes &out, const TraceField &trace,
                 TenantTag tag) {
                  encodeStatsRequestInto(out, trace, tag);
              },
              parsed))
        return {Status::BadFrame, {}};
    StatsReply reply;
    reply.status = parsed.status;
    if (parsed.status == Status::Ok) {
        auto snap = decodeStats(parsed.body);
        if (!snap)
            return {Status::BadFrame, {}};
        reply.stats = *snap;
    }
    return reply;
}

ServiceClient::MetricsReply
ServiceClient::queryMetrics(uint16_t raw_format)
{
    ResponseView parsed;
    if (!call("query-metrics",
              [raw_format](Bytes &out, const TraceField &trace,
                           TenantTag tag) {
                  encodeMetricsRequestInto(out, raw_format, trace,
                                           tag);
              },
              parsed))
        return {Status::BadFrame, {}};
    MetricsReply reply;
    reply.status = parsed.status;
    if (parsed.status == Status::Ok) {
        auto text = decodeMetricsText(parsed.body);
        if (!text)
            return {Status::BadFrame, {}};
        reply.text = std::move(*text);
    }
    return reply;
}

Status
ServiceClient::close(uint64_t session_id)
{
    ResponseView parsed;
    if (!call("close",
              [session_id](Bytes &out, const TraceField &trace,
                           TenantTag tag) {
                  encodeCloseRequestInto(out, session_id, trace,
                                         tag);
              },
              parsed))
        return Status::BadFrame;
    return parsed.status;
}

ServiceClient::TracesReply
ServiceClient::queryTraces(uint64_t trace_id)
{
    ResponseView parsed;
    if (!call("query-traces",
              [trace_id](Bytes &out, const TraceField &trace,
                         TenantTag tag) {
                  encodeTracesRequestInto(out, trace_id, trace,
                                          tag);
              },
              parsed))
        return {Status::BadFrame, {}};
    TracesReply reply;
    reply.status = parsed.status;
    if (parsed.status == Status::Ok) {
        auto text = decodeMetricsText(parsed.body);
        if (!text)
            return {Status::BadFrame, {}};
        reply.json = std::move(*text);
    }
    return reply;
}

ServiceClient::MetricsReply
ServiceClient::queryPhases(uint64_t session_id, uint16_t raw_format)
{
    ResponseView parsed;
    if (!call("query-phases",
              [session_id, raw_format](Bytes &out,
                                       const TraceField &trace,
                                       TenantTag tag) {
                  encodePhasesRequestInto(out, session_id,
                                          raw_format, trace, tag);
              },
              parsed))
        return {Status::BadFrame, {}};
    MetricsReply reply;
    reply.status = parsed.status;
    if (parsed.status == Status::Ok) {
        auto text = decodeMetricsText(parsed.body);
        if (!text)
            return {Status::BadFrame, {}};
        reply.text = std::move(*text);
    }
    return reply;
}

ServiceClient::MetricsReply
ServiceClient::queryProfile(uint16_t raw_format)
{
    ResponseView parsed;
    if (!call("query-profile",
              [raw_format](Bytes &out, const TraceField &trace,
                           TenantTag tag) {
                  encodeProfileRequestInto(out, raw_format, trace,
                                           tag);
              },
              parsed))
        return {Status::BadFrame, {}};
    MetricsReply reply;
    reply.status = parsed.status;
    if (parsed.status == Status::Ok) {
        auto text = decodeMetricsText(parsed.body);
        if (!text)
            return {Status::BadFrame, {}};
        reply.text = std::move(*text);
    }
    return reply;
}

} // namespace livephase::service
