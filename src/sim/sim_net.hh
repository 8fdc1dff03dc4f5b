/**
 * @file
 * Simulated network: the FrameTransport the simulator's clients
 * speak through, plus the per-node link model behind it.
 *
 * A SimTransport looks exactly like any other transport to a
 * ServiceClient — one frame in, one frame out, false on transport
 * failure — but every leg of the round trip is virtual:
 *
 *  - delay: each leg costs base + uniform-jitter nanoseconds of
 *    virtual time drawn from the link's private seeded Rng stream;
 *    advancing the clock pumps the event loop, so other actors run
 *    *inside* a slow round trip and message *reorder* across actors
 *    emerges from unequal delays, not from a special-case code path;
 *  - drop: each leg is lost with a configured probability, and
 *    unconditionally while the destination node is inside one of its
 *    scripted partition windows; a lost leg costs the client a
 *    virtual timeout and fails the round trip, driving the
 *    client's real reconnect/retry/backoff/breaker machinery;
 *  - failpoints: the transport evaluates `sim.net.request`,
 *    `sim.net.response` (Error = drop that leg) and
 *    `sim.net.duplicate` (Error = deliver a SubmitBatch twice — the
 *    at-most-once canary), so the PR 3 failpoint grammar scripts
 *    network faults with the same seeded determinism as everything
 *    else.
 *
 * Delivery goes through the node's *real* ingress, the two steps
 * every transport takes: shedEarly() decides admission, then
 * submit() queues the frame and drainOne() serves it (the workers=0
 * mode). So admission shedding, RetryAfter backpressure and
 * queue-wait accounting stay live under simulation.
 *
 * SimNet keeps the accounting the invariant checker audits: every
 * frame is sent, then either delivered or dropped-on-request; every
 * delivery either returns or drops its response — and a dropped
 * response's status is peeked first, so an Ok'd SubmitBatch the
 * client never saw is distinguishable from a batch the server never
 * processed. That is what makes "no lost, no duplicated batch"
 * checkable exactly:
 *
 *     server_ok_batches == client_acked + dropped_ok_responses
 */

#ifndef LIVEPHASE_SIM_SIM_NET_HH
#define LIVEPHASE_SIM_SIM_NET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "sim/sim_clock.hh"

namespace livephase::sim
{

/** One client→node link's behaviour. */
struct LinkConfig
{
    /** Base one-way latency per leg, virtual ns. */
    uint64_t delay_ns = 200'000;

    /** Uniform extra per leg in [0, jitter_ns). Unequal draws are
     *  what reorders messages across actors. */
    uint64_t jitter_ns = 300'000;

    /** Virtual time a client loses waiting on a dropped leg before
     *  its transport reports failure. */
    uint64_t loss_timeout_ns = 5'000'000;

    /** Per-leg loss probability outside partition windows. */
    double drop_request_prob = 0.0;
    double drop_response_prob = 0.0;
};

/** Half-open [start, end) virtual-time window during which every
 *  leg to/from the node is lost. */
struct PartitionWindow
{
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
};

enum class NetEventKind : uint8_t
{
    Deliver = 1,      ///< full round trip completed
    DropRequest = 2,  ///< request leg lost; server never saw it
    DropResponse = 3, ///< served, response leg lost
    Duplicate = 4,    ///< canary: request delivered twice
};

const char *netEventKindName(NetEventKind kind);

/** One logged network decision, in virtual-time order. */
struct NetEvent
{
    uint64_t t_ns = 0; ///< virtual time of the decision
    uint32_t node = 0;
    uint32_t client = 0;
    NetEventKind kind = NetEventKind::Deliver;
    uint16_t op = 0;
    /** Response Status; NO_STATUS for request-leg events. */
    uint16_t status = NO_STATUS;

    static constexpr uint16_t NO_STATUS = 0xffff;

    std::string toJson() const;
};

/** Per-node delivery accounting (summed over that node's links). */
struct NodeNetCounters
{
    uint64_t sent = 0;             ///< round trips attempted
    uint64_t delivered = 0;        ///< requests the server processed
    uint64_t duplicated = 0;       ///< canary double-deliveries
    uint64_t dropped_request = 0;  ///< lost before the server
    uint64_t dropped_response = 0; ///< served, reply lost
    uint64_t returned = 0;         ///< full round trips
    /** SubmitBatch responses the server answered Ok. */
    uint64_t server_ok_batches = 0;
    /** ...of which the response leg then dropped (the client will
     *  legitimately resubmit — at-least-once accounting). */
    uint64_t dropped_ok_responses = 0;
};

/**
 * The cluster's network fabric: partition schedules, the event log,
 * the run digest's network contribution, and per-node accounting.
 */
class SimNet
{
  public:
    SimNet(SimScheduler &scheduler, uint32_t nodes);

    /** Script a partition window for one node. */
    void addPartition(uint32_t node, PartitionWindow window);

    /** True while `node` is unreachable at virtual time `now_ns`. */
    bool partitioned(uint32_t node, uint64_t now_ns) const;

    /** Earliest virtual time at/after which no partition window is
     *  active anywhere (the heal point the flush phase waits for). */
    uint64_t healedAfterNs() const;

    /**
     * One full round trip over a link: request leg (delay or drop),
     * in-queue service via submit + drainOne, canary duplication,
     * response leg (delay or drop). Empty return = transport
     * failure, which SimTransport reports as a false round trip.
     */
    service::Bytes transfer(service::LivePhaseService &svc,
                            uint32_t node, uint32_t client,
                            const LinkConfig &link, Rng &rng,
                            const service::Bytes &request);

    const NodeNetCounters &counters(uint32_t node) const
    {
        return node_counters[node];
    }

    const std::vector<NetEvent> &events() const { return event_log; }

    /** Events folded into the digest but evicted from the log once
     *  the retention cap was hit (long sweeps stay bounded). */
    uint64_t eventsDroppedFromLog() const { return log_overflow; }

    /** Running FNV over every event in decision order — the network
     *  half of the run digest. */
    uint64_t eventDigest() const { return event_fnv.h; }

    /** Windowed drop-rate series name the watchdog rules key on. */
    static constexpr const char *DROP_SERIES = "sim.net.drops";

  private:
    void logEvent(uint32_t node, uint32_t client, NetEventKind kind,
                  uint16_t op, uint16_t status);

    /** Deliver one frame through the node's real queue path. */
    service::Bytes serve(service::LivePhaseService &svc,
                         const service::Bytes &request);

    /** Retained events; older entries beyond this only exist in the
     *  digest. Generous for CI scenarios, bounded for sweeps. */
    static constexpr size_t EVENT_LOG_CAP = 1u << 20;

    SimScheduler &sched;
    std::vector<std::vector<PartitionWindow>> partitions;
    std::vector<NodeNetCounters> node_counters;
    std::vector<NetEvent> event_log;
    uint64_t log_overflow = 0;
    Fnv64 event_fnv;
};

/**
 * FrameTransport adapter: one client's link to one node. Owns the
 * link's private Rng stream (the caller splits it from the run seed
 * by the link name, via SimScheduler::actorRng) so adding a client
 * never perturbs another client's draws.
 */
class SimTransport : public service::FrameTransport
{
  public:
    SimTransport(SimNet &net, service::LivePhaseService &svc,
                 uint32_t node, uint32_t client,
                 const LinkConfig &link, Rng stream);

    bool roundTripInto(const service::Bytes &request_frame,
                       service::Bytes &response) override;

  private:
    SimNet &fabric;
    service::LivePhaseService &service_ref;
    uint32_t node_id;
    uint32_t client_id;
    LinkConfig link_cfg;
    Rng rng;
};

} // namespace livephase::sim

#endif // LIVEPHASE_SIM_SIM_NET_HH
