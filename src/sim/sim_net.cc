#include "sim/sim_net.hh"

#include <chrono>
#include <future>

#include "common/buffer_pool.hh"
#include "common/logging.hh"
#include "fault/failpoint.hh"
#include "obs/timeseries.hh"

namespace livephase::sim
{

using service::Bytes;
using service::ByteView;
using service::Op;
using service::Status;

const char *
netEventKindName(NetEventKind kind)
{
    switch (kind) {
      case NetEventKind::Deliver: return "deliver";
      case NetEventKind::DropRequest: return "drop-request";
      case NetEventKind::DropResponse: return "drop-response";
      case NetEventKind::Duplicate: return "duplicate";
    }
    return "unknown";
}

std::string
NetEvent::toJson() const
{
    std::string out = "{\"t_ns\":" + std::to_string(t_ns) +
                      ",\"node\":" + std::to_string(node) +
                      ",\"client\":" + std::to_string(client) +
                      ",\"kind\":\"" + netEventKindName(kind) +
                      "\",\"op\":\"" + service::opName(op) + "\"";
    if (status != NO_STATUS)
        out += ",\"status\":\"" +
               std::string(service::statusName(
                   static_cast<Status>(status))) +
               "\"";
    out += "}";
    return out;
}

SimNet::SimNet(SimScheduler &scheduler, uint32_t nodes)
    : sched(scheduler), partitions(nodes), node_counters(nodes)
{
}

void
SimNet::addPartition(uint32_t node, PartitionWindow window)
{
    if (node >= partitions.size())
        panic("SimNet::addPartition: node %u out of range", node);
    partitions[node].push_back(window);
}

bool
SimNet::partitioned(uint32_t node, uint64_t now_ns) const
{
    for (const PartitionWindow &w : partitions[node]) {
        if (now_ns >= w.start_ns && now_ns < w.end_ns)
            return true;
    }
    return false;
}

uint64_t
SimNet::healedAfterNs() const
{
    uint64_t healed = 0;
    for (const auto &windows : partitions) {
        for (const PartitionWindow &w : windows)
            healed = std::max(healed, w.end_ns);
    }
    return healed;
}

void
SimNet::logEvent(uint32_t node, uint32_t client, NetEventKind kind,
                 uint16_t op, uint16_t status)
{
    // The digest sees every event; the retained log is bounded.
    event_fnv.mix(sched.nowNs());
    event_fnv.mix((static_cast<uint64_t>(node) << 48) |
                  (static_cast<uint64_t>(client) << 32) |
                  (static_cast<uint64_t>(kind) << 16) | op);
    event_fnv.mix(status);
    if (event_log.size() < EVENT_LOG_CAP)
        event_log.push_back(NetEvent{sched.nowNs(), node, client,
                                     kind, op, status});
    else
        ++log_overflow;
    if (kind == NetEventKind::DropRequest ||
        kind == NetEventKind::DropResponse)
        obs::MetricsRegistry::global()
            .windowedCounter(DROP_SERIES)
            .inc();
}

Bytes
SimNet::serve(service::LivePhaseService &svc, const Bytes &request)
{
    // The node's real ingress path, workers = 0: the admission
    // decision on the borrowed view, then the bounded queue, then a
    // manual drain. Backpressure (RetryAfter on a full queue,
    // Throttled from QoS shedding) is produced by the service
    // itself, not modelled here.
    Bytes shed;
    if (svc.shedEarly(ByteView(request), shed))
        return shed;
    BufferPool::Lease tx = BufferPool::global().lease();
    tx->assign(request.begin(), request.end());
    std::future<Bytes> reply = svc.submit(std::move(tx));
    // Queue-full / shutdown rejections resolve the future
    // immediately; everything else needs exactly as many drains as
    // there are queued requests ahead of ours (other actors may have
    // left some behind when their virtual timeout expired).
    while (reply.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
        if (!svc.drainOne())
            panic("SimNet::serve: pending reply but empty queue");
    }
    return reply.get();
}

Bytes
SimNet::transfer(service::LivePhaseService &svc, uint32_t node,
                 uint32_t client, const LinkConfig &link, Rng &rng,
                 const Bytes &request)
{
    NodeNetCounters &ctr = node_counters[node];
    const auto header =
        service::peekHeader(request.data(), request.size());
    const uint16_t op = header ? header->op : 0;
    ++ctr.sent;

    // Request leg. Draw delay and loss unconditionally so the Rng
    // stream consumes the same draws whether or not a partition is
    // active — the schedule stays a pure function of the seed.
    const uint64_t req_delay =
        link.delay_ns +
        (link.jitter_ns
             ? static_cast<uint64_t>(rng.uniformInt(
                   0, static_cast<int64_t>(link.jitter_ns) - 1))
             : 0);
    bool req_lost = rng.chance(link.drop_request_prob);
    if (partitioned(node, sched.nowNs()))
        req_lost = true;
    if (auto f = FAULT_POINT("sim.net.request");
        f.action == fault::Action::Error)
        req_lost = true;
    if (req_lost) {
        ++ctr.dropped_request;
        logEvent(node, client, NetEventKind::DropRequest, op,
                 NetEvent::NO_STATUS);
        // The client blocks out its timeout before seeing failure;
        // pumping the clock here runs other actors meanwhile.
        sched.advanceBy(link.loss_timeout_ns);
        return {};
    }
    sched.advanceBy(req_delay);

    Bytes response = serve(svc, request);

    // Peek the verdict before the response leg can lose it: an Ok'd
    // batch whose ack drops is the at-least-once case the invariant
    // checker must be able to account for.
    uint16_t status = NetEvent::NO_STATUS;
    service::ResponseView view;
    if (service::parseResponse(ByteView(response), view))
        status = static_cast<uint16_t>(view.status);
    const bool ok_batch =
        op == static_cast<uint16_t>(Op::SubmitBatch) &&
        status == static_cast<uint16_t>(Status::Ok);
    if (ok_batch)
        ++ctr.server_ok_batches;
    ++ctr.delivered;

    // Canary: deliver the same SubmitBatch a second time. The
    // duplicate's ack is discarded, so the server processed a batch
    // no client acked — the exact violation the invariant checker
    // exists to catch, armed from CI to prove the detector works.
    if (op == static_cast<uint16_t>(Op::SubmitBatch)) {
        if (auto f = FAULT_POINT("sim.net.duplicate");
            f.action == fault::Action::Error) {
            ++ctr.duplicated;
            logEvent(node, client, NetEventKind::Duplicate, op,
                     status);
            Bytes dup = serve(svc, request);
            service::ResponseView dup_view;
            if (service::parseResponse(ByteView(dup), dup_view) &&
                dup_view.status == Status::Ok)
                ++ctr.server_ok_batches;
        }
    }

    // Response leg.
    const uint64_t resp_delay =
        link.delay_ns +
        (link.jitter_ns
             ? static_cast<uint64_t>(rng.uniformInt(
                   0, static_cast<int64_t>(link.jitter_ns) - 1))
             : 0);
    bool resp_lost = rng.chance(link.drop_response_prob);
    if (partitioned(node, sched.nowNs()))
        resp_lost = true;
    if (auto f = FAULT_POINT("sim.net.response");
        f.action == fault::Action::Error)
        resp_lost = true;
    if (resp_lost) {
        ++ctr.dropped_response;
        if (ok_batch)
            ++ctr.dropped_ok_responses;
        logEvent(node, client, NetEventKind::DropResponse, op,
                 status);
        sched.advanceBy(link.loss_timeout_ns);
        return {};
    }
    sched.advanceBy(resp_delay);
    ++ctr.returned;
    logEvent(node, client, NetEventKind::Deliver, op, status);
    return response;
}

SimTransport::SimTransport(SimNet &net,
                           service::LivePhaseService &svc,
                           uint32_t node, uint32_t client,
                           const LinkConfig &link, Rng stream)
    : fabric(net), service_ref(svc), node_id(node),
      client_id(client), link_cfg(link), rng(stream)
{
}

bool
SimTransport::roundTripInto(const service::Bytes &request_frame,
                            service::Bytes &response)
{
    // A lost leg comes back empty: a transport failure to the client.
    service::Bytes got = fabric.transfer(service_ref, node_id,
                                         client_id, link_cfg, rng,
                                         request_frame);
    if (got.empty())
        return false;
    response = std::move(got);
    return true;
}

} // namespace livephase::sim
