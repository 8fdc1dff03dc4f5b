#include "service/service_stats.hh"

#include <ostream>

#include "common/table_writer.hh"

namespace livephase::service
{

size_t
batchHistBucket(size_t batch_size)
{
    // 1, 2, 3-4, 5-8, ... : bucket k covers (2^(k-1), 2^k].
    size_t bucket = 0;
    size_t upper = 1;
    while (batch_size > upper && bucket + 1 < BATCH_HIST_BUCKETS) {
        ++bucket;
        upper <<= 1;
    }
    return bucket;
}

std::string
batchHistBucketLabel(size_t bucket)
{
    if (bucket == 0)
        return "1";
    const size_t lo = (size_t{1} << (bucket - 1)) + 1;
    const size_t hi = size_t{1} << bucket;
    if (bucket + 1 == BATCH_HIST_BUCKETS)
        return std::to_string(lo) + "+";
    if (lo == hi)
        return std::to_string(lo);
    return std::to_string(lo) + "-" + std::to_string(hi);
}

void
StatsSnapshot::print(std::ostream &os) const
{
    TableWriter counters({"counter", "value"});
    const auto row = [&](const char *name, uint64_t value) {
        counters.addRow({name, std::to_string(value)});
    };
    row("sessions_opened", sessions_opened);
    row("sessions_closed", sessions_closed);
    row("sessions_evicted_lru", sessions_evicted_lru);
    row("sessions_expired_ttl", sessions_expired_ttl);
    row("sessions_open", sessions_open);
    row("intervals_processed", intervals_processed);
    row("batches_processed", batches_processed);
    row("rejected_queue_full", rejected_queue_full);
    row("frames_malformed", frames_malformed);
    row("queue_high_water", queue_high_water);
    counters.print(os);

    TableWriter hist({"batch_size", "batches"});
    for (size_t b = 0; b < BATCH_HIST_BUCKETS; ++b) {
        if (batch_hist[b] == 0)
            continue;
        hist.addRow({batchHistBucketLabel(b),
                     std::to_string(batch_hist[b])});
    }
    if (hist.rows() > 0) {
        os << "\n";
        hist.print(os);
    }

    TableWriter latency(
        {"op", "count", "mean_us", "p50_us", "p99_us", "max_us"});
    for (size_t i = 0; i < NUM_OPS; ++i) {
        const OpLatency &l = op_latency[i];
        if (l.count == 0)
            continue;
        latency.addRow({opName(static_cast<uint16_t>(i + 1)),
                        std::to_string(l.count),
                        formatDouble(l.mean_us, 2),
                        formatDouble(l.p50_us, 2),
                        formatDouble(l.p99_us, 2),
                        formatDouble(l.max_us, 2)});
    }
    if (latency.rows() > 0) {
        os << "\n";
        latency.print(os);
    }
}

void
StatsSnapshot::printJson(std::ostream &os) const
{
    const auto field = [&](const char *name, uint64_t value,
                           bool last = false) {
        os << "  \"" << name << "\": " << value
           << (last ? "\n" : ",\n");
    };
    os << "{\n";
    field("sessions_opened", sessions_opened);
    field("sessions_closed", sessions_closed);
    field("sessions_evicted_lru", sessions_evicted_lru);
    field("sessions_expired_ttl", sessions_expired_ttl);
    field("sessions_open", sessions_open);
    field("intervals_processed", intervals_processed);
    field("batches_processed", batches_processed);
    field("rejected_queue_full", rejected_queue_full);
    field("frames_malformed", frames_malformed);
    field("queue_high_water", queue_high_water);

    os << "  \"batch_hist\": {";
    bool first = true;
    for (size_t b = 0; b < BATCH_HIST_BUCKETS; ++b) {
        if (batch_hist[b] == 0)
            continue;
        os << (first ? "" : ", ") << '"' << batchHistBucketLabel(b)
           << "\": " << batch_hist[b];
        first = false;
    }
    os << "},\n";

    os << "  \"op_latency\": {";
    first = true;
    for (size_t i = 0; i < NUM_OPS; ++i) {
        const OpLatency &l = op_latency[i];
        if (l.count == 0)
            continue;
        os << (first ? "" : ", ") << '"'
           << opName(static_cast<uint16_t>(i + 1))
           << "\": {\"count\": " << l.count
           << ", \"mean_us\": " << formatDouble(l.mean_us, 2)
           << ", \"p50_us\": " << formatDouble(l.p50_us, 2)
           << ", \"p99_us\": " << formatDouble(l.p99_us, 2)
           << ", \"max_us\": " << formatDouble(l.max_us, 2) << '}';
        first = false;
    }
    os << "}\n}\n";
}

Bytes
encodeStats(const StatsSnapshot &snap)
{
    Bytes out;
    ByteAppender w(out);
    w.u64(snap.sessions_opened);
    w.u64(snap.sessions_closed);
    w.u64(snap.sessions_evicted_lru);
    w.u64(snap.sessions_expired_ttl);
    w.u64(snap.sessions_open);
    w.u64(snap.intervals_processed);
    w.u64(snap.batches_processed);
    w.u64(snap.rejected_queue_full);
    w.u64(snap.frames_malformed);
    w.u64(snap.queue_high_water);
    w.u32(static_cast<uint32_t>(BATCH_HIST_BUCKETS));
    for (uint64_t count : snap.batch_hist)
        w.u64(count);
    w.u32(static_cast<uint32_t>(NUM_OPS));
    for (const OpLatency &l : snap.op_latency) {
        w.u64(l.count);
        w.f64(l.mean_us);
        w.f64(l.p50_us);
        w.f64(l.p99_us);
        w.f64(l.max_us);
    }
    return out;
}

std::optional<StatsSnapshot>
decodeStats(ByteView body)
{
    ByteReader r(body);
    StatsSnapshot s;
    uint32_t buckets = 0, num_ops = 0;
    if (!r.u64(s.sessions_opened) || !r.u64(s.sessions_closed) ||
        !r.u64(s.sessions_evicted_lru) ||
        !r.u64(s.sessions_expired_ttl) || !r.u64(s.sessions_open) ||
        !r.u64(s.intervals_processed) ||
        !r.u64(s.batches_processed) ||
        !r.u64(s.rejected_queue_full) ||
        !r.u64(s.frames_malformed) || !r.u64(s.queue_high_water))
        return std::nullopt;
    if (!r.u32(buckets) || buckets != BATCH_HIST_BUCKETS)
        return std::nullopt;
    for (uint64_t &count : s.batch_hist)
        if (!r.u64(count))
            return std::nullopt;
    if (!r.u32(num_ops) || num_ops != NUM_OPS)
        return std::nullopt;
    for (OpLatency &l : s.op_latency) {
        if (!r.u64(l.count) || !r.f64(l.mean_us) ||
            !r.f64(l.p50_us) || !r.f64(l.p99_us) || !r.f64(l.max_us))
            return std::nullopt;
    }
    if (r.remaining() != 0)
        return std::nullopt;
    return s;
}

void
ServiceCounters::sessionOpened()
{
    std::lock_guard lock(mu);
    ++totals.sessions_opened;
}

void
ServiceCounters::sessionClosed()
{
    std::lock_guard lock(mu);
    ++totals.sessions_closed;
}

void
ServiceCounters::sessionEvicted()
{
    std::lock_guard lock(mu);
    ++totals.sessions_evicted_lru;
}

void
ServiceCounters::sessionExpired()
{
    std::lock_guard lock(mu);
    ++totals.sessions_expired_ttl;
}

uint64_t
ServiceCounters::evictionsTotal() const
{
    std::lock_guard lock(mu);
    return totals.sessions_evicted_lru + totals.sessions_expired_ttl;
}

void
ServiceCounters::batchProcessed(size_t intervals)
{
    std::lock_guard lock(mu);
    ++totals.batches_processed;
    totals.intervals_processed += intervals;
    ++totals.batch_hist[batchHistBucket(intervals)];
}

void
ServiceCounters::frameRejectedQueueFull()
{
    std::lock_guard lock(mu);
    ++totals.rejected_queue_full;
}

void
ServiceCounters::frameMalformed()
{
    std::lock_guard lock(mu);
    ++totals.frames_malformed;
}

void
ServiceCounters::opLatency(uint16_t raw_op, double micros)
{
    if (raw_op < 1 || raw_op > NUM_OPS)
        return;
    ops[raw_op - 1].record(micros);
}

StatsSnapshot
ServiceCounters::snapshot(uint64_t sessions_open,
                          uint64_t queue_high_water) const
{
    StatsSnapshot snap;
    {
        std::lock_guard lock(mu);
        snap = totals;
    }
    snap.sessions_open = sessions_open;
    snap.queue_high_water = queue_high_water;
    for (size_t i = 0; i < NUM_OPS; ++i) {
        const obs::HistogramSnapshot hist = ops[i].snapshot();
        OpLatency &l = snap.op_latency[i];
        l.count = hist.count;
        if (hist.count == 0)
            continue;
        l.mean_us = hist.mean();
        l.max_us = hist.max;
        l.p50_us = hist.quantile(50.0);
        l.p99_us = hist.quantile(99.0);
    }
    return snap;
}

void
ServiceCounters::fillMetrics(obs::MetricsSnapshot &out,
                             uint64_t sessions_open,
                             uint64_t queue_high_water) const
{
    const StatsSnapshot snap =
        snapshot(sessions_open, queue_high_water);

    obs::MetricsSnapshot mine;
    const auto counter = [&mine](const char *name, uint64_t value) {
        obs::MetricSample s;
        s.name = name;
        s.kind = obs::MetricKind::Counter;
        s.value = static_cast<double>(value);
        mine.samples.push_back(std::move(s));
    };
    const auto gauge = [&mine](const char *name, double value) {
        obs::MetricSample s;
        s.name = name;
        s.kind = obs::MetricKind::Gauge;
        s.value = value;
        mine.samples.push_back(std::move(s));
    };
    counter("livephase_service_sessions_opened_total",
            snap.sessions_opened);
    counter("livephase_service_sessions_closed_total",
            snap.sessions_closed);
    counter("livephase_service_sessions_evicted_lru_total",
            snap.sessions_evicted_lru);
    counter("livephase_service_sessions_expired_ttl_total",
            snap.sessions_expired_ttl);
    counter("livephase_service_intervals_total",
            snap.intervals_processed);
    counter("livephase_service_batches_total",
            snap.batches_processed);
    counter("livephase_service_rejected_queue_full_total",
            snap.rejected_queue_full);
    counter("livephase_service_frames_malformed_total",
            snap.frames_malformed);
    gauge("livephase_service_sessions_open",
          static_cast<double>(snap.sessions_open));
    gauge("livephase_service_queue_high_water",
          static_cast<double>(snap.queue_high_water));

    for (size_t i = 0; i < NUM_OPS; ++i) {
        obs::MetricSample s;
        s.name = "livephase_service_op_latency_us{op=\"" +
            opName(static_cast<uint16_t>(i + 1)) + "\"}";
        s.kind = obs::MetricKind::Histogram;
        s.hist = ops[i].snapshot();
        mine.samples.push_back(std::move(s));
    }
    out.merge(mine);
}

} // namespace livephase::service
