/**
 * @file
 * livebench — end-to-end benchmark of livephased over Unix sockets.
 *
 * The service runs in this process with its deployed defaults
 * (LivePhaseService::Config{}: 2 workers, queue 256, GPHT 8x128; obs,
 * tracing, admission and profiler off) behind a real UdsServer. Two
 * generator threads, one UdsClientTransport + ServiceClient each,
 * drive it with inputs generated from --seed:
 *
 *   bulk_spec_k256  closed loop; each generator keeps 33 GPHT sessions
 *                   replaying the 33 SPEC-shaped streams, 256 records
 *                   per SubmitBatch.
 *   fleet_k1_open   open loop at 20 000 single-interval frames/s in
 *                   total, round-robin over 512 sessions; latency is
 *                   timed from each frame's due time.
 *   churn_mixed     closed loop of cycles: open, 4 x 16 records,
 *                   QueryStats, QueryPhases(session), close.
 *
 * A session lives for a fixed number of frames of its stream and is
 * then closed and replaced, so every reply can be checked: the
 * results of each lifetime are digested and compared with a digest
 * of the same stream run through a standalone PhaseClassifier +
 * GphtPredictor + DvfsPolicy, computed before the timed window.
 * Under bulk and fleet a third, monitor connection sends QueryStats
 * and QueryPhases at 20 Hz, the fastest refresh `livephase stats
 * --watch` allows, so query latency is measured under every workload.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 replays the same
 * inputs on one thread through the public entry point of each layer,
 * innermost first (GphtPredictor::observeAndPredictBatch,
 * Session::processBatch, parseRequest / encodeSubmitResponseInto,
 * LivePhaseService::handleFrameInto, LivePhaseService::submit().get(),
 * ServiceClient over InProcessTransport, ServiceClient over
 * UdsClientTransport), times a span around every call and prints each
 * layer's self time: its time per frame minus that of the layer
 * nested in it.
 *
 * Usage: livebench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--socket PATH]
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. Exit status 3 means the socket
 * server could not start; the benchmark never falls back to the
 * in-process transport.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include "core/dvfs_policy.hh"
#include "core/gpht_predictor.hh"
#include "core/phase_classifier.hh"
#include "cpu/dvfs_table.hh"
#include "service/client.hh"
#include "service/service.hh"
#include "service/session.hh"
#include "service/uds_transport.hh"
#include "workload/spec2000.hh"

#include "ledger.hh"

// --- process-wide counters -----------------------------------------
//
// Every heap allocation and every socket-path I/O call the program
// makes (client and server threads alike) is counted. The I/O entry
// points are interposed here, in the benchmark binary, because the
// kernel's /proc/self/io syscr/syscw do not count send()/recv() on
// sockets. Each wrapper issues exactly one system call.

namespace livebench
{
std::atomic<uint64_t> heap_allocations{0};
std::atomic<uint64_t> socket_syscalls{0};
} // namespace livebench

// noinline on all three: once inlined, GCC sees malloc() paired with
// operator delete (or free() with `new`) and warns, although the two
// are consistent here.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    livebench::heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

extern "C" {

ssize_t
send(int fd, const void *buf, size_t n, int flags)
{
    livebench::socket_syscalls.fetch_add(1, std::memory_order_relaxed);
    return syscall(SYS_sendto, fd, buf, n, flags, nullptr, 0);
}

ssize_t
recv(int fd, void *buf, size_t n, int flags)
{
    livebench::socket_syscalls.fetch_add(1, std::memory_order_relaxed);
    return syscall(SYS_recvfrom, fd, buf, n, flags, nullptr, nullptr);
}

ssize_t
sendmsg(int fd, const struct msghdr *msg, int flags)
{
    livebench::socket_syscalls.fetch_add(1, std::memory_order_relaxed);
    return syscall(SYS_sendmsg, fd, msg, flags);
}

ssize_t
recvmsg(int fd, struct msghdr *msg, int flags)
{
    livebench::socket_syscalls.fetch_add(1, std::memory_order_relaxed);
    return syscall(SYS_recvmsg, fd, msg, flags);
}

ssize_t
readv(int fd, const struct iovec *iov, int count)
{
    livebench::socket_syscalls.fetch_add(1, std::memory_order_relaxed);
    return syscall(SYS_readv, fd, iov, count);
}

ssize_t
writev(int fd, const struct iovec *iov, int count)
{
    livebench::socket_syscalls.fetch_add(1, std::memory_order_relaxed);
    return syscall(SYS_writev, fd, iov, count);
}

} // extern "C"

namespace livebench
{
namespace
{

using namespace livephase;
using namespace livephase::service;

constexpr size_t GENERATORS = 2;
/**
 * The end-to-end run is cut into SEGMENTS. Each sets the service up
 * afresh (new threads, so a new placement on the cores), warms up for
 * WARMUP_NS and measures --seconds / SEGMENTS. Every metric is the
 * median over segments, so a placement or a burst of interference
 * from outside the process that slows one segment moves one sample,
 * not the result.
 */
constexpr size_t SEGMENTS = 20;
constexpr uint64_t WARMUP_NS = 200'000'000;
/** Open loop: frames due before the end may still leave this late,
 *  so a backlog from a brief stall drains; whatever is still unsent
 *  after it counts as failed. */
constexpr uint64_t DRAIN_GRACE_NS = 1'000'000'000;
/** Open loop: frames each session gets before its schedule starts,
 *  twice the deployed 128-entry PHT. */
constexpr size_t PREFILL_FRAMES = 256;

uint64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
        static_cast<uint64_t>(ts.tv_nsec);
}

void
sleepUntil(uint64_t t_ns)
{
    if (nowNs() >= t_ns)
        return;
    timespec ts;
    ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000ULL);
    ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000ULL);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                           nullptr) == EINTR) {
    }
}

[[noreturn]] void
die(const char *what)
{
    std::fprintf(stderr, "livebench: %s\n", what);
    std::fflush(stderr);
    std::_Exit(3);
}

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** "VmHWM" / "VmRSS" from /proc/self/status, in bytes. */
uint64_t
procStatusBytes(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const size_t len = std::strlen(key);
    while (std::getline(in, line))
        if (line.compare(0, len, key) == 0 && line[len] == ':')
            return std::strtoull(line.c_str() + len + 1, nullptr, 10) *
                1024;
    return 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads -------------------------------------------------------

struct Workload
{
    const char *name;
    size_t k;        ///< records per SubmitBatch
    size_t slots;    ///< sessions each generator keeps open
    size_t streams;  ///< distinct input streams per generator
    size_t lifetime; ///< frames a session lives before replacement
    double rate_hz;  ///< open loop, frames/s over all generators;
                     ///< 0 = closed loop
    bool churn;      ///< query, close and reopen at lifetime end
    /** Rate of QueryStats + QueryPhases pairs from a third, monitor
     *  connection (0 = none), so query latency is measured under every
     *  workload without perturbing the generators' schedules. */
    double scrape_hz;
};

/** A monitor scrapes as often as `livephase stats --watch` can: its
 *  --interval-ms is clamped to at least 50 ms. */
constexpr double SCRAPE_HZ = 20.0;

const Workload WORKLOADS[] = {
    {"bulk_spec_k256", 256, 33, 33, 32, 0.0, false, SCRAPE_HZ},
    {"fleet_k1_open", 1, 256, 256, 1024, 20000.0, false, SCRAPE_HZ},
    {"churn_mixed", 16, 1, 66, 4, 0.0, true, 0.0},
};

// --- inputs and the standalone reference pipeline --------------------

/** One session lifetime of input, with its reference answers. */
struct Stream
{
    size_t k = 1;
    std::vector<IntervalRecord> records;
    std::vector<IntervalResult> expected;
    /** prefix[f]: digest of the expected results of frames [0, f). */
    std::vector<uint64_t> prefix;

    size_t frames() const { return records.size() / k; }

    RecordView frame(size_t f) const
    {
        return RecordView(records.data() + f * k, k);
    }

    std::span<const IntervalResult> expectedFrame(size_t f) const
    {
        return {expected.data() + f * k, k};
    }
};

/** The deployed per-session pipeline pieces (SessionManager's). */
struct Pipeline
{
    PhaseClassifier classifier = PhaseClassifier::table1();
    DvfsPolicy policy =
        DvfsPolicy::table2(classifier, DvfsTable::pentiumM());
    SessionManager::Config geometry{};

    std::unique_ptr<GphtPredictor> predictor() const
    {
        return std::make_unique<GphtPredictor>(geometry.gphr_depth,
                                               geometry.pht_entries);
    }

    IntervalResult result(PhaseId phase, PhaseId predicted) const
    {
        const PhaseId next =
            predicted == INVALID_PHASE ? phase : predicted;
        return {phase, next,
                static_cast<uint32_t>(policy.settingForPhase(next))};
    }
};

const Pipeline &
pipeline()
{
    static const Pipeline p;
    return p;
}

uint64_t
digestResults(uint64_t h, std::span<const IntervalResult> results)
{
    return digestWords(h, results.data(),
                       results.size() * sizeof(IntervalResult));
}

/** Run `s.records` one at a time through a standalone classifier,
 *  GPHT (observe + predict) and DVFS policy. */
void
computeReference(Stream &s)
{
    const Pipeline &p = pipeline();
    const auto predictor = p.predictor();
    s.expected.resize(s.records.size());
    for (size_t i = 0; i < s.records.size(); ++i) {
        const IntervalRecord &r = s.records[i];
        const PhaseSample sample =
            p.classifier.sample(r.bus_tran_mem / r.uops);
        predictor->observe(sample);
        s.expected[i] = p.result(sample.phase, predictor->predict());
    }
    s.prefix.assign(s.frames() + 1, DIGEST_SEED);
    for (size_t f = 0; f < s.frames(); ++f)
        s.prefix[f + 1] = digestResults(s.prefix[f], s.expectedFrame(f));
}

using Inputs = std::vector<std::vector<Stream>>; // [generator][stream]

Inputs
makeInputs(const Workload &w, uint64_t seed)
{
    const auto &suite = Spec2000Suite::all();
    Inputs inputs(GENERATORS);
    for (size_t g = 0; g < GENERATORS; ++g) {
        for (size_t j = 0; j < w.streams; ++j) {
            // (j * 2 + g) % 33 visits all 33 benchmarks per generator
            // since 2 and 33 are coprime.
            const SpecBenchmark &bench =
                suite[(j * GENERATORS + g) % suite.size()];
            const IntervalTrace trace = bench.makeTrace(
                w.lifetime * w.k, splitmix(seed * 1000003ULL + g) + j);
            Stream s;
            s.k = w.k;
            s.records.reserve(trace.size());
            for (size_t i = 0; i < trace.size(); ++i) {
                const Interval &ivl = trace.at(i);
                s.records.push_back({ivl.uops, ivl.memTransactions(),
                                     static_cast<uint64_t>(i)});
            }
            computeReference(s);
            inputs[g].push_back(std::move(s));
        }
    }
    return inputs;
}

/** True when a QueryPhases(session) JSON reply names `sid` and
 *  reports exactly `intervals` processed intervals. */
bool
phasesMatch(const std::string &text, uint64_t sid, uint64_t intervals)
{
    char session[48], count[48];
    std::snprintf(session, sizeof(session), "\"session\": %llu,",
                  static_cast<unsigned long long>(sid));
    std::snprintf(count, sizeof(count), "\"intervals\": %llu,",
                  static_cast<unsigned long long>(intervals));
    return text.find(session) != std::string::npos &&
        text.find(count) != std::string::npos;
}

// --- end-to-end generators -------------------------------------------

/** A session slot: which stream it replays and how far it got. */
struct Slot
{
    size_t index = 0;
    size_t stream = 0;
    uint64_t sid = 0;
    size_t cursor = 0; ///< frames done in this lifetime
    uint64_t digest = DIGEST_SEED;
};

/** Operations attempted and failed, and digest mismatches. */
struct Tally
{
    uint64_t attempted = 0, failed = 0, mismatches = 0;

    void merge(const Tally &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        mismatches += o.mismatches;
    }

    void check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    void checkDigest(const Slot &slot, uint64_t want)
    {
        if (slot.digest != want) {
            ++failed;
            ++mismatches;
        }
    }
};

/**
 * What one measured segment observed: operations that started (or
 * were due, in the open loop) inside its window.
 */
struct Bucket
{
    /** Frame latency from send; open loop only: from the due time,
     *  and how late the send left. */
    std::vector<double> req_us, due_us, late_us;
    std::vector<double> query_us;
    uint64_t ops = 0, frames = 0, intervals = 0;
    /** Completion times of the first and last op / frame. */
    uint64_t ops_first = UINT64_MAX, ops_last = 0;
    uint64_t frames_first = UINT64_MAX, frames_last = 0;

    /** Empty the bucket, keeping room for `n` samples per series with
     *  its pages touched, so that recording into it does not grow the
     *  process's RSS while the service's peak is measured. */
    void reset(size_t n)
    {
        for (std::vector<double> *v : {&req_us, &due_us, &late_us,
                                       &query_us}) {
            v->assign(n, 0.0);
            v->clear();
        }
        ops = frames = intervals = 0;
        ops_first = frames_first = UINT64_MAX;
        ops_last = frames_last = 0;
    }

    void merge(const Bucket &o)
    {
        req_us.insert(req_us.end(), o.req_us.begin(), o.req_us.end());
        due_us.insert(due_us.end(), o.due_us.begin(), o.due_us.end());
        query_us.insert(query_us.end(), o.query_us.begin(),
                        o.query_us.end());
        late_us.insert(late_us.end(), o.late_us.begin(),
                       o.late_us.end());
        ops += o.ops;
        frames += o.frames;
        intervals += o.intervals;
        ops_first = std::min(ops_first, o.ops_first);
        ops_last = std::max(ops_last, o.ops_last);
        frames_first = std::min(frames_first, o.frames_first);
        frames_last = std::max(frames_last, o.frames_last);
    }

    /** Completions per second, from the spread of completion times
     *  (a count over a fixed span would read the same every run
     *  under an open loop). */
    static double rate(uint64_t n, uint64_t first, uint64_t last)
    {
        if (n < 2 || last <= first)
            return 0.0;
        return static_cast<double>(n - 1) /
            (static_cast<double>(last - first) / 1e9);
    }

    double opsPerSecond() const { return rate(ops, ops_first, ops_last); }

    double intervalsPerSecond() const
    {
        return frames ? rate(frames, frames_first, frames_last) *
                static_cast<double>(intervals) /
                static_cast<double>(frames)
                      : 0.0;
    }
};

enum class Kind
{
    Control, ///< open / close
    Frame,   ///< SubmitBatch
    Query,   ///< QueryStats / QueryPhases
};

/**
 * One client thread: its own connection, ServiceClient and slots. A
 * monitor keeps one idle session and only sends queries, on a fixed
 * schedule.
 */
class Generator
{
  public:
    /** Records into `samples`, which the caller owns and resets. */
    Generator(const Workload &w, size_t index, bool is_monitor,
              const std::vector<Stream> &streams,
              const std::string &socket, Bucket &samples)
        : window(samples), work(w), id(index), monitor(is_monitor),
          inputs(streams), transport(socket), client(transport)
    {
    }

    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    /** Connect and open every slot's session. */
    bool start()
    {
        if (!transport.connect())
            return false;
        slots.resize(monitor ? 1 : work.slots);
        for (size_t i = 0; i < slots.size(); ++i) {
            slots[i].index = i;
            slots[i].stream = i % inputs.size();
            if (!open(slots[i]))
                return false;
        }
        return true;
    }

    /**
     * Bring every session to the state of a long-running one (a full
     * PHT) before an open-loop schedule starts: one batched frame of
     * the next `frames` frames per session, checked but not timed.
     * Results do not depend on how records are batched, so the
     * lifetime digests still match the reference.
     */
    void prefill(size_t frames)
    {
        for (Slot &slot : slots) {
            const Stream &s = inputs[slot.stream];
            const size_t n = std::min(frames, s.frames() - 1 - slot.cursor);
            const auto first = s.records.begin() +
                static_cast<std::ptrdiff_t>(slot.cursor * work.k);
            tx.assign(first,
                      first + static_cast<std::ptrdiff_t>(n * work.k));
            const auto reply = client.submitBatchRetrying(slot.sid, tx);
            const bool ok = reply.status == Status::Ok &&
                reply.results.size() == tx.size();
            tally.check(ok);
            if (ok)
                slot.digest = digestResults(slot.digest, reply.results);
            slot.cursor += n;
        }
    }

    /** Run from t_start to t_end; count [t_measure, t_end). */
    void run(uint64_t t_start, uint64_t t_measure, uint64_t t_end)
    {
        window_start = t_measure;
        window_end = t_end;
        if (monitor)
            runMonitor(t_start, t_end);
        else if (work.rate_hz > 0.0)
            runOpen(t_start, t_end);
        else
            runClosed(t_start, t_end);
    }

    /** Check the digests of the unfinished lifetimes, then close. */
    void finish()
    {
        for (Slot &slot : slots) {
            tally.checkDigest(slot,
                              inputs[slot.stream].prefix[slot.cursor]);
            close(slot);
        }
    }

    Tally tally;
    Bucket &window;

  private:
    bool inWindow(uint64_t t) const
    {
        return t >= window_start && t < window_end;
    }

    /**
     * Count one operation that started (or was due) at `t_from` and
     * completed at `t_done`; `t_send` is when an open-loop frame
     * actually left. Only successful operations inside the window
     * feed the metrics.
     */
    void record(bool ok, Kind kind, uint64_t t_from, uint64_t t_done,
                uint64_t t_send = 0)
    {
        tally.check(ok);
        if (!ok || !inWindow(t_from))
            return;
        Bucket &b = window;
        const double us = static_cast<double>(t_done - t_from) / 1e3;
        ++b.ops;
        b.ops_first = std::min(b.ops_first, t_done);
        b.ops_last = std::max(b.ops_last, t_done);
        if (kind == Kind::Query)
            b.query_us.push_back(us);
        if (kind != Kind::Frame)
            return;
        ++b.frames;
        b.intervals += work.k;
        b.frames_first = std::min(b.frames_first, t_done);
        b.frames_last = std::max(b.frames_last, t_done);
        if (!t_send) {
            b.req_us.push_back(us);
            return;
        }
        b.due_us.push_back(us);
        b.req_us.push_back(static_cast<double>(t_done - t_send) / 1e3);
        b.late_us.push_back(
            static_cast<double>(lateness(t_from, t_send)) / 1e3);
    }

    bool open(Slot &slot)
    {
        const uint64_t t0 = nowNs();
        const auto reply = client.open(PredictorKind::Gpht);
        const bool ok =
            reply.status == Status::Ok && reply.session_id != 0;
        record(ok, Kind::Control, t0, nowNs());
        slot.sid = reply.session_id;
        slot.cursor = 0;
        slot.digest = DIGEST_SEED;
        return ok;
    }

    void close(Slot &slot)
    {
        const uint64_t t0 = nowNs();
        const Status status = client.close(slot.sid);
        record(status == Status::Ok, Kind::Control, t0, nowNs());
    }

    /** QueryStats, then QueryPhases for `slot`'s session. */
    void query(const Slot &slot)
    {
        uint64_t t0 = nowNs();
        const auto stats = client.queryStats();
        record(stats.status == Status::Ok &&
                   stats.stats.sessions_open >= 1,
               Kind::Query, t0, nowNs());
        t0 = nowNs();
        const auto phases = client.queryPhases(slot.sid);
        record(phases.status == Status::Ok &&
                   phasesMatch(phases.text, slot.sid,
                               slot.cursor * work.k),
               Kind::Query, t0, nowNs());
    }

    /** Submit `slot`'s next frame; `due` is 0 in a closed loop. */
    void submit(Slot &slot, uint64_t due)
    {
        const Stream &s = inputs[slot.stream];
        const RecordView view = s.frame(slot.cursor);
        tx.assign(view.begin(), view.end());
        const uint64_t t_send = nowNs();
        const auto reply = client.submitBatchRetrying(slot.sid, tx);
        const uint64_t t_done = nowNs();
        const bool ok = reply.status == Status::Ok &&
            reply.results.size() == work.k;
        if (ok)
            slot.digest = digestResults(slot.digest, reply.results);
        if (due)
            record(ok, Kind::Frame, due, t_done, t_send);
        else
            record(ok, Kind::Frame, t_send, t_done);
        if (++slot.cursor == s.frames())
            renew(slot);
    }

    /** End of a lifetime: check its digest, replace the session. */
    void renew(Slot &slot)
    {
        tally.checkDigest(slot, inputs[slot.stream].prefix.back());
        if (work.churn)
            query(slot);
        close(slot);
        slot.stream = (slot.stream + slots.size()) % inputs.size();
        open(slot);
    }

    Slot &nextSlot()
    {
        Slot &slot = slots[rr];
        rr = (rr + 1) % slots.size();
        return slot;
    }

    void runClosed(uint64_t t_start, uint64_t t_end)
    {
        sleepUntil(t_start);
        while (nowNs() < t_end)
            submit(nextSlot(), 0);
    }

    /** Queries on a fixed schedule, each timed from its send. */
    void runMonitor(uint64_t t_start, uint64_t t_end)
    {
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        const auto period = static_cast<uint64_t>(1e9 / work.scrape_hz);
        for (uint64_t due = t_start; due < t_end; due += period) {
            sleepUntil(due);
            query(slots[0]);
        }
    }

    void runOpen(uint64_t t_start, uint64_t t_end)
    {
        // Wake close to each due time: the default 50 µs timer slack
        // would otherwise dominate the measured lateness.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        Schedule sched;
        sched.start_ns = t_start;
        sched.period_ns =
            static_cast<uint64_t>(1e9 * GENERATORS / work.rate_hz);
        sched.offset_ns = id * sched.period_ns / GENERATORS;
        uint64_t sent_in_window = 0;
        for (uint64_t k = 0;; ++k) {
            const uint64_t due = sched.due(k);
            if (due >= t_end)
                break;
            sleepUntil(due);
            if (nowNs() >= t_end + DRAIN_GRACE_NS)
                break;
            submit(nextSlot(), due);
            if (inWindow(due))
                ++sent_in_window;
        }
        const uint64_t missed =
            unsent(sched, window_start, window_end, sent_in_window);
        tally.attempted += missed;
        tally.failed += missed;
    }

    const Workload &work;
    const size_t id;
    const bool monitor;
    const std::vector<Stream> &inputs;
    UdsClientTransport transport;
    ServiceClient client;
    std::vector<Slot> slots;
    size_t rr = 0;
    std::vector<IntervalRecord> tx;
    uint64_t window_start = 0, window_end = 0;
};

/** The service, its socket server and the connected generators.
 *  Members are destroyed generators first, service last. */
struct Rig
{
    std::unique_ptr<LivePhaseService> svc;
    std::unique_ptr<UdsServer> server;
    std::vector<std::unique_ptr<Generator>> gens;
};

/** Service construction, server start, connecting and opening the
 *  workload's sessions: exactly what setup_s times. */
void
setUp(Rig &rig, const Workload &w, const Inputs &inputs,
      const std::string &socket, std::vector<Bucket> &windows)
{
    rig.svc = std::make_unique<LivePhaseService>();
    rig.server = std::make_unique<UdsServer>(*rig.svc, socket);
    if (!rig.server->start())
        die("UdsServer::start() failed; refusing to fall back to the "
            "in-process transport");
    for (size_t g = 0; g < windows.size(); ++g) {
        const bool is_monitor = g == GENERATORS;
        rig.gens.push_back(std::make_unique<Generator>(
            w, g, is_monitor, inputs[is_monitor ? 0 : g], socket,
            windows[g]));
        if (!rig.gens.back()->start())
            die("could not connect to the socket server or open the "
                "workload's sessions");
    }
}

// --- output ----------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
};

/**
 * Median over segments of each segment's percentile `want` of the
 * samples `field` selects. The note names the lowest percentile any
 * segment could support and the thinnest segment's sample count.
 */
Metric
segmentPercentile(const char *name, std::vector<Bucket> &segments,
                  std::vector<double> Bucket::*field, double want)
{
    std::vector<double> values;
    Percentile worst;
    worst.pct = want;
    worst.count = SIZE_MAX;
    worst.beyond = SIZE_MAX;
    for (Bucket &b : segments) {
        std::vector<double> &samples = b.*field;
        std::sort(samples.begin(), samples.end());
        const Percentile p = pickPercentile(samples, want);
        values.push_back(p.value);
        worst.pct = std::min(worst.pct, p.pct);
        worst.count = std::min(worst.count, p.count);
        worst.beyond = std::min(worst.beyond, p.beyond);
    }
    char note[128];
    std::snprintf(note, sizeof(note),
                  "median of %zu segment p%g; >= %zu samples, >= %zu "
                  "beyond, per segment",
                  segments.size(), worst.pct, worst.count, worst.beyond);
    return {name, median(values), "us", note};
}

void
printResult(const std::vector<Metric> &metrics, bool correct,
            uint64_t attempted, uint64_t failed)
{
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

// --- the end-to-end run ----------------------------------------------

/** Reset the process's peak RSS (VmHWM) to its current RSS. */
void
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    if (!out)
        die("cannot reset the peak RSS through /proc/self/clear_refs");
}

int
runEndToEnd(const Workload &w, const Inputs &inputs,
            const std::string &socket, uint64_t seconds)
{
    // Room for each client's samples of one segment, kept across
    // segments so that only the service grows the RSS inside one.
    constexpr size_t WINDOW_SAMPLES = 1 << 17;
    std::vector<Bucket> windows(GENERATORS + (w.scrape_hz > 0.0 ? 1 : 0));
    std::vector<double> setup_s;
    double service_mb = 0.0;
    std::vector<Bucket> segments(SEGMENTS);
    Tally total;
    for (Bucket &segment : segments) {
        for (Bucket &b : windows)
            b.reset(WINDOW_SAMPLES);
        // The service's peak RSS: VmHWM over the first segment minus
        // the RSS before its set-up, which holds the inputs and their
        // references. Later segments cannot show it: the heap each
        // service gives back stays in the allocator's per-thread
        // arenas, and the next service reuses it without growing the
        // RSS.
        const bool first = &segment == &segments.front();
        uint64_t rss_before = 0;
        if (first) {
            malloc_trim(0);
            resetPeakRss();
            rss_before = procStatusBytes("VmRSS");
        }
        Rig rig;
        const uint64_t t0 = nowNs();
        setUp(rig, w, inputs, socket, windows);
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        if (w.rate_hz > 0.0)
            for (size_t g = 0; g < GENERATORS; ++g)
                rig.gens[g]->prefill(PREFILL_FRAMES);
        const uint64_t t_start = nowNs();
        const uint64_t t_measure = t_start + WARMUP_NS;
        const uint64_t t_end =
            t_measure + seconds * 1'000'000'000ULL / SEGMENTS;
        std::vector<std::thread> threads;
        for (auto &gen : rig.gens)
            threads.emplace_back([&gen, t_start, t_measure, t_end] {
                gen->run(t_start, t_measure, t_end);
            });
        for (std::thread &t : threads)
            t.join();
        if (first) {
            const uint64_t peak = procStatusBytes("VmHWM");
            if (peak > rss_before)
                service_mb =
                    static_cast<double>(peak - rss_before) / (1 << 20);
        }
        for (auto &gen : rig.gens) {
            gen->finish();
            total.merge(gen->tally);
            segment.merge(gen->window);
        }
    }

    std::vector<double> ops_rate, interval_rate;
    bool every_segment_served = true;
    std::printf("  requests/s by segment:");
    for (const Bucket &b : segments) {
        ops_rate.push_back(b.opsPerSecond());
        interval_rate.push_back(b.intervalsPerSecond());
        every_segment_served = every_segment_served && b.frames >= 2;
        std::printf(" %.0f", b.opsPerSecond());
    }
    std::printf("\n");
    const std::string per_segment =
        "median of " + std::to_string(SEGMENTS) + " segments";
    const std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s", per_segment},
        {"intervals_per_s", median(interval_rate), "1/s", per_segment},
        {"requests_per_s", median(ops_rate), "1/s",
         per_segment + ", every op"},
        segmentPercentile("req_p50_us", segments, &Bucket::req_us, 50.0),
        segmentPercentile("req_p90_us", segments, &Bucket::req_us, 90.0),
        segmentPercentile("query_p50_us", segments, &Bucket::query_us,
                          50.0),
        {"peak_rss_mb", service_mb, "MB",
         "first segment, VmHWM minus the RSS before set-up"},
    };
    // Printed, not in the result line: a slowdown of the whole host
    // for a few runs moves p99 several-fold, far past any bound a gate
    // could hold, while p50 and p90 move little. The open-loop figures
    // also include the load generator's own wake-up delays.
    std::vector<Metric> printed = {
        segmentPercentile("req_p99_us", segments, &Bucket::req_us, 99.0),
        segmentPercentile("query_p99_us", segments, &Bucket::query_us,
                          99.0),
    };
    if (w.rate_hz > 0.0) {
        printed.push_back(segmentPercentile("due_p50_us", segments,
                                            &Bucket::due_us, 50.0));
        printed.push_back(segmentPercentile("due_p99_us", segments,
                                            &Bucket::due_us, 99.0));
        printed.push_back(segmentPercentile("late_p99_us", segments,
                                            &Bucket::late_us, 99.0));
    }
    for (const Metric &m : printed)
        std::printf("  %-34s %16.6g %-6s %s (not gated)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.note.c_str());
    std::printf("  digests: %llu mismatched session lifetime(s)\n",
                static_cast<unsigned long long>(total.mismatches));
    const bool correct = total.failed == 0 && every_segment_served;
    printResult(metrics, correct, total.attempted, total.failed);
    return correct ? 0 : 1;
}

// --- the traced run: per-layer cost ledger -----------------------------

/**
 * Span time of one layer, kept per round as the mean time per call.
 * The ledger takes medians over rounds, so a stall from outside the
 * process moves one round, not the ledger.
 */
struct Span
{
    uint64_t ns = 0;    ///< this round
    uint64_t calls = 0; ///< this round
    std::vector<double> round_means;

    void endRound()
    {
        if (calls)
            round_means.push_back(static_cast<double>(ns) /
                                  static_cast<double>(calls));
        ns = 0;
        calls = 0;
    }

    double cost() const { return median(round_means); }
};

template <typename Fn>
inline void
timed(Span &span, Fn &&fn)
{
    const uint64_t t0 = nowNs();
    fn();
    span.ns += nowNs() - t0;
    ++span.calls;
}

/** Cost of an empty span (two clock reads), subtracted from every
 *  layer's cost. */
double
emptySpanNs()
{
    Span span;
    for (int round = 0; round < 21; ++round) {
        for (int i = 0; i < 1000; ++i)
            timed(span, [] {});
        span.endRound();
    }
    return span.cost();
}

/** Process-wide counters sampled around the UDS layer. */
struct Probe
{
    uint64_t allocs = 0, syscalls = 0, ctx_switches = 0;

    static Probe now()
    {
        rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        return {heap_allocations.load(std::memory_order_relaxed),
                socket_syscalls.load(std::memory_order_relaxed),
                static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw)};
    }

    void addDelta(const Probe &from, const Probe &to)
    {
        allocs += to.allocs - from.allocs;
        syscalls += to.syscalls - from.syscalls;
        ctx_switches += to.ctx_switches - from.ctx_switches;
    }
};

/** One rung of the ladder: its slots and a round-robin cursor. */
struct Level
{
    std::vector<Slot> slots;
    size_t rr = 0;
};

/**
 * Replays generator 0's streams, in the workload's frame order, at
 * every layer in turn. Each layer keeps its own sessions, so every
 * layer's results are checked against the reference digests too.
 */
class Ladder
{
  public:
    Ladder(const Workload &w, const std::vector<Stream> &streams,
           const std::string &socket)
        : work(w), inputs(streams), svc(serviceConfig()),
          server(svc, socket), uds(socket), inproc(svc),
          inproc_client(inproc), uds_client(uds)
    {
        if (!server.start())
            die("UdsServer::start() failed; refusing to fall back to "
                "the in-process transport");
        if (!uds.connect())
            die("could not connect to the socket server");
        const Pipeline &p = pipeline();
        samples.resize(inputs.size());
        for (size_t j = 0; j < inputs.size(); ++j)
            for (const IntervalRecord &r : inputs[j].records)
                samples[j].push_back(
                    p.classifier.sample(r.bus_tran_mem / r.uops));
        for (Level *lv : {&core, &session, &protocol, &handle, &queued,
                          &inproc_level, &uds_level}) {
            lv->slots.resize(work.slots);
            for (size_t i = 0; i < work.slots; ++i) {
                lv->slots[i].index = i;
                lv->slots[i].stream = i % inputs.size();
            }
        }
        for (size_t i = 0; i < work.slots; ++i) {
            predictors.push_back(p.predictor());
            sessions.push_back(makeSession(i));
        }
        for (Level *lv : {&handle, &queued, &inproc_level, &uds_level})
            for (Slot &slot : lv->slots)
                slot.sid = openSession();
        results.resize(work.k);
        predictions.resize(work.k);
    }

    /** Time SessionManager::open/close, stats() and QueryPhases. */
    void measureControlOps()
    {
        std::vector<uint64_t> ids;
        for (int i = 0; i < 512; ++i)
            ids.push_back(openSession());
        for (uint64_t id : ids)
            closeSession(id);
        Bytes req, resp;
        encodePhasesRequestInto(req, handle.slots[0].sid, 1);
        for (int i = 0; i < 1000; ++i) {
            uint64_t t0 = nowNs();
            const StatsSnapshot snap = svc.stats();
            stats_ns.push_back(static_cast<double>(nowNs() - t0));
            check(snap.sessions_open >= 1);
            t0 = nowNs();
            svc.handleFrameInto(ByteView(req), resp);
            phases_ns.push_back(static_cast<double>(nowNs() - t0));
            ResponseView rv;
            check(parseResponse(ByteView(resp), rv) &&
                  rv.status == Status::Ok);
        }
    }

    /**
     * One round: a chunk of `n` frames through every layer. The four
     * chunks that hand frames to other threads (submit().get(), the
     * in-process client, the UDS client with a span per call and the
     * UDS client without) run in an order that rotates with `turn`, so
     * none of them always follows the same one. The two UDS chunks are
     * also timed whole: that gives the untraced outer time and the
     * tracing overhead. The per-frame counts come from the untraced
     * chunk.
     */
    void round(size_t n, size_t turn)
    {
        runCore(n);
        runSession(n);
        runProtocol(n);
        runHandle(n);
        for (size_t j = 0; j < 4; ++j) {
            const size_t chunk = (turn + j) % 4;
            if (chunk == 0) {
                runQueued(n);
                continue;
            }
            if (chunk == 1) {
                runClient(inproc_level, inproc_client, &inproc_span, n);
                continue;
            }
            const bool traced = chunk == 2;
            const Probe before = Probe::now();
            const uint64_t t0 = nowNs();
            runClient(uds_level, uds_client, traced ? &uds_span : nullptr,
                      n);
            (traced ? uds_traced : uds_untraced)
                .push_back(static_cast<double>(nowNs() - t0) /
                           static_cast<double>(n));
            if (!traced) {
                uds_probe.addDelta(before, Probe::now());
                uds_frames += n;
            }
        }
        for (Span *span : {&core_span, &session_span, &parse_span,
                           &encode_span, &handle_span, &queued_span,
                           &inproc_span, &uds_span})
            span->endRound();
    }

    /** Check the digests of the unfinished lifetimes. */
    void finish()
    {
        for (Level *lv : {&core, &session, &protocol, &handle, &queued,
                          &inproc_level, &uds_level})
            for (const Slot &slot : lv->slots)
                tally.checkDigest(
                    slot, inputs[slot.stream].prefix[slot.cursor]);
        for (const auto &pred : predictors)
            addPhtStats(*pred);
    }

    /** The per-layer metrics. Prints the ledger's own checks, and
     *  clears `consistent` when one fails: no negative self time, and
     *  self times that sum to within 15% of the untraced outermost
     *  time per frame. */
    std::vector<Metric> metrics(double span_cost, double bytes_per_session,
                                bool &consistent) const
    {
        const double k = static_cast<double>(work.k);
        // Outermost first, each with the layer it is nested in.
        const Span *spans[] = {&uds_span,    &inproc_span, &queued_span,
                               &handle_span, &parse_span,  &encode_span,
                               &session_span, &core_span};
        std::vector<Layer> layers = {
            {"uds.client", 0.0, -1},       {"client.inproc", 0.0, 0},
            {"service.submit_get", 0.0, 1}, {"service.handle", 0.0, 2},
            {"protocol.parse", 0.0, 3},    {"protocol.encode", 0.0, 3},
            {"session.process", 0.0, 3},   {"core.predict", 0.0, 6},
        };
        // A layer's self time is the median over rounds of its self
        // time within one round, so each subtraction pairs chunks that
        // ran milliseconds apart and a drift of the host's speed
        // cancels out.
        size_t rounds = SIZE_MAX;
        for (const Span *s : spans)
            rounds = std::min(rounds, s->round_means.size());
        std::vector<std::vector<double>> by_round(layers.size());
        for (size_t r = 0; r < rounds; ++r) {
            for (size_t i = 0; i < layers.size(); ++i)
                layers[i].inclusive =
                    std::max(0.0, spans[i]->round_means[r] - span_cost);
            const std::vector<double> self = selfTimes(layers);
            for (size_t i = 0; i < layers.size(); ++i)
                by_round[i].push_back(self[i]);
        }
        std::vector<double> self;
        double self_sum = 0.0;
        for (size_t i = 0; i < layers.size(); ++i) {
            self.push_back(median(by_round[i]));
            self_sum += self.back();
            if (self.back() < 0.0)
                std::printf("  ledger check FAILED: negative self time "
                            "%.1f ns in %s\n",
                            self.back(), layers[i].name.c_str());
        }
        const double outer = std::max(0.0, uds_span.cost() - span_cost);
        const double frames = static_cast<double>(uds_frames);
        const double untraced = median(uds_untraced);
        const double traced = median(uds_traced);
        consistent = ledgerConsistent(self, untraced, LEDGER_TOLERANCE);
        std::printf("  ledger check %s: self times sum to %.1f ns/frame "
                    "= %.3f x the untraced outer time %.1f ns/frame "
                    "(tolerance %.2f)\n",
                    consistent ? "ok" : "FAILED", self_sum,
                    self_sum / untraced, untraced, LEDGER_TOLERANCE);
        const double lookups = static_cast<double>(pht_lookups);
        return {
            {"core.predict_ns_per_interval", self[7] / k, "ns", ""},
            {"core.pht_hit_ratio",
             lookups > 0 ? static_cast<double>(pht_hits) / lookups : 0.0,
             "ratio", "GphtPredictor::stats() hits/lookups"},
            {"session.self_ns_per_interval", self[6] / k, "ns", ""},
            {"protocol.parse_ns_per_frame", self[4], "ns", ""},
            {"protocol.encode_ns_per_frame", self[5], "ns", ""},
            {"service.handle_self_ns_per_frame", self[3], "ns", ""},
            {"queue.handoff_ns_per_frame", self[2], "ns",
             "submit().get() minus handleFrameInto"},
            {"sched.ctx_switches_per_frame",
             static_cast<double>(uds_probe.ctx_switches) / frames, "count",
             "getrusage, whole process"},
            {"client.self_ns_per_frame", self[1], "ns",
             "ServiceClient over InProcessTransport"},
            {"uds.transport_ns_per_frame", self[0], "ns", ""},
            {"uds.syscalls_per_frame",
             static_cast<double>(uds_probe.syscalls) / frames, "count",
             "send/recv family, client and server"},
            {"sessions.open_ns", median(open_ns), "ns",
             "median SessionManager::open"},
            {"sessions.close_ns", median(close_ns), "ns",
             "median SessionManager::close"},
            {"stats.query_ns", median(stats_ns), "ns",
             "median LivePhaseService::stats()"},
            {"phases.query_ns", median(phases_ns), "ns",
             "median handleFrameInto(QueryPhases)"},
            {"alloc.per_frame",
             static_cast<double>(uds_probe.allocs) / frames, "count",
             "operator new, whole process"},
            {"mem.bytes_per_session", bytes_per_session, "B",
             "RSS delta / sessions opened"},
            {"ledger.outer_ns_per_frame", outer, "ns",
             "ServiceClient over UdsClientTransport"},
            {"trace.overhead_pct", (traced - untraced) / untraced * 100.0,
             "%", "UDS chunk with a span per call vs without"},
        };
    }

    Tally tally;

  private:
    static LivePhaseService::Config serviceConfig()
    {
        // Deployed defaults, with room for every rung's sessions.
        LivePhaseService::Config cfg;
        cfg.sessions.max_sessions = 4096;
        return cfg;
    }

    std::unique_ptr<Session> makeSession(size_t i)
    {
        const Pipeline &p = pipeline();
        return std::make_unique<Session>(i + 1, p.classifier,
                                         p.predictor(), p.policy);
    }

    uint64_t openSession()
    {
        const uint64_t t0 = nowNs();
        auto opened = svc.sessionManager().open(PredictorKind::Gpht);
        open_ns.push_back(static_cast<double>(nowNs() - t0));
        check(opened.first == Status::Ok && opened.second);
        return opened.second ? opened.second->id() : 0;
    }

    void closeSession(uint64_t id)
    {
        const uint64_t t0 = nowNs();
        const bool closed = svc.sessionManager().close(id);
        close_ns.push_back(static_cast<double>(nowNs() - t0));
        check(closed);
    }

    void check(bool ok) { tally.check(ok); }

    void addPhtStats(const GphtPredictor &pred)
    {
        pht_hits += pred.stats().hits;
        pht_lookups += pred.stats().lookups;
    }

    /**
     * Drive `n` frames of `lv`: `frame(slot, stream)` submits one
     * frame and folds its results into the slot's digest; `renew`
     * replaces the slot's session at the end of a lifetime, outside
     * every span.
     */
    template <typename Frame, typename Renew>
    void drive(Level &lv, size_t n, Frame &&frame, Renew &&renew)
    {
        for (size_t i = 0; i < n; ++i) {
            Slot &slot = lv.slots[lv.rr];
            lv.rr = (lv.rr + 1) % lv.slots.size();
            const Stream &s = inputs[slot.stream];
            frame(slot, s);
            if (++slot.cursor == s.frames()) {
                tally.checkDigest(slot, s.prefix.back());
                slot.stream = (slot.stream + lv.slots.size()) %
                    inputs.size();
                slot.cursor = 0;
                slot.digest = DIGEST_SEED;
                renew(slot);
            }
        }
    }

    /** Fold a SubmitBatch response frame into the slot's digest. */
    void foldResponse(Slot &slot, ByteView frame)
    {
        ResponseView rv;
        const bool ok = parseResponse(frame, rv) &&
            rv.status == Status::Ok &&
            decodeSubmitResultsInto(rv.body, decoded) &&
            decoded.size() == work.k;
        check(ok);
        if (ok)
            slot.digest = digestResults(slot.digest, decoded);
    }

    void runCore(size_t n)
    {
        const Pipeline &p = pipeline();
        drive(
            core, n,
            [&](Slot &slot, const Stream &) {
                const std::span<const PhaseSample> in(
                    samples[slot.stream].data() + slot.cursor * work.k,
                    work.k);
                GphtPredictor &pred = *predictors[slot.index];
                timed(core_span, [&] {
                    pred.observeAndPredictBatch(in, predictions);
                });
                for (size_t i = 0; i < work.k; ++i)
                    results[i] = p.result(in[i].phase, predictions[i]);
                check(true);
                slot.digest = digestResults(slot.digest, results);
            },
            [&](Slot &slot) {
                addPhtStats(*predictors[slot.index]);
                predictors[slot.index]->reset();
            });
    }

    void runSession(size_t n)
    {
        drive(
            session, n,
            [&](Slot &slot, const Stream &s) {
                Session &sess = *sessions[slot.index];
                const RecordView view = s.frame(slot.cursor);
                timed(session_span,
                      [&] { sess.processBatch(view, results); });
                check(true);
                slot.digest = digestResults(slot.digest, results);
            },
            [&](Slot &slot) {
                sessions[slot.index] = makeSession(slot.index);
            });
    }

    void runProtocol(size_t n)
    {
        drive(
            protocol, n,
            [&](Slot &slot, const Stream &s) {
                const uint64_t sid = slot.index + 1;
                encodeSubmitRequestInto(request, sid,
                                        s.frame(slot.cursor));
                arena.reset();
                RequestView parsed;
                Status status = Status::BadFrame;
                timed(parse_span, [&] {
                    status =
                        parseRequest(ByteView(request), arena, parsed);
                });
                check(status == Status::Ok &&
                      parsed.records.size() == work.k);
                const auto expected = s.expectedFrame(slot.cursor);
                timed(encode_span, [&] {
                    encodeSubmitResponseInto(
                        response,
                        static_cast<uint16_t>(Op::SubmitBatch), sid,
                        expected);
                });
                foldResponse(slot, ByteView(response));
            },
            [](Slot &) {});
    }

    void runHandle(size_t n)
    {
        drive(
            handle, n,
            [&](Slot &slot, const Stream &s) {
                encodeSubmitRequestInto(request, slot.sid,
                                        s.frame(slot.cursor));
                timed(handle_span, [&] {
                    svc.handleFrameInto(ByteView(request), response);
                });
                foldResponse(slot, ByteView(response));
            },
            [&](Slot &slot) { renewService(slot); });
    }

    void runQueued(size_t n)
    {
        drive(
            queued, n,
            [&](Slot &slot, const Stream &s) {
                BufferPool::Lease lease = BufferPool::global().lease();
                encodeSubmitRequestInto(*lease, slot.sid,
                                        s.frame(slot.cursor));
                Bytes got;
                timed(queued_span, [&] {
                    got = svc.submit(std::move(lease)).get();
                });
                foldResponse(slot, ByteView(got));
                BufferPool::global().giveBack(std::move(got));
            },
            [&](Slot &slot) { renewService(slot); });
    }

    /** ServiceClient layers; `span` null = untraced. */
    void runClient(Level &lv, ServiceClient &client, Span *span, size_t n)
    {
        drive(
            lv, n,
            [&](Slot &slot, const Stream &s) {
                const RecordView view = s.frame(slot.cursor);
                tx.assign(view.begin(), view.end());
                ServiceClient::SubmitReply reply;
                if (span)
                    timed(*span,
                          [&] { reply = client.submitBatch(slot.sid, tx); });
                else
                    reply = client.submitBatch(slot.sid, tx);
                const bool ok = reply.status == Status::Ok &&
                    reply.results.size() == work.k;
                check(ok);
                if (ok)
                    slot.digest =
                        digestResults(slot.digest, reply.results);
            },
            [&](Slot &slot) { renewService(slot); });
    }

    void renewService(Slot &slot)
    {
        closeSession(slot.sid);
        slot.sid = openSession();
    }

    const Workload &work;
    const std::vector<Stream> &inputs;
    std::vector<std::vector<PhaseSample>> samples;

    LivePhaseService svc;
    UdsServer server;
    UdsClientTransport uds;
    InProcessTransport inproc;
    ServiceClient inproc_client;
    ServiceClient uds_client;

    Level core, session, protocol, handle, queued, inproc_level,
        uds_level;
    std::vector<std::unique_ptr<GphtPredictor>> predictors;
    std::vector<std::unique_ptr<Session>> sessions;

    Span core_span, session_span, parse_span, encode_span, handle_span,
        queued_span, inproc_span, uds_span;
    /** ns per frame of the two UDS chunks, timed whole. */
    std::vector<double> uds_traced, uds_untraced;
    uint64_t uds_frames = 0;
    Probe uds_probe;
    uint64_t pht_hits = 0, pht_lookups = 0;
    std::vector<double> open_ns, close_ns, stats_ns, phases_ns;

    std::vector<IntervalResult> results, decoded;
    std::vector<PhaseId> predictions;
    std::vector<IntervalRecord> tx;
    Bytes request, response;
    Arena arena;
};

/** RSS growth per session: open 512 sessions on a fresh service and
 *  feed each up to 512 records of the workload's streams. */
double
measureBytesPerSession(const Workload &w, const std::vector<Stream> &streams,
                       Tally &tally)
{
    constexpr size_t SESSIONS = 512;
    malloc_trim(0);
    const uint64_t rss_before = procStatusBytes("VmRSS");
    LivePhaseService svc;
    Bytes request, response;
    const size_t frames =
        std::max<size_t>(1, std::min(w.lifetime, 512 / w.k));
    for (size_t i = 0; i < SESSIONS; ++i) {
        auto opened = svc.sessionManager().open(PredictorKind::Gpht);
        tally.check(opened.first == Status::Ok);
        if (opened.first != Status::Ok)
            continue;
        const Stream &s = streams[i % streams.size()];
        for (size_t f = 0; f < frames; ++f) {
            encodeSubmitRequestInto(request, opened.second->id(),
                                    s.frame(f));
            svc.handleFrameInto(ByteView(request), response);
            ResponseView rv;
            tally.check(parseResponse(ByteView(response), rv) &&
                        rv.status == Status::Ok);
        }
    }
    const uint64_t rss_after = procStatusBytes("VmRSS");
    const double grown = rss_after > rss_before
        ? static_cast<double>(rss_after - rss_before)
        : 0.0;
    return grown / SESSIONS;
}

int
runTraced(const Workload &w, const Inputs &inputs,
          const std::string &socket, uint64_t seconds)
{
    const uint64_t t_begin = nowNs();
    Tally mem_tally;
    const double bytes_per_session =
        measureBytesPerSession(w, inputs[0], mem_tally);
    const double span_cost = emptySpanNs();

    Ladder ladder(w, inputs[0], socket);
    ladder.measureControlOps();
    // Rounds of ~30 ms keep every layer's samples interleaved in time.
    const size_t per_round = std::max<size_t>(16, 20000 / (w.k + 60));
    const uint64_t deadline = t_begin + seconds * 1'000'000'000ULL;
    size_t turn = 0;
    do {
        ladder.round(per_round, turn++);
    } while (nowNs() < deadline);
    ladder.finish();

    bool consistent = false;
    const std::vector<Metric> metrics =
        ladder.metrics(span_cost, bytes_per_session, consistent);
    Tally total = ladder.tally;
    total.merge(mem_tally);
    std::printf("  digests: %llu mismatched session lifetime(s); empty "
                "span %.1f ns subtracted per layer\n",
                static_cast<unsigned long long>(total.mismatches),
                span_cost);
    const bool correct = total.failed == 0 && consistent;
    printResult(metrics, correct, total.attempted, total.failed);
    return correct ? 0 : 1;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : WORKLOADS)
        if (name == w.name)
            return &w;
    return nullptr;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "livebench: %s\nusage: livebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--socket PATH]\nworkloads:",
                 why);
    for (const Workload &w : WORKLOADS)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace
} // namespace livebench

int
main(int argc, char **argv)
{
    using namespace livebench;
    std::string workload, socket = "livebench.sock";
    uint64_t seed = 1, seconds = 10;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtoull(value, nullptr, 10);
        else if (arg == "--trace")
            trace = std::atoi(value);
        else if (arg == "--socket")
            socket = value;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    const Workload *w = findWorkload(workload);
    if (!w)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (seconds == 0 || seconds > 120)
        return usage("--seconds must be within 1..120");

#ifndef LIVEBENCH_BUILD_TYPE
#define LIVEBENCH_BUILD_TYPE "unknown"
#endif
    std::printf("livebench workload=%s seed=%llu seconds=%llu trace=%d "
                "nproc=%u build_type=%s\n",
                w->name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seconds), trace,
                std::thread::hardware_concurrency(), LIVEBENCH_BUILD_TYPE);
    const uint64_t t0 = nowNs();
    const Inputs inputs = makeInputs(*w, seed);
    std::printf("  inputs: %zu streams x %zu records per generator, "
                "generated in %.3f s (not timed)\n",
                inputs[0].size(), inputs[0][0].records.size(),
                static_cast<double>(nowNs() - t0) / 1e9);
    return trace ? runTraced(*w, inputs, socket, seconds)
                 : runEndToEnd(*w, inputs, socket, seconds);
}
