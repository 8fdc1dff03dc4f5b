#include "service/uds_transport.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/failpoint.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"

namespace livephase::service
{

namespace
{

/** Transport-level counters (process-wide; servers share them). */
struct TransportCounters
{
    obs::Counter &accepted;
    obs::Counter &closed;
    obs::Counter &desyncs;
    obs::Counter &bytes_in;
    obs::Counter &bytes_out;

    static TransportCounters &get()
    {
        auto &reg = obs::MetricsRegistry::global();
        static TransportCounters c{
            reg.counter("livephase_uds_connections_accepted_total"),
            reg.counter("livephase_uds_connections_closed_total"),
            reg.counter("livephase_uds_desyncs_total"),
            reg.counter("livephase_uds_bytes_received_total"),
            reg.counter("livephase_uds_bytes_sent_total"),
        };
        return c;
    }
};

/**
 * A frame wait spins at most this long before it blocks. On a guest
 * whose idle vCPU halts to the host (cpuidle driver `none`), waking a
 * blocked thread costs ~10 us, against ~0.25 us for an empty recv.
 * A closed-loop round trip is back well inside 50 us (livebench bulk:
 * 98% of reply waits); an open-loop connection's next frame (~100 us
 * apart on fleet) is not.
 */
constexpr std::chrono::nanoseconds SPIN_BUDGET{50'000};

/**
 * Wait for the first bytes of a frame and recv up to `cap` of them.
 * Spin-then-block: while `spin` is set, probe with a non-blocking
 * recv, yielding the CPU between probes, for at most SPIN_BUDGET;
 * then (or at once when `spin` is clear) block in recv. `spin` is
 * left set only when this wait ended within the budget, so a
 * connection whose frames arrive further apart blocks at once and
 * spends no CPU waiting. The probes are recv calls, so syscall
 * counters see them, and EOF (the peer's close, or stop()'s
 * shutdown) ends a spinning wait as it ends a blocked one.
 */
ssize_t
recvWaiting(int fd, uint8_t *buf, size_t cap, bool &spin)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    ssize_t got;
    if (spin) {
        do {
            got = ::recv(fd, buf, cap, MSG_DONTWAIT);
            if (got >= 0 ||
                (errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR))
                return got;
            // Through syscall(), which every connection thread already
            // calls (its profiler registration), not glibc's wrapper:
            // nothing else here touches the wrapper's text page, and
            // its first call maps 64 KB of libc into the process
            // (fault-around).
            syscall(SYS_sched_yield);
        } while (Clock::now() - start < SPIN_BUDGET);
    }
    do {
        got = ::recv(fd, buf, cap, 0);
    } while (got < 0 && errno == EINTR);
    spin = Clock::now() - start < SPIN_BUDGET;
    return got;
}

/** Read exactly n bytes; false on EOF/error. With `spin`, the first
 *  recv is a frame wait (recvWaiting).
 *
 *  Failpoint "uds.read": Error = the peer vanished before a byte
 *  arrived; PartialIo = half the bytes arrive, then the stream dies
 *  (a disconnect mid-frame). Delay stalls inside evaluate(),
 *  modelling a jittery peer. */
bool
recvAll(int fd, uint8_t *buf, size_t n, bool *spin = nullptr)
{
    size_t want = n;
    if (auto f = FAULT_POINT("uds.read")) {
        if (f.action == fault::Action::Error)
            return false;
        if (f.action == fault::Action::PartialIo)
            want = n / 2;
    }
    size_t done = 0;
    while (done < want) {
        const ssize_t got =
            spin ? recvWaiting(fd, buf + done, want - done, *spin)
                 : ::recv(fd, buf + done, want - done, 0);
        spin = nullptr;
        if (got == 0)
            return false;
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(got);
    }
    return done == n;
}

/** Write exactly n bytes; false on error.
 *
 *  Failpoint "uds.write": Error = send fails outright; PartialIo =
 *  half the frame leaves, then the connection dies (the peer sees a
 *  truncated stream). */
bool
sendAll(int fd, const uint8_t *buf, size_t n)
{
    size_t want = n;
    if (auto f = FAULT_POINT("uds.write")) {
        if (f.action == fault::Action::Error)
            return false;
        if (f.action == fault::Action::PartialIo)
            want = n / 2;
    }
    size_t done = 0;
    while (done < want) {
        const ssize_t sent =
            ::send(fd, buf + done, want - done, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(sent);
    }
    return done == n;
}

enum class RecvStatus
{
    Ok,    ///< `frame` holds one complete frame
    Eof,   ///< peer went away (EOF or IO error)
    Desync ///< unparseable header; `frame` holds the header bytes
};

/** Read one frame off the stream; the wait for its header is a frame
 *  wait with this connection's spin state. */
RecvStatus
recvFrame(int fd, Bytes &frame, bool &spin)
{
    frame.clear();
    uint8_t header_bytes[FRAME_HEADER_SIZE];
    if (!recvAll(fd, header_bytes, sizeof(header_bytes), &spin))
        return RecvStatus::Eof;
    // Failpoint "uds.frame": CorruptFrame garbles the length prefix
    // (payload_size bytes), the classic stream-desync trigger.
    if (auto f = FAULT_POINT("uds.frame");
        f.action == fault::Action::CorruptFrame) {
        for (size_t i = 16; i < FRAME_HEADER_SIZE; ++i)
            header_bytes[i] ^= 0xA5;
    }
    frame.assign(header_bytes, header_bytes + sizeof(header_bytes));
    const auto header =
        peekHeader(header_bytes, sizeof(header_bytes));
    if (!header || header->magic != FRAME_MAGIC ||
        header->version < PROTOCOL_VERSION_MIN ||
        header->version > PROTOCOL_VERSION ||
        header->payload_size > MAX_PAYLOAD_SIZE)
        return RecvStatus::Desync;
    frame.resize(FRAME_HEADER_SIZE + header->payload_size);
    if (header->payload_size > 0 &&
        !recvAll(fd, frame.data() + FRAME_HEADER_SIZE,
                 header->payload_size))
        return RecvStatus::Eof;
    return RecvStatus::Ok;
}

bool
fillSockaddr(const std::string &path, sockaddr_un &addr)
{
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

UdsServer::UdsServer(LivePhaseService &service, std::string path)
    : svc(service), sock_path(std::move(path))
{
}

UdsServer::~UdsServer()
{
    stop();
}

bool
UdsServer::start()
{
    sockaddr_un addr;
    if (!fillSockaddr(sock_path, addr)) {
        warn("UdsServer: socket path too long: %s",
             sock_path.c_str());
        return false;
    }
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        warn("UdsServer: socket(): %s", std::strerror(errno));
        return false;
    }
    ::unlink(sock_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd, 64) < 0) {
        warn("UdsServer: bind/listen on %s: %s", sock_path.c_str(),
             std::strerror(errno));
        ::close(listen_fd);
        listen_fd = -1;
        return false;
    }
    running.store(true);
    acceptor = std::thread([this] { acceptLoop(); });
    return true;
}

void
UdsServer::stop()
{
    if (!running.exchange(false)) {
        if (listen_fd >= 0) {
            ::close(listen_fd);
            listen_fd = -1;
        }
        return;
    }
    ::shutdown(listen_fd, SHUT_RDWR);
    if (acceptor.joinable())
        acceptor.join();
    ::close(listen_fd);
    listen_fd = -1;
    ::unlink(sock_path.c_str());

    std::vector<Connection> live;
    {
        std::lock_guard lock(conns_mu);
        for (const Connection &conn : conns)
            ::shutdown(conn.fd, SHUT_RDWR);
        live.swap(conns);
    }
    for (Connection &conn : live)
        conn.thread.join();
    joinFinished();
}

size_t
UdsServer::connectionThreads() const
{
    std::lock_guard lock(conns_mu);
    return conns.size() + finished.size();
}

void
UdsServer::acceptLoop()
{
    while (running.load()) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener shut down
        }
        joinFinished();
        std::lock_guard lock(conns_mu);
        conns.push_back(
            {fd, std::thread([this, fd] { serveConnection(fd); })});
    }
}

void
UdsServer::forgetConnection(int fd)
{
    std::lock_guard lock(conns_mu);
    // Absent once stop() has taken the list; stop() joins it then.
    const auto it =
        std::find_if(conns.begin(), conns.end(),
                     [fd](const Connection &c) { return c.fd == fd; });
    if (it == conns.end())
        return;
    finished.push_back(std::move(it->thread));
    conns.erase(it);
}

void
UdsServer::joinFinished()
{
    std::vector<std::thread> done;
    {
        std::lock_guard lock(conns_mu);
        done.swap(finished);
    }
    for (std::thread &t : done)
        t.join();
}

void
UdsServer::serveConnection(int fd)
{
    // Caller-runs submit serves most frames here: sample it too.
    obs::ThreadProfile profile_guard("uds-conn");
    TransportCounters &tc = TransportCounters::get();
    tc.accepted.inc();
    // Request frames are pooled leases (submit() takes ownership);
    // responses come back as detached pool storage that is donated
    // back after the send, so a busy connection recycles the same
    // few buffers instead of allocating per frame.
    Bytes response;
    bool spin = true; // this connection's frame-wait state
    while (running.load()) {
        BufferPool::Lease frame = BufferPool::global().lease();
        const RecvStatus status = recvFrame(fd, *frame, spin);
        if (status == RecvStatus::Eof)
            break;
        tc.bytes_in.inc(frame->size());
        if (status == RecvStatus::Desync) {
            // Unparseable header: let the normal parse path count
            // it and build the BadFrame reply, then drop the
            // connection — the stream cannot be resynchronized.
            // The trace event carries header fields and lengths
            // ONLY — never payload/stream bytes, which may be
            // client data (or garbage that contains it).
            tc.desyncs.inc();
            const auto header =
                peekHeader(frame->data(), frame->size());
            obs::FlightRecorder::global().record(
                obs::Severity::Error, "uds.desync",
                {{"magic",
                  static_cast<uint64_t>(header ? header->magic : 0)},
                 {"version",
                  static_cast<uint64_t>(header ? header->version
                                               : 0)},
                 {"op",
                  static_cast<uint64_t>(header ? header->op : 0)},
                 {"payload_size",
                  static_cast<uint64_t>(
                      header ? header->payload_size : 0)}});
            if (svc.config().dump_trace_on_error)
                obs::FlightRecorder::global().autoDump(
                    "socket-desync");
            svc.handleFrameInto(ByteView(*frame), response);
            tc.bytes_out.inc(response.size());
            sendAll(fd, response.data(), response.size());
            break;
        }
        Bytes got = svc.submit(std::move(frame)).get();
        BufferPool::global().giveBack(std::move(response));
        response = std::move(got);
        tc.bytes_out.inc(response.size());
        if (!sendAll(fd, response.data(), response.size()))
            break;
    }
    BufferPool::global().giveBack(std::move(response));
    forgetConnection(fd);
    ::close(fd);
    tc.closed.inc();
}

UdsClientTransport::UdsClientTransport(std::string path)
    : sock_path(std::move(path))
{
}

UdsClientTransport::~UdsClientTransport()
{
    if (fd >= 0)
        ::close(fd);
}

bool
UdsClientTransport::connect()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    if (auto f = FAULT_POINT("uds.connect");
        f.action == fault::Action::Error)
        return false;
    sockaddr_un addr;
    if (!fillSockaddr(sock_path, addr))
        return false;
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        fd = -1;
        return false;
    }
    return true;
}

bool
UdsClientTransport::reconnect()
{
    return connect();
}

bool
UdsClientTransport::roundTripInto(const Bytes &request_frame,
                                  Bytes &response)
{
    if (fd < 0)
        return false;
    // Any failure poisons the stream (a partial write leaves the
    // server mid-frame; a partial read leaves *us* mid-frame), so
    // drop the connection — reconnect() starts clean.
    if (!sendAll(fd, request_frame.data(), request_frame.size())) {
        ::close(fd);
        fd = -1;
        return false;
    }
    if (recvFrame(fd, response, spin_wait) != RecvStatus::Ok) {
        ::close(fd);
        fd = -1;
        return false;
    }
    return true;
}

} // namespace livephase::service
