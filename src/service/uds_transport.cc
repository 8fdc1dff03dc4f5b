#include "service/uds_transport.hh"

#include <cerrno>
#include <cstring>
#include <optional>

#include <sys/socket.h>
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

/** Read exactly n bytes; false on EOF/error.
 *
 *  Failpoint "uds.read": Error = the peer vanished before a byte
 *  arrived; PartialIo = half the bytes arrive, then the stream dies
 *  (a disconnect mid-frame). Delay stalls inside evaluate(),
 *  modelling a jittery peer. */
bool
recvAll(int fd, uint8_t *buf, size_t n)
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
        const ssize_t got = ::recv(fd, buf + done, want - done, 0);
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

/** Read one frame off the stream. */
RecvStatus
recvFrame(int fd, Bytes &frame)
{
    frame.clear();
    uint8_t header_bytes[FRAME_HEADER_SIZE];
    if (!recvAll(fd, header_bytes, sizeof(header_bytes)))
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

    std::vector<std::thread> threads;
    {
        std::lock_guard lock(conns_mu);
        for (int fd : conn_fds)
            ::shutdown(fd, SHUT_RDWR);
        threads.swap(conn_threads);
    }
    for (std::thread &t : threads)
        t.join();
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
        std::lock_guard lock(conns_mu);
        conn_fds.push_back(fd);
        conn_threads.emplace_back(
            [this, fd] { serveConnection(fd); });
    }
}

void
UdsServer::serveConnection(int fd)
{
    // Caller-runs submit serves most frames on this thread, so a
    // profiled daemon samples it like a worker. Registration costs a
    // ~200 KB sample ring that outlives the thread, so an unprofiled
    // daemon skips it; a profiled one started its profiler at
    // construction, before any connection.
    std::optional<obs::ThreadProfile> profile_guard;
    if (obs::Profiler::global().running())
        profile_guard.emplace("uds-conn");
    TransportCounters &tc = TransportCounters::get();
    tc.accepted.inc();
    // Request frames are pooled leases (submit() takes ownership);
    // responses come back as detached pool storage that is donated
    // back after the send, so a busy connection recycles the same
    // few buffers instead of allocating per frame.
    Bytes response;
    while (running.load()) {
        BufferPool::Lease frame = BufferPool::global().lease();
        const RecvStatus status = recvFrame(fd, *frame);
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
    tc.closed.inc();
    ::close(fd);
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

Bytes
UdsClientTransport::roundTrip(Bytes request_frame)
{
    Bytes response;
    if (!roundTripInto(request_frame, response))
        return {};
    return response;
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
    if (recvFrame(fd, response) != RecvStatus::Ok) {
        ::close(fd);
        fd = -1;
        return false;
    }
    return true;
}

} // namespace livephase::service
