/**
 * @file
 * Unix-domain-socket transport for livephased.
 *
 * The wire format is exactly the protocol frame: each request/
 * response already carries its payload length in the 20-byte
 * header, so stream framing is "read a header, read payload_size
 * more bytes". A frame whose magic/version is wrong, or whose
 * declared payload exceeds MAX_PAYLOAD_SIZE, desynchronizes the
 * stream — the server answers BadFrame and drops the connection
 * rather than guessing where the next frame starts.
 *
 * The server runs one acceptor thread plus one thread per
 * connection; every accepted frame goes through the service's
 * submit() path, so socket clients see the same admission, queueing
 * and RetryAfter backpressure as in-process ones. An idle service
 * serves the frame on the connection thread itself (caller-runs);
 * under load it queues for the worker pool.
 *
 * Both ends wait for a frame spin-then-block: a connection whose
 * previous frame arrived within a 50 us budget probes with
 * non-blocking recv (yielding between probes) before it blocks, so
 * a closed-loop round trip does not pay two thread wake-ups; one
 * whose frames arrive further apart blocks at once.
 */

#ifndef LIVEPHASE_SERVICE_UDS_TRANSPORT_HH
#define LIVEPHASE_SERVICE_UDS_TRANSPORT_HH

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/service.hh"

namespace livephase::service
{

/**
 * Serves a LivePhaseService on a Unix-domain socket path.
 */
class UdsServer
{
  public:
    /** @param path filesystem socket path (unlinked on bind/stop). */
    UdsServer(LivePhaseService &service, std::string path);

    ~UdsServer();

    UdsServer(const UdsServer &) = delete;
    UdsServer &operator=(const UdsServer &) = delete;

    /**
     * Bind, listen and start the acceptor. Returns false (with a
     * warn()) when the socket cannot be created — e.g. a sandbox
     * without AF_UNIX — so callers can fall back to in-process.
     */
    bool start();

    /** Stop accepting, shut down live connections, join threads.
     *  Idempotent; the destructor calls it. */
    void stop();

    const std::string &path() const { return sock_path; }

    /** Connection threads not yet joined: one per live connection,
     *  plus any that finished since the last accept (the acceptor
     *  joins those before it serves the next connection). */
    size_t connectionThreads() const;

  private:
    /** A live connection: its socket and the thread serving it. */
    struct Connection
    {
        int fd;
        std::thread thread;
    };

    void acceptLoop();
    void serveConnection(int fd);

    /** Move the calling connection's thread to `finished` and
     *  forget its fd, so stop() never shuts down a number the
     *  process may reuse once serveConnection() closes it. */
    void forgetConnection(int fd);

    /** Join the threads of connections that have finished. */
    void joinFinished();

    LivePhaseService &svc;
    std::string sock_path;
    int listen_fd = -1;
    std::atomic<bool> running{false};
    std::thread acceptor;
    mutable std::mutex conns_mu;
    std::vector<Connection> conns;
    std::vector<std::thread> finished;
};

/**
 * Client side: connects to a UdsServer and round-trips frames.
 * Thread-compatible, not thread-safe (one connection, one caller —
 * or external locking).
 */
class UdsClientTransport : public FrameTransport
{
  public:
    explicit UdsClientTransport(std::string path);

    ~UdsClientTransport() override;

    UdsClientTransport(const UdsClientTransport &) = delete;
    UdsClientTransport &operator=(const UdsClientTransport &) =
        delete;

    /** Connect (closing any previous connection first); false when
     *  the server is unreachable. */
    bool connect();

    /** Drop the (possibly desynchronized) connection and dial
     *  again — the transport-loss recovery hook ServiceClient's
     *  retry loop uses. */
    bool reconnect() override;

    bool connected() const { return fd >= 0; }

    /** Send one frame, receive one frame into `response`
     *  (capacity recycled across calls), so a steady-state client
     *  stops allocating on the socket path. False on I/O failure,
     *  which also drops the connection. */
    bool roundTripInto(const Bytes &request_frame,
                       Bytes &response) override;

  private:
    std::string sock_path;
    int fd = -1;
    /** Spin-then-block state of the reply wait: whether the last
     *  reply came back within the spin budget. */
    bool spin_wait = true;
};

} // namespace livephase::service

#endif // LIVEPHASE_SERVICE_UDS_TRANSPORT_HH
