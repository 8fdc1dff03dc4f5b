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

  private:
    void acceptLoop();
    void serveConnection(int fd);

    LivePhaseService &svc;
    std::string sock_path;
    int listen_fd = -1;
    std::atomic<bool> running{false};
    std::thread acceptor;
    std::mutex conns_mu;
    std::vector<std::thread> conn_threads;
    std::vector<int> conn_fds;
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

    /** Send one frame, receive one frame. Empty on I/O failure. */
    Bytes roundTrip(Bytes request_frame) override;

    /** Buffer-reusing round trip: the response lands in `response`
     *  (capacity recycled across calls), so a steady-state client
     *  stops allocating on the socket path. */
    bool roundTripInto(const Bytes &request_frame,
                       Bytes &response) override;

  private:
    std::string sock_path;
    int fd = -1;
};

} // namespace livephase::service

#endif // LIVEPHASE_SERVICE_UDS_TRANSPORT_HH
