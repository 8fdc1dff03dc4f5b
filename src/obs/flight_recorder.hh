/**
 * @file
 * Flight recorder: a fixed-size, lock-free ring of structured trace
 * events, always recording, dumped only when something goes wrong.
 *
 * The shape follows FoundationDB's trace-event discipline: the hot
 * path appends compact events (severity, monotonic timestamp,
 * thread id, active span path, up to 4 key=value fields) into one
 * preallocated SeqlockRing (obs/seqlock_ring.hh) shared by every
 * thread — no locks, no allocation, old events simply overwritten.
 * When an error trips (malformed frame, socket desync, eviction
 * storm, panic/fatal), the last N events are dumped in order, giving
 * the *lead-up* to the failure, not just the failure line.
 *
 * Auto-dumps are latched once per reason per process so a storm of
 * malformed frames produces one dump, not thousands; tests reset
 * the latches and redirect the sink.
 *
 * Field values are preformatted into fixed buffers at record time —
 * a dump can therefore never embed raw payload bytes unless a call
 * site deliberately formats them in; call sites logging protocol
 * errors must record lengths and opcodes only (see DESIGN.md §11).
 */

#ifndef LIVEPHASE_OBS_FLIGHT_RECORDER_HH
#define LIVEPHASE_OBS_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/runtime.hh"
#include "obs/seqlock_ring.hh"

namespace livephase::obs
{

/** Event severity, ordered; mirrors common/logging.hh severities. */
enum class Severity : uint8_t
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Fatal = 4,
};

const char *severityName(Severity sev);

class FlightRecorder
{
  public:
    static constexpr size_t NAME_LEN = 31;
    static constexpr size_t SPAN_LEN = 63;
    static constexpr size_t KEY_LEN = 15;
    static constexpr size_t VALUE_LEN = 63;
    static constexpr size_t MAX_FIELDS = 4;

    /** One key=value attachment, preformatted at the call site. */
    struct FieldArg
    {
        FieldArg(const char *key, const char *value);
        FieldArg(const char *key, const std::string &value);
        FieldArg(const char *key, uint64_t value);
        FieldArg(const char *key, int64_t value);
        FieldArg(const char *key, double value);

        char key[KEY_LEN + 1] = {};
        char value[VALUE_LEN + 1] = {};
    };

    /** One recorded event as read back out of the ring. */
    struct Event
    {
        uint64_t seq = 0;   ///< global order of recording
        uint64_t t_ns = 0;  ///< sinceStartNs() at record time
        uint32_t tid = 0;   ///< obs::threadId()
        Severity sev = Severity::Info;
        char name[NAME_LEN + 1] = {};
        char span[SPAN_LEN + 1] = {};
        uint8_t nfields = 0;
        struct
        {
            char key[KEY_LEN + 1] = {};
            char value[VALUE_LEN + 1] = {};
        } fields[MAX_FIELDS];
    };

    /** @param capacity ring slots; fatal() when 0. */
    explicit FlightRecorder(size_t capacity = 1024);

    /** The process-wide recorder everything reports into. */
    static FlightRecorder &global();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Append one event (lock-free and wait-free; an event whose
     *  slot a lapped writer still holds is dropped). */
    void record(Severity sev, const char *name,
                std::initializer_list<FieldArg> fields = {});

    /**
     * Consistent best-effort copy of the ring, oldest first. Slots
     * being concurrently overwritten are skipped.
     */
    std::vector<Event> snapshotEvents() const;

    /** Write every held event to `os`, oldest first. */
    void dump(std::ostream &os) const;

    /**
     * Dump to the configured sink (stderr by default), rate-limited
     * per distinct `reason`: the first trigger dumps, repeats within
     * the cooldown window are suppressed (counted in
     * `livephase_flight_dumps_suppressed_total`) so a sustained
     * breach produces one dump per cause per window, not a spam
     * storm. Returns true when a dump was actually produced.
     */
    bool autoDump(const char *reason);

    /** Per-reason re-dump cooldown; default 60 s. 0 disables the
     *  limit (every trigger dumps). */
    void setDumpCooldown(uint64_t ns);

    uint64_t dumpCooldownNs() const;

    /** Dumps suppressed by the cooldown since process start. */
    uint64_t suppressedDumps() const
    {
        return suppressed.load(std::memory_order_relaxed);
    }

    /** Redirect dumps; nullptr restores stderr. */
    void setDumpSink(std::ostream *os);

    /** Re-arm every autoDump() reason latch (tests). */
    void resetDumpLatches();

    /** Events ever recorded (>= capacity() implies wraparound). */
    uint64_t recorded() const { return ring.claimed(); }

    size_t capacity() const { return ring.capacity(); }

  private:
    SeqlockRing<Event> ring;

    struct DumpLatch
    {
        std::string reason;
        uint64_t last_dump_ns; ///< monoNowNs() of the last dump
    };

    mutable std::mutex dump_mu; ///< sink pointer + latch set
    std::ostream *sink = nullptr;
    std::vector<DumpLatch> latches;
    uint64_t cooldown_ns = 60'000'000'000; ///< 60 s
    std::atomic<uint64_t> suppressed{0};
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_FLIGHT_RECORDER_HH
