#include "obs/flight_recorder.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iostream>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace livephase::obs
{

const char *
severityName(Severity sev)
{
    switch (sev) {
      case Severity::Debug: return "DEBUG";
      case Severity::Info: return "INFO";
      case Severity::Warn: return "WARN";
      case Severity::Error: return "ERROR";
      case Severity::Fatal: return "FATAL";
    }
    return "SEV?";
}

FlightRecorder::FlightRecorder(size_t capacity) : ring(capacity) {}

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::record(Severity sev, const char *name,
                       std::initializer_list<FieldArg> fields)
{
    ring.write([&](Event &ev, uint64_t seq) {
        ev.seq = seq;
        ev.t_ns = sinceStartNs();
        ev.tid = threadId();
        ev.sev = sev;
        copyTruncated(ev.name, sizeof(ev.name), name);
        currentSpanPath(ev.span, sizeof(ev.span));
        for (const FieldArg &field : fields) {
            if (ev.nfields >= MAX_FIELDS)
                break;
            ev.fields[ev.nfields++] = field;
        }
    });
}

std::vector<FlightRecorder::Event>
FlightRecorder::snapshotEvents() const
{
    std::vector<Event> events;
    ring.snapshotInto(events);
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  return a.seq < b.seq;
              });
    return events;
}

void
FlightRecorder::dump(std::ostream &os) const
{
    const std::vector<Event> events = snapshotEvents();
    const uint64_t total = recorded();
    const uint64_t dropped =
        total > events.size() ? total - events.size() : 0;
    os << "--- flight recorder: " << events.size() << " events";
    if (dropped > 0)
        os << " (" << dropped << " older dropped)";
    os << " ---\n";
    char line[64];
    for (const Event &ev : events) {
        std::snprintf(line, sizeof(line), "[%+12.6fs t%02u] %-5s ",
                      static_cast<double>(ev.t_ns) / 1e9, ev.tid,
                      severityName(ev.sev));
        os << line << ev.name;
        if (ev.span[0] != '\0')
            os << " span=" << ev.span;
        for (uint8_t f = 0; f < ev.nfields; ++f)
            os << ' ' << ev.fields[f].key << '='
               << ev.fields[f].value;
        os << '\n';
    }
    os << "--- end flight recorder ---\n";
}

bool
FlightRecorder::autoDump(const char *reason)
{
    std::lock_guard lock(dump_mu);
    const std::string key(reason ? reason : "");
    const uint64_t now = monoNowNs();
    DumpLatch *latch = nullptr;
    for (DumpLatch &l : latches) {
        if (l.reason == key) {
            latch = &l;
            break;
        }
    }
    if (latch) {
        // Cooldown 0 means "no limit"; otherwise a repeat trigger
        // within the window is deduped, counted, and dropped.
        if (cooldown_ns == 0 ||
            now - latch->last_dump_ns >= cooldown_ns) {
            latch->last_dump_ns = now;
        } else {
            suppressed.fetch_add(1, std::memory_order_relaxed);
            static Counter &suppressed_total =
                MetricsRegistry::global().counter(
                    "livephase_flight_dumps_suppressed_total");
            suppressed_total.inc();
            return false;
        }
    } else {
        latches.push_back({key, now});
    }
    std::ostream &os = sink ? *sink : std::cerr;
    os << "flight-recorder auto-dump (reason=" << key;
    // Cross-reference: when the triggering thread is handling a
    // sampled request, name the trace so the dump and the span
    // tree can be joined up; the mirror-image instant event marks
    // the dump inside the trace itself.
    const TraceContext ctx = currentTrace();
    if (ctx.sampled()) {
        char id[24];
        std::snprintf(id, sizeof(id), "0x%" PRIx64, ctx.trace_id);
        os << ", trace_id=" << id;
        traceInstant("flight.dump", {{"reason", key.c_str()}});
    }
    os << ")\n";
    dump(os);
    os.flush();
    return true;
}

void
FlightRecorder::setDumpCooldown(uint64_t ns)
{
    std::lock_guard lock(dump_mu);
    cooldown_ns = ns;
}

uint64_t
FlightRecorder::dumpCooldownNs() const
{
    std::lock_guard lock(dump_mu);
    return cooldown_ns;
}

void
FlightRecorder::setDumpSink(std::ostream *os)
{
    std::lock_guard lock(dump_mu);
    sink = os;
}

void
FlightRecorder::resetDumpLatches()
{
    std::lock_guard lock(dump_mu);
    latches.clear();
}

// --- logging bridge ----------------------------------------------
//
// Routes WARN+ lines from common/logging into the recorder so one
// dump carries both structured trace events and the log stream, and
// forces a dump on panic()/fatal() before the process dies. The
// sink is installed from a static initializer so any binary linking
// the library gets the behavior without explicit setup; the
// function-local statics behind global() make the ordering safe.

namespace
{

void
logSink(LogSeverity level, const std::string &message)
{
    Severity sev;
    switch (level) {
      case LogSeverity::Warn:
        sev = Severity::Warn;
        break;
      case LogSeverity::Error:
        sev = Severity::Error;
        break;
      case LogSeverity::Fatal:
        sev = Severity::Fatal;
        break;
      default:
        return; // Debug/Info stay out of the ring
    }
    FlightRecorder &recorder = FlightRecorder::global();
    recorder.record(sev, "log", {{"msg", message}});
    if (sev == Severity::Fatal)
        recorder.autoDump("fatal");
}

struct LogBridgeInstaller
{
    LogBridgeInstaller() { setLogSink(&logSink); }
};

LogBridgeInstaller log_bridge_installer;

} // namespace

} // namespace livephase::obs
