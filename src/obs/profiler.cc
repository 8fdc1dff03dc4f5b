#include "obs/profiler.hh"

#include "common/clock.hh"
#include "obs/metrics.hh"
#include "obs/runtime.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh" // LIVEPHASE_TLS_NO_UBSAN

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <unordered_map>

#include <dlfcn.h>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

#if defined(__linux__)
#define LIVEPHASE_PROFILER_LINUX 1
#include <linux/perf_event.h>
#include <pthread.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#else
#define LIVEPHASE_PROFILER_LINUX 0
#include <time.h>
#endif

/** The unwinder dereferences frame-pointer guesses inside the
 *  thread's stack bounds; under ASan those reads can land in
 *  redzones of unrelated locals, and under TSan they look like races
 *  with the interrupted code. Both are benign here, so the capture
 *  path opts out. The ring write it ends in (SeqlockRing::write) is
 *  all atomics and stays instrumented. */
#if defined(__clang__) || defined(__GNUC__)
#define LIVEPHASE_PROFILER_NOSAN                                     \
    __attribute__((no_sanitize("address", "thread", "undefined")))
#else
#define LIVEPHASE_PROFILER_NOSAN
#endif

namespace livephase::obs
{

namespace
{

std::atomic<bool> force_perf_denied{false};

/** True when perf_event_open must not be attempted: forced by the
 *  test hook or by LIVEPHASE_PROFILER_NO_PMC in the environment
 *  (the CI fallback job's lever). */
bool
perfDenied()
{
    if (force_perf_denied.load(std::memory_order_relaxed)) {
        return true;
    }
    static const bool env_denied =
        std::getenv("LIVEPHASE_PROFILER_NO_PMC") != nullptr;
    return env_denied;
}

Gauge &
healthGauge()
{
    static Gauge &g =
        MetricsRegistry::global().gauge("livephase_profiler_health");
    return g;
}

Gauge &
modeGauge()
{
    static Gauge &g =
        MetricsRegistry::global().gauge("livephase_profiler_mode");
    return g;
}

/** Windowed fleet series fed from the sampling tick. Resolved (and
 *  therefore registered) on the first start(), never from the
 *  signal handler: the registry lookup takes a shard mutex. A run
 *  that never starts the profiler — every simulated run — never
 *  even registers the names. */
struct ProfilerSeries
{
    WindowedCounter &samples;
    WindowedCounter &cycles;
    WindowedCounter &instructions;
    WindowedCounter &llc_misses;
    WindowedHistogram &ipc;
    Counter &samples_total;
};

ProfilerSeries &
profilerSeries()
{
    static ProfilerSeries s{
        MetricsRegistry::global().windowedCounter(
            "obs.profiler_samples"),
        MetricsRegistry::global().windowedCounter("self.cycles"),
        MetricsRegistry::global().windowedCounter(
            "self.instructions"),
        MetricsRegistry::global().windowedCounter("self.llc_misses"),
        MetricsRegistry::global().windowedHistogram("self.ipc"),
        MetricsRegistry::global().counter(
            "livephase_profiler_samples_total"),
    };
    return s;
}

uint64_t
rawMonotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** Walk the frame-pointer chain out of an interrupted context.
 *  Every dereference is bounds-checked against the thread's stack
 *  and the chain must strictly ascend, so a clobbered or FP-less
 *  frame terminates the walk instead of faulting. */
LIVEPHASE_PROFILER_NOSAN size_t
unwindFromContext(void *uctx, uintptr_t stack_lo, uintptr_t stack_hi,
                  uint64_t *out, size_t max)
{
    if (max == 0) {
        return 0;
    }
#if LIVEPHASE_PROFILER_LINUX && defined(__x86_64__)
    auto *uc = static_cast<ucontext_t *>(uctx);
    uintptr_t pc =
        static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    uintptr_t fp =
        static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif LIVEPHASE_PROFILER_LINUX && defined(__aarch64__)
    auto *uc = static_cast<ucontext_t *>(uctx);
    uintptr_t pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
    uintptr_t fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
    (void)uctx;
    (void)stack_lo;
    (void)stack_hi;
    return 0;
#endif
#if LIVEPHASE_PROFILER_LINUX &&                                      \
    (defined(__x86_64__) || defined(__aarch64__))
    size_t n = 0;
    out[n++] = static_cast<uint64_t>(pc);
    while (n < max) {
        if (fp < stack_lo ||
            fp + 2 * sizeof(uintptr_t) > stack_hi ||
            (fp & (sizeof(uintptr_t) - 1)) != 0) {
            break;
        }
        const uintptr_t next =
            *reinterpret_cast<const uintptr_t *>(fp);
        const uintptr_t ret = *reinterpret_cast<const uintptr_t *>(
            fp + sizeof(uintptr_t));
        if (ret < 0x1000) {
            break;
        }
        out[n++] = static_cast<uint64_t>(ret);
        if (next <= fp) {
            break;
        }
        fp = next;
    }
    return n;
#endif
}

/** dladdr + demangle one pc, memoized. Return addresses point one
 *  past the call, so they are backed up a byte first — otherwise a
 *  call ending a function symbolizes into its neighbour. */
std::string
symbolizePc(uint64_t pc, bool return_address,
            std::unordered_map<uint64_t, std::string> &cache)
{
    const uint64_t addr = (return_address && pc > 0) ? pc - 1 : pc;
    auto it = cache.find(addr);
    if (it != cache.end()) {
        return it->second;
    }
    std::string name;
    Dl_info info{};
    if (dladdr(reinterpret_cast<void *>(
                   static_cast<uintptr_t>(addr)),
               &info) != 0 &&
        info.dli_sname != nullptr) {
#if defined(__GNUG__)
        int status = -1;
        char *dem = abi::__cxa_demangle(info.dli_sname, nullptr,
                                        nullptr, &status);
        name = (status == 0 && dem != nullptr) ? dem
                                               : info.dli_sname;
        std::free(dem);
#else
        name = info.dli_sname;
#endif
    } else if (info.dli_fname != nullptr &&
               info.dli_fbase != nullptr) {
        const char *base = std::strrchr(info.dli_fname, '/');
        base = base != nullptr ? base + 1 : info.dli_fname;
        char buf[512];
        std::snprintf(buf, sizeof buf, "%s+0x%" PRIx64, base,
                      addr - static_cast<uint64_t>(
                                 reinterpret_cast<uintptr_t>(
                                     info.dli_fbase)));
        name = buf;
    } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%" PRIx64, addr);
        name = buf;
    }
    cache.emplace(addr, name);
    return name;
}

std::string
jsonEscapeSymbol(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

struct Profiler::ThreadState
{
    uint64_t id = 0;
    Profiler *owner = nullptr;
    uint32_t obs_tid = 0;
    char name[16] = {};
    /** Set under `mu` on first arm, before the timer exists. */
    std::shared_ptr<SeqlockRing<StackSample>> ring;

#if LIVEPHASE_PROFILER_LINUX
    pid_t tid = 0;
    clockid_t cpu_clock = CLOCK_THREAD_CPUTIME_ID;
    uintptr_t stack_lo = 0;
    uintptr_t stack_hi = 0;
    timer_t timer{};
    bool timer_armed = false;
    /** Group leader (cycles), instructions, LLC misses. */
    int perf_fd[3] = {-1, -1, -1};
    bool counters_open = false;
    uint64_t prev[3] = {0, 0, 0};
#endif
};

namespace
{

/** The sampled thread's registration, read by the SIGPROF handler.
 *  Cleared before its timer dies so a pending tick after
 *  unregistration sees null and returns. */
LIVEPHASE_TLS_NO_UBSAN Profiler::ThreadState *&
tlState()
{
    static thread_local Profiler::ThreadState *state = nullptr;
    return state;
}

} // namespace

/** Everything that runs inside the SIGPROF handler. Named friend
 *  (not a lambda/free function) so the capture path can touch the
 *  profiler's rings without widening its public surface. */
struct ProfilerSignalAccess
{
#if LIVEPHASE_PROFILER_LINUX
    LIVEPHASE_PROFILER_NOSAN static void
    readCounters(Profiler::ThreadState &state)
    {
        uint64_t buf[4] = {0, 0, 0, 0};
        const ssize_t got =
            read(state.perf_fd[0], buf, sizeof buf);
        if (got < static_cast<ssize_t>(2 * sizeof(uint64_t))) {
            return;
        }
        const uint64_t nr = buf[0];
        const uint64_t now[3] = {
            nr >= 1 ? buf[1] : 0,
            nr >= 2 ? buf[2] : 0,
            nr >= 3 ? buf[3] : 0,
        };
        const uint64_t d_cycles = now[0] - state.prev[0];
        const uint64_t d_instr = now[1] - state.prev[1];
        const uint64_t d_llc = now[2] - state.prev[2];
        state.prev[0] = now[0];
        state.prev[1] = now[1];
        state.prev[2] = now[2];
        if (d_cycles == 0) {
            return;
        }
        ProfilerSeries &series = profilerSeries();
        series.cycles.inc(d_cycles);
        series.instructions.inc(d_instr);
        series.llc_misses.inc(d_llc);
        series.ipc.record(static_cast<double>(d_instr) /
                          static_cast<double>(d_cycles));
    }

    LIVEPHASE_PROFILER_NOSAN static void
    capture(Profiler &p, Profiler::ThreadState &state, void *uctx)
    {
        publish(p, state,
                [&](uint64_t *pc) LIVEPHASE_PROFILER_NOSAN {
                    return unwindFromContext(uctx, state.stack_lo,
                                             state.stack_hi, pc,
                                             StackSample::MAX_DEPTH);
                });

        ProfilerSeries &series = profilerSeries();
        series.samples_total.inc();
        series.samples.inc();
        if (state.counters_open) {
            readCounters(state);
        }
    }

    LIVEPHASE_PROFILER_NOSAN static void
    onSignal(int signo, siginfo_t *info, void *uctx)
    {
        (void)signo;
        (void)info;
        const int saved_errno = errno;
        Profiler::ThreadState *state = tlState();
        if (state != nullptr && state->owner != nullptr &&
            state->owner->is_running.load(
                std::memory_order_relaxed)) {
            capture(*state->owner, *state, uctx);
        }
        errno = saved_errno;
    }
#endif

    /** The one sample write, shared by the SIGPROF handler and
     *  recordSampleForTest. `fill(pc)` writes the stack into
     *  pc[0, MAX_DEPTH) and returns its depth; it runs inside the
     *  handler, so it must be async-signal-safe and NOSAN too. */
    template <typename Fill>
    LIVEPHASE_PROFILER_NOSAN static void
    publish(Profiler &p, Profiler::ThreadState &state, Fill &&fill)
    {
        state.ring->write(
            [&](StackSample &rec, uint64_t) LIVEPHASE_PROFILER_NOSAN {
                rec.t_ns = rawMonotonicNs();
                rec.tid = state.obs_tid;
                std::memcpy(rec.thread_name, state.name,
                            sizeof rec.thread_name);
                rec.depth = static_cast<uint32_t>(fill(rec.pc));
            });
        p.samples_total.fetch_add(1, std::memory_order_relaxed);
    }
};

namespace
{

#if LIVEPHASE_PROFILER_LINUX

void
installSigprofHandler()
{
    static std::once_flag once;
    std::call_once(once, [] {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_sigaction = &ProfilerSignalAccess::onSignal;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGPROF, &sa, nullptr);
    });
}

int
perfOpenOne(pid_t tid, uint64_t config, int group_fd)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = config;
    /* Only the group leader starts disabled; members inherit the
     * leader's enable via PERF_IOC_FLAG_GROUP. */
    attr.disabled = group_fd == -1 ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP;
    return static_cast<int>(syscall(SYS_perf_event_open, &attr,
                                    tid, -1, group_fd, 0));
}

#endif // LIVEPHASE_PROFILER_LINUX

} // namespace

const char *
profilerModeName(ProfilerMode mode)
{
    switch (mode) {
    case ProfilerMode::Off:
        return "off";
    case ProfilerMode::TimerOnly:
        return "timer-only";
    case ProfilerMode::Full:
        return "full";
    }
    return "unknown";
}

Profiler::Profiler(size_t slots)
    : ring_slots(slots == 0 ? 1 : slots), rings(ring_slots)
{
}

Profiler::~Profiler()
{
    stop();
    if (tlState() != nullptr && tlState()->owner == this) {
        tlState() = nullptr;
    }
}

Profiler &
Profiler::global()
{
    /* Leaked: worker timers may tick during process exit and the
     * handler must never race static destruction. */
    static Profiler *g = new Profiler();
    return *g;
}

bool
Profiler::start(const ProfilerConfig &config)
{
    if (timebase::virtualized()) {
        /* Deterministic simulation owns the process; a real timer
         * would perturb the replay digest. */
        return false;
    }
#if !LIVEPHASE_PROFILER_LINUX
    (void)config;
    return false;
#else
    std::lock_guard<std::mutex> lock(mu);
    if (is_running.load(std::memory_order_relaxed)) {
        return true;
    }
    (void)profilerSeries(); // registry lookups happen here, not in
                            // the handler
    cfg = config;
    if (cfg.sample_hz == 0) {
        cfg.sample_hz = 1;
    }
    installSigprofHandler();
    counters_live.store(false, std::memory_order_relaxed);
    is_running.store(true, std::memory_order_release);
    for (auto &state : threads) {
        if (state->tid != 0) { // else reserved: arms on attach
            armThread(*state);
        }
    }
    setCycleAttribution(true);
    healthTick();
    return true;
#endif
}

void
Profiler::stop()
{
    std::lock_guard<std::mutex> lock(mu);
    if (!is_running.load(std::memory_order_relaxed)) {
        return;
    }
    is_running.store(false, std::memory_order_release);
    setCycleAttribution(false);
    for (auto &state : threads) {
        disarmThread(*state);
    }
    counters_live.store(false, std::memory_order_relaxed);
    healthTick();
}

bool
Profiler::running() const
{
    return is_running.load(std::memory_order_relaxed);
}

ProfilerMode
Profiler::mode() const
{
    if (!is_running.load(std::memory_order_relaxed)) {
        return ProfilerMode::Off;
    }
    return counters_live.load(std::memory_order_relaxed)
               ? ProfilerMode::Full
               : ProfilerMode::TimerOnly;
}

bool
Profiler::countersLive() const
{
    return counters_live.load(std::memory_order_relaxed);
}

Profiler::ThreadState *
Profiler::reserveThread(const char *name)
{
    auto state = std::make_shared<ThreadState>();
    state->owner = this;
    state->id = next_thread_id.fetch_add(
                    1, std::memory_order_relaxed) +
                1;
    std::snprintf(state->name, sizeof state->name, "%s",
                  name != nullptr ? name : "thread");
    std::lock_guard<std::mutex> lock(mu);
    threads.push_back(state);
    return state.get();
}

uint64_t
Profiler::attachCurrentThread(ThreadState &state)
{
    std::lock_guard<std::mutex> lock(mu);
    state.obs_tid = threadId();
#if LIVEPHASE_PROFILER_LINUX
    state.tid = static_cast<pid_t>(syscall(SYS_gettid));
    if (pthread_getcpuclockid(pthread_self(), &state.cpu_clock) != 0) {
        state.cpu_clock = CLOCK_THREAD_CPUTIME_ID;
    }
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void *lo = nullptr;
        size_t size = 0;
        if (pthread_attr_getstack(&attr, &lo, &size) == 0) {
            state.stack_lo = reinterpret_cast<uintptr_t>(lo);
            state.stack_hi = state.stack_lo + size;
        }
        pthread_attr_destroy(&attr);
    }
#endif
    /* Publish TLS before arming: a tick between timer_settime and
     * a later publication would be dropped, never misattributed. */
    tlState() = &state;
    if (is_running.load(std::memory_order_relaxed)) {
        armThread(state);
    }
    return state.id;
}

void
Profiler::unregisterCurrentThread(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto it = threads.begin(); it != threads.end(); ++it) {
        if ((*it)->id != id) {
            continue;
        }
        std::shared_ptr<ThreadState> victim = *it;
        threads.erase(it);
        if (tlState() == victim.get()) {
            /* Clear TLS before the timer dies: POSIX leaves a
             * pending tick deliverable after timer_delete, and the
             * handler must find nothing to write into. */
            tlState() = nullptr;
        }
        disarmThread(*victim);
        return;
    }
}

bool
Profiler::armThread(ThreadState &state)
{
#if LIVEPHASE_PROFILER_LINUX
    if (state.timer_armed) {
        return true;
    }
    if (!state.ring) {
        state.ring = rings.acquire();
    }
    struct sigevent sev;
    std::memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = state.tid;
    timer_t timer{};
    if (timer_create(state.cpu_clock, &sev, &timer) != 0 &&
        /* Some kernels refuse timers on pthread cpu clocks; a
         * monotonic timer still samples, just including off-CPU
         * time. */
        timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
        arm_failures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    itimerspec its{};
    const long period_ns =
        1000000000L / static_cast<long>(cfg.sample_hz);
    its.it_interval.tv_sec = period_ns / 1000000000L;
    its.it_interval.tv_nsec = period_ns % 1000000000L;
    its.it_value = its.it_interval;
    if (timer_settime(timer, 0, &its, nullptr) != 0) {
        timer_delete(timer);
        arm_failures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    state.timer = timer;
    state.timer_armed = true;
    if (openCounters(state)) {
        counters_live.store(true, std::memory_order_relaxed);
    }
    return true;
#else
    (void)state;
    arm_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
#endif
}

void
Profiler::disarmThread(ThreadState &state)
{
#if LIVEPHASE_PROFILER_LINUX
    if (state.counters_open) {
        state.counters_open = false;
        for (int &fd : state.perf_fd) {
            if (fd >= 0) {
                close(fd);
                fd = -1;
            }
        }
    }
    if (state.timer_armed) {
        state.timer_armed = false;
        timer_delete(state.timer);
    }
#else
    (void)state;
#endif
}

bool
Profiler::openCounters(ThreadState &state)
{
#if LIVEPHASE_PROFILER_LINUX
    if (!cfg.counters || perfDenied()) {
        return false;
    }
    const int lead =
        perfOpenOne(state.tid, PERF_COUNT_HW_CPU_CYCLES, -1);
    if (lead < 0) {
        return false;
    }
    const int ins =
        perfOpenOne(state.tid, PERF_COUNT_HW_INSTRUCTIONS, lead);
    if (ins < 0) {
        close(lead);
        return false;
    }
    /* LLC misses are frequently unavailable under virtualization;
     * cycles + instructions alone still yield the IPC series. */
    const int llc =
        perfOpenOne(state.tid, PERF_COUNT_HW_CACHE_MISSES, lead);
    ioctl(lead, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(lead, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    state.perf_fd[0] = lead;
    state.perf_fd[1] = ins;
    state.perf_fd[2] = llc;
    state.prev[0] = state.prev[1] = state.prev[2] = 0;
    state.counters_open = true;
    return true;
#else
    (void)state;
    return false;
#endif
}

std::vector<StackSample>
Profiler::snapshot() const
{
    std::vector<StackSample> out;
    rings.snapshotInto(out);
    std::sort(out.begin(), out.end(),
              [](const StackSample &a, const StackSample &b) {
                  return a.t_ns < b.t_ns;
              });
    return out;
}

std::string
Profiler::renderFolded() const
{
    const std::vector<StackSample> samples = snapshot();
    std::unordered_map<uint64_t, std::string> symcache;
    std::map<std::string, uint64_t> folded;
    for (const auto &s : samples) {
        std::string line =
            s.thread_name[0] != '\0' ? s.thread_name : "thread";
        for (size_t i = s.depth; i-- > 0;) {
            line += ';';
            line += symbolizePc(s.pc[i], /*return_address=*/i > 0,
                                symcache);
        }
        ++folded[line];
    }
    std::string out;
    for (const auto &[stack, count] : folded) {
        out += stack;
        out += ' ';
        out += std::to_string(count);
        out += '\n';
    }
    return out;
}

std::string
Profiler::renderJsonl() const
{
    const std::vector<StackSample> samples = snapshot();
    std::unordered_map<uint64_t, std::string> symcache;
    std::string out;
    char head[256];
    std::snprintf(head, sizeof head,
                  "{\"profiler\":{\"running\":%s,\"mode\":\"%s\","
                  "\"sample_hz\":%u,\"ring_slots\":%zu,"
                  "\"samples_total\":%" PRIu64
                  ",\"samples_retained\":%zu,\"arm_failures\":%" PRIu64
                  "}}\n",
                  running() ? "true" : "false",
                  profilerModeName(mode()), cfg.sample_hz,
                  ring_slots, samplesTotal(), samples.size(),
                  armFailures());
    out += head;
    for (const auto &s : samples) {
        char prefix[128];
        std::snprintf(prefix, sizeof prefix,
                      "{\"t_ns\":%" PRIu64
                      ",\"tid\":%u,\"thread\":\"%s\",\"stack\":[",
                      s.t_ns, s.tid,
                      s.thread_name[0] != '\0' ? s.thread_name
                                               : "thread");
        out += prefix;
        // Leaf first, matching capture order.
        for (size_t i = 0; i < s.depth; ++i) {
            if (i > 0) {
                out += ',';
            }
            out += '"';
            out += jsonEscapeSymbol(symbolizePc(
                s.pc[i], /*return_address=*/i > 0, symcache));
            out += '"';
        }
        out += "]}\n";
    }
    return out;
}

void
Profiler::healthTick()
{
    const bool run = is_running.load(std::memory_order_relaxed);
    const bool healthy =
        !run || arm_failures.load(std::memory_order_relaxed) == 0;
    healthGauge().set(healthy ? 1.0 : 0.0);
    modeGauge().set(static_cast<double>(mode()));
}

void
Profiler::reset()
{
    rings.clear();
    samples_total.store(0, std::memory_order_relaxed);
    arm_failures.store(0, std::memory_order_relaxed);
}

void
Profiler::recordSampleForTest(const uint64_t *pcs, size_t depth)
{
    ThreadState *state = tlState();
    if (state == nullptr || state->owner != this) {
        /* Bare registration (no RAII guard): standalone test
         * instances drive the ring path directly and the entry
         * dies with the profiler. */
        attachCurrentThread(*reserveThread("test"));
        state = tlState();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!state->ring) {
            state->ring = rings.acquire();
        }
    }
    ProfilerSignalAccess::publish(
        *this, *state, [&](uint64_t *pc) LIVEPHASE_PROFILER_NOSAN {
            const size_t n = std::min(depth, StackSample::MAX_DEPTH);
            for (size_t i = 0; i < n; ++i) {
                pc[i] = pcs[i];
            }
            return n;
        });
}

bool
Profiler::setForcePerfDeniedForTest(bool on)
{
    return force_perf_denied.exchange(on,
                                      std::memory_order_relaxed);
}

} // namespace livephase::obs
