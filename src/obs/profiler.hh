/**
 * @file
 * Continuous in-process profiling plane (DESIGN.md §18): livephased
 * profiling livephased. Three cooperating pieces:
 *
 *  1. A sampling on-CPU profiler. Every registered thread gets a
 *     POSIX per-thread CPU-time timer (timer_create on the thread's
 *     cpu clock, SIGEV_THREAD_ID) that delivers SIGPROF after each
 *     1/hz of *consumed* CPU — idle threads produce no samples,
 *     which is exactly the on-CPU semantic. The handler walks the
 *     frame-pointer chain out of the interrupted context into a
 *     per-thread SeqlockRing (obs/seqlock_ring.hh), allocated when
 *     the thread is first armed, so capture is async-signal-safe:
 *     no locks, no allocation, only atomics and bounded stack
 *     reads. Symbolization (dladdr + demangle)
 *     happens offline at snapshot/render time; export is folded
 *     stacks (flamegraph.pl input) or JSONL.
 *
 *  2. Real PMCs via perf_event_open: cycles, instructions and
 *     LLC misses per registered thread, read (a plain read(2),
 *     signal-safe) on each sampling tick. The measured IPC feeds
 *     the windowed fleet series `self.ipc` — the paper's live PMC
 *     phase monitor pointed at the server itself. When the syscall
 *     is denied (containers, perf_event_paranoid, seccomp) the
 *     plane degrades one rung to timer-only sampling; when timers
 *     or the platform are unavailable it degrades to off. The
 *     fallback ladder is observable: livephase_profiler_mode 2/1/0.
 *
 *  3. Per-stage cycle attribution: while the profiler runs,
 *     OBS_SPAN sites additionally record TSC deltas into windowed
 *     `cycles.<span>` series (see obs/span.hh), giving `stats
 *     --watch` a live cycles-by-stage breakdown.
 *
 * Simulation contract: the profiler is a hard no-op under virtual
 * time — start() refuses while timebase::virtualized(), and the
 * simulator stops any running profiler before installing its clock
 * (sim_world resetGlobals), so `sim_runner --replay-check` digests
 * stay bit-identical with the profiler compiled in. All profiler
 * timestamps are raw CLOCK_MONOTONIC reads, never the seam: they
 * exist only on wall-time paths by construction.
 *
 * Cost model: at the default 99 Hz a sample is ~1–2 µs of handler
 * (bounded unwind + ring store + counter read); bench_obs_overhead
 * --profiler gates the end-to-end cost under the same 5% budget as
 * the rest of the obs plane.
 */

#ifndef LIVEPHASE_OBS_PROFILER_HH
#define LIVEPHASE_OBS_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/seqlock_ring.hh"

namespace livephase::obs
{

/** Tuning knobs for Profiler::start(). */
struct ProfilerConfig
{
    /** Sampling frequency in Hz of per-thread CPU time. 99 (not
     *  100) so ticks do not phase-lock with 10 ms scheduler
     *  boundaries — the classic profiler prime-adjacent choice. */
    uint32_t sample_hz = 99;

    /** Attempt perf_event_open hardware counters. When false (or
     *  denied at runtime) the plane runs timer-only. */
    bool counters = true;
};

/** Fallback ladder rung the plane currently runs at. */
enum class ProfilerMode : uint8_t
{
    Off = 0,       ///< not running (or refused: sim/platform)
    TimerOnly = 1, ///< sampling stacks; PMCs denied or disabled
    Full = 2,      ///< sampling stacks + hardware counters
};

const char *profilerModeName(ProfilerMode mode);

/** One captured stack sample as read back out of a ring. */
struct StackSample
{
    static constexpr size_t MAX_DEPTH = 48;

    uint64_t t_ns = 0;  ///< raw CLOCK_MONOTONIC at capture
    uint32_t tid = 0;   ///< obs::threadId() of the sampled thread
    uint32_t depth = 0; ///< valid entries in pc[]
    uint64_t pc[MAX_DEPTH] = {}; ///< leaf first, caller chain after
    char thread_name[16] = {};   ///< registration label ("worker")
};

/**
 * The profiling plane. One process-global instance (global());
 * standalone instances exist for tests. Threads opt in with a
 * ThreadProfile guard; start()/stop() arm and disarm every
 * registered thread. All public methods are safe to call from any
 * thread; none are safe from a signal handler except what the
 * handler itself uses internally.
 */
class Profiler
{
  public:
    /** Samples retained per thread before drop-oldest. ~400 B per
     *  slot: 512 slots ≈ 0.2 MB per armed thread. */
    static constexpr size_t DEFAULT_RING_SLOTS = 512;

    explicit Profiler(size_t ring_slots = DEFAULT_RING_SLOTS);
    ~Profiler();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** The instance service workers and the CLI register with. */
    static Profiler &global();

    /**
     * Arm sampling on every registered thread (and every thread
     * that registers later). Returns false — and changes nothing —
     * under virtual time (deterministic simulation owns the
     * process) and on platforms without POSIX per-thread timers.
     * Idempotent while running (true, config unchanged). Enables
     * per-stage cycle attribution as a side effect.
     */
    bool start(const ProfilerConfig &config = {});

    /** Disarm all timers, close counters, disable cycle
     *  attribution. Retained samples survive for snapshotting.
     *  Idempotent. */
    void stop();

    bool running() const;

    /** Current fallback-ladder rung (Off when not running). */
    ProfilerMode mode() const;

    /** True when at least one thread has live hardware counters. */
    bool countersLive() const;

    /** Samples ever captured (minus a snapshot's size = dropped to
     *  overwrite). */
    uint64_t samplesTotal() const
    {
        return samples_total.load(std::memory_order_relaxed);
    }

    /** Thread registrations that failed to arm (timer_create
     *  errors); nonzero pins the health gauge to 0. */
    uint64_t armFailures() const
    {
        return arm_failures.load(std::memory_order_relaxed);
    }

    /** Consistent best-effort copy of every ring, oldest first. */
    std::vector<StackSample> snapshot() const;

    /**
     * Folded-stacks export: one `thread;outer;...;leaf count` line
     * per distinct stack — flamegraph.pl's input format.
     * Symbolization via dladdr (exported symbols; others render as
     * module+offset) happens here, never at capture.
     */
    std::string renderFolded() const;

    /** JSONL export: one meta line (mode, sample/drop counts,
     *  counter totals), then one JSON object per sample. */
    std::string renderJsonl() const;

    /**
     * Watchdog hook (called from the SLO eval tick): refresh
     * livephase_profiler_health — 1 while stopped (vacuously
     * healthy) or running with every registered thread armed, 0
     * once any arm failed — and the mode gauge.
     */
    void healthTick();

    /** Drop all retained samples (tests / between CLI phases).
     *  Only safe while no registered thread is being sampled. */
    void reset();

    /** Test hook: record a synthetic sample through the handler's
     *  ring-write path on the calling thread (registers it if
     *  needed). Exercises overflow/drop-oldest deterministically. */
    void recordSampleForTest(const uint64_t *pcs, size_t depth);

    /** Test hook: make every perf_event_open attempt fail as if
     *  denied (EACCES), forcing the timer-only rung. Also honored
     *  when LIVEPHASE_PROFILER_NO_PMC is set in the environment.
     *  Returns the previous setting. */
    static bool setForcePerfDeniedForTest(bool on);

    size_t ringSlots() const { return ring_slots; }

    /** Sample rings: one per thread armed at once, none before. */
    size_t ringCount() const { return rings.ringCount(); }

    /** Threads registered now, armed or not. */
    size_t threadCount() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return threads.size();
    }

    struct ThreadState; // opaque; owned via registry below

    /** Registration in two halves; prefer the ThreadProfile guard.
     *  reserveThread() allocates, possibly on the thread that starts
     *  the registered one; that thread then attachCurrentThread()s
     *  (no allocation; only attached threads are sampled). */
    ThreadState *reserveThread(const char *name);
    uint64_t attachCurrentThread(ThreadState &state);
    void unregisterCurrentThread(uint64_t id);

  private:
    friend struct ProfilerSignalAccess;

    bool armThread(ThreadState &state);
    void disarmThread(ThreadState &state);
    bool openCounters(ThreadState &state);

    const size_t ring_slots;
    std::atomic<bool> is_running{false};
    std::atomic<bool> counters_live{false};
    std::atomic<uint64_t> samples_total{0};
    std::atomic<uint64_t> arm_failures{0};
    std::atomic<uint64_t> next_thread_id{0};
    ProfilerConfig cfg{};

    mutable std::mutex mu; ///< thread registry + lifecycle
    std::vector<std::shared_ptr<ThreadState>> threads;
    /** A departed thread's samples stay readable until a thread
     *  armed later reuses its ring. */
    ThreadRings<StackSample> rings;
};

/**
 * RAII thread registration: workers, connection threads and replay
 * loops place one on their stack; while the profiler is stopped it
 * allocates no sample ring. `name` labels the folded-stack root.
 */
class ThreadProfile
{
  public:
    explicit ThreadProfile(const char *name = "thread",
                           Profiler &profiler = Profiler::global())
        : ThreadProfile(profiler.reserveThread(name), profiler)
    {
    }

    /** Adopt a reserveThread() registration made for this thread. */
    explicit ThreadProfile(Profiler::ThreadState *reserved,
                           Profiler &profiler = Profiler::global())
        : prof(profiler), id(profiler.attachCurrentThread(*reserved))
    {
    }

    ~ThreadProfile() { prof.unregisterCurrentThread(id); }

    ThreadProfile(const ThreadProfile &) = delete;
    ThreadProfile &operator=(const ThreadProfile &) = delete;

  private:
    Profiler &prof;
    uint64_t id;
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_PROFILER_HH
