/**
 * @file
 * SLO watchdog: a background thread that turns the windowed
 * time-series layer into actionable health state.
 *
 * Rules are declarative — "p99 of series S over window W compared
 * against threshold T, breaching for N consecutive evaluations" —
 * so operators tune thresholds in config, not code. On the
 * transition to firing, a rule:
 *
 *  1. records a structured alert event in the flight recorder and
 *     appends it to an in-memory alert ring (drainable as JSONL);
 *  2. latches a flight-recorder auto-dump under "slo:<rule>"
 *     (rate-limited by the recorder's per-reason cooldown, so a
 *     sustained breach cannot spam dumps);
 *  3. flips the `livephase_slo_health` gauge to 0 — consumed by the
 *     admission ratekeeper (degraded health is an overload signal)
 *     and the `stats` CLI.
 *
 * The evaluation tick also rotates the windowed series
 * (MetricsRegistry::rotateIfDue), so a service with a watchdog needs
 * no other rotation driver.
 *
 * Rule grammar (parseWatchdogRules):
 *   rule      := name ':' series [ '/' series ] ':' stat ':' window
 *                ':' cmp ':' threshold [ ':' 'for=' N ]
 *   stat      := 'p50' | 'p99' | 'mean' | 'max' | 'rate' | 'count'
 *                | 'ratio'            (ratio needs the denominator)
 *   window    := '1s' | '10s' | '60s'
 *   cmp       := '>' | '<'
 *   rules     := rule [ ';' rule ]...
 * Example: `accuracy:core.mispredictions/core.predictions:ratio:
 *           10s:>:0.5:for=2`
 */

#ifndef LIVEPHASE_OBS_WATCHDOG_HH
#define LIVEPHASE_OBS_WATCHDOG_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/timeseries.hh"

namespace livephase::obs
{

/** What a rule reads off its series' window. */
enum class RuleStat : uint8_t
{
    P50,
    P99,
    Mean,
    Max,
    Rate,
    Count,
    Ratio, ///< count(series) / count(denominator series)
};

const char *ruleStatName(RuleStat stat);

/** One declarative SLO rule. */
struct WatchdogRule
{
    std::string name;       ///< alert/dump identity
    std::string series;     ///< time-series name
    std::string denominator; ///< Ratio only
    RuleStat stat = RuleStat::P99;
    Window window = Window::TenSeconds;
    bool breach_above = true; ///< breach when value > threshold
    double threshold = 0.0;
    /** Consecutive breaching evaluations before firing. */
    uint32_t for_windows = 1;
};

/** `rules` string -> parsed rules; nullopt + warn() on a malformed
 *  spec (the service then refuses to start the watchdog). */
std::optional<std::vector<WatchdogRule>>
parseWatchdogRules(const std::string &spec);

/** Render rules back to the grammar (config echo / docs). */
std::string formatWatchdogRules(
    const std::vector<WatchdogRule> &rules);

/** One fired alert, kept in the watchdog's ring. */
struct WatchdogAlert
{
    uint64_t t_ns = 0; ///< sinceStartNs() at firing
    std::string rule;
    double value = 0.0;
    double threshold = 0.0;
    bool recovered = false; ///< recovery edge, not a breach

    std::string toJson() const;
};

struct WatchdogConfig
{
    /** Evaluation cadence; also the rotation driver's cadence. */
    uint64_t eval_interval_ns = 1'000'000'000;

    /** Declarative rules; defaultWatchdogRules() when empty. */
    std::vector<WatchdogRule> rules;

    /** Latch a flight-recorder dump on each firing edge. */
    bool dump_on_breach = true;

    /** Alerts retained for alerts() / drainAlertsJsonl(). */
    size_t alert_capacity = 256;
};

/**
 * Built-in rules: queue-wait burn rate, predictor-accuracy
 * collapse, eviction storm, pool exhaustion — over the series the
 * service feeds (see DESIGN.md §16 for names and thresholds).
 */
std::vector<WatchdogRule> defaultWatchdogRules();

class Watchdog
{
  public:
    explicit Watchdog(WatchdogConfig cfg = {});
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Start the evaluation thread. Idempotent. */
    void start();

    /** Stop and join. Idempotent; the destructor calls it. */
    void stop();

    bool running() const
    {
        return thread_running.load(std::memory_order_acquire);
    }

    /**
     * One evaluation pass over all rules (the thread calls this
     * every eval_interval; tests call it directly for determinism).
     * Does NOT rotate the registry — the caller owns cadence.
     */
    void evalOnce();

    /** Any rule currently firing? Mirrored in the
     *  `livephase_slo_health` gauge (1 healthy, 0 degraded). */
    bool degraded() const
    {
        return degraded_flag.load(std::memory_order_relaxed);
    }

    /** Rules currently in the firing state. */
    std::vector<std::string> firingRules() const;

    /** Alerts fired since start (breach edges only). */
    uint64_t alertCount() const
    {
        return alerts_fired.load(std::memory_order_relaxed);
    }

    /** Copy of the retained alert ring, oldest first. */
    std::vector<WatchdogAlert> alerts() const;

    /** Render the retained alerts as JSONL (one object per line) —
     *  the CI chaos artifact. */
    std::string alertsJsonl() const;

    const WatchdogConfig &config() const { return cfg; }

  private:
    struct RuleState
    {
        WatchdogRule rule;
        uint32_t breach_streak = 0;
        bool firing = false;
    };

    /** Evaluate one rule's current value; false when its series
     *  does not exist yet (rule is skipped, not breached). */
    bool ruleValue(const WatchdogRule &rule, double &value) const;

    /** Breach edge: alert + flight event + latched dump (mu held). */
    void fire(RuleState &state, double value);

    /** Append to the bounded alert ring (mu held). */
    void pushAlert(WatchdogAlert alert);

    void setHealth();

    void loop();

    WatchdogConfig cfg;
    std::vector<RuleState> states;
    mutable std::mutex mu; ///< states + alert ring
    std::vector<WatchdogAlert> alert_ring;
    size_t alert_head = 0;

    std::atomic<bool> degraded_flag{false};
    std::atomic<uint64_t> alerts_fired{0};

    std::thread worker;
    std::atomic<bool> thread_running{false};
    /** Serializes start()/stop() against each other; held across
     *  the join so concurrent stop() calls cannot double-join. */
    std::mutex lifecycle_mu;
    /** Paired with stop_cv; separate from lifecycle_mu so the loop
     *  thread never needs the lock stop() holds while joining. */
    std::mutex stop_mu;
    std::condition_variable stop_cv;
    bool stop_requested = false; ///< guarded by stop_mu
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_WATCHDOG_HH
