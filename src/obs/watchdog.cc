#include "obs/watchdog.hh"

#include "common/clock.hh"
#include "obs/profiler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/runtime.hh"

namespace livephase::obs
{

namespace
{

Gauge &
healthGauge()
{
    static Gauge &g =
        MetricsRegistry::global().gauge("livephase_slo_health");
    return g;
}

Counter &
alertsCounter()
{
    static Counter &c = MetricsRegistry::global().counter(
        "livephase_slo_alerts_total");
    return c;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> parts;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t end = s.find(sep, start);
        if (end == std::string::npos) {
            parts.push_back(s.substr(start));
            break;
        }
        parts.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return parts;
}

bool
parseStat(const std::string &s, RuleStat &out)
{
    if (s == "p50") out = RuleStat::P50;
    else if (s == "p99") out = RuleStat::P99;
    else if (s == "mean") out = RuleStat::Mean;
    else if (s == "max") out = RuleStat::Max;
    else if (s == "rate") out = RuleStat::Rate;
    else if (s == "count") out = RuleStat::Count;
    else if (s == "ratio") out = RuleStat::Ratio;
    else return false;
    return true;
}

bool
parseWindow(const std::string &s, Window &out)
{
    if (s == "1s") out = Window::OneSecond;
    else if (s == "10s") out = Window::TenSeconds;
    else if (s == "60s") out = Window::SixtySeconds;
    else return false;
    return true;
}

} // namespace

const char *
ruleStatName(RuleStat stat)
{
    switch (stat) {
      case RuleStat::P50: return "p50";
      case RuleStat::P99: return "p99";
      case RuleStat::Mean: return "mean";
      case RuleStat::Max: return "max";
      case RuleStat::Rate: return "rate";
      case RuleStat::Count: return "count";
      case RuleStat::Ratio: return "ratio";
    }
    return "stat-?";
}

std::optional<std::vector<WatchdogRule>>
parseWatchdogRules(const std::string &spec)
{
    std::vector<WatchdogRule> rules;
    for (const std::string &part : split(spec, ';')) {
        if (part.empty())
            continue;
        const std::vector<std::string> fields = split(part, ':');
        if (fields.size() < 6 || fields.size() > 7) {
            warn("watchdog: rule '%s' has %zu fields, want "
                 "name:series:stat:window:cmp:threshold[:for=N]",
                 part.c_str(), fields.size());
            return std::nullopt;
        }
        WatchdogRule rule;
        rule.name = fields[0];
        const std::vector<std::string> series =
            split(fields[1], '/');
        rule.series = series[0];
        if (series.size() == 2)
            rule.denominator = series[1];
        else if (series.size() > 2) {
            warn("watchdog: rule '%s': more than one '/' in series",
                 part.c_str());
            return std::nullopt;
        }
        if (!parseStat(fields[2], rule.stat)) {
            warn("watchdog: rule '%s': unknown stat '%s'",
                 part.c_str(), fields[2].c_str());
            return std::nullopt;
        }
        if (rule.stat == RuleStat::Ratio &&
            rule.denominator.empty()) {
            warn("watchdog: rule '%s': ratio needs "
                 "'series/denominator'",
                 part.c_str());
            return std::nullopt;
        }
        if (!parseWindow(fields[3], rule.window)) {
            warn("watchdog: rule '%s': unknown window '%s'",
                 part.c_str(), fields[3].c_str());
            return std::nullopt;
        }
        if (fields[4] == ">")
            rule.breach_above = true;
        else if (fields[4] == "<")
            rule.breach_above = false;
        else {
            warn("watchdog: rule '%s': comparator must be > or <",
                 part.c_str());
            return std::nullopt;
        }
        char *end = nullptr;
        rule.threshold = std::strtod(fields[5].c_str(), &end);
        if (end == fields[5].c_str() || *end != '\0') {
            warn("watchdog: rule '%s': bad threshold '%s'",
                 part.c_str(), fields[5].c_str());
            return std::nullopt;
        }
        if (fields.size() == 7) {
            if (fields[6].rfind("for=", 0) != 0) {
                warn("watchdog: rule '%s': trailing field must be "
                     "for=N",
                     part.c_str());
                return std::nullopt;
            }
            const long n = std::strtol(
                fields[6].c_str() + 4, &end, 10);
            if (n < 1 || *end != '\0') {
                warn("watchdog: rule '%s': bad for=N", part.c_str());
                return std::nullopt;
            }
            rule.for_windows = static_cast<uint32_t>(n);
        }
        rules.push_back(std::move(rule));
    }
    return rules;
}

std::string
formatWatchdogRules(const std::vector<WatchdogRule> &rules)
{
    std::string out;
    for (const WatchdogRule &rule : rules) {
        if (!out.empty())
            out += ';';
        out += rule.name + ':' + rule.series;
        if (!rule.denominator.empty())
            out += '/' + rule.denominator;
        out += ':';
        out += ruleStatName(rule.stat);
        out += ':';
        out += windowName(rule.window);
        out += rule.breach_above ? ":>:" : ":<:";
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", rule.threshold);
        out += buf;
        if (rule.for_windows != 1) {
            std::snprintf(buf, sizeof buf, ":for=%u",
                          rule.for_windows);
            out += buf;
        }
    }
    return out;
}

std::string
WatchdogAlert::toJson() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"t_ns\":%llu,\"rule\":\"%s\",\"value\":%g,"
                  "\"threshold\":%g,\"event\":\"%s\"}",
                  static_cast<unsigned long long>(t_ns),
                  rule.c_str(), value, threshold,
                  recovered ? "recover" : "breach");
    return buf;
}

std::vector<WatchdogRule>
defaultWatchdogRules()
{
    // Thresholds are deliberately loose — these are "the service is
    // on fire" defaults, not tuning targets; operators override via
    // the rule grammar.
    auto rules = parseWatchdogRules(
        // p99 queue wait burning through a 500 ms budget for 3
        // consecutive windows.
        "queue-wait-burn:service.queue_wait_ms:p99:10s:>:500:for=3;"
        // Predictor missing more than half its calls — phase
        // tracking has collapsed (chaos: obs.accuracy failpoint).
        "accuracy-collapse:core.mispredictions/core.predictions:"
        "ratio:10s:>:0.5;"
        // Session churn: evictions displacing live sessions.
        "eviction-storm:service.evictions:rate:10s:>:100:for=2;"
        // Response buffer pool exhausted — allocating on the hot
        // path.
        "pool-exhausted:service.pool_exhausted:rate:10s:>:10:for=2");
    if (!rules)
        panic("default watchdog rules failed to parse");
    return *rules;
}

Watchdog::Watchdog(WatchdogConfig config) : cfg(std::move(config))
{
    if (cfg.rules.empty())
        cfg.rules = defaultWatchdogRules();
    if (cfg.alert_capacity == 0)
        cfg.alert_capacity = 1;
    states.reserve(cfg.rules.size());
    for (const WatchdogRule &rule : cfg.rules)
        states.push_back({rule, 0, false});
    healthGauge().set(1.0);
}

Watchdog::~Watchdog()
{
    stop();
}

void
Watchdog::start()
{
    std::lock_guard lifecycle(lifecycle_mu);
    if (worker.joinable())
        return;
    {
        std::lock_guard lock(stop_mu);
        stop_requested = false;
    }
    thread_running.store(true, std::memory_order_release);
    worker = std::thread([this] { loop(); });
}

void
Watchdog::stop()
{
    // lifecycle_mu stays held across the join: a concurrent stop()
    // blocks here and then sees the cleared handle, instead of both
    // callers joining the same thread. The loop thread only ever
    // takes stop_mu, so holding lifecycle_mu cannot deadlock it.
    std::lock_guard lifecycle(lifecycle_mu);
    if (!worker.joinable())
        return;
    {
        std::lock_guard lock(stop_mu);
        stop_requested = true;
    }
    stop_cv.notify_all();
    worker.join();
    worker = std::thread();
    thread_running.store(false, std::memory_order_release);
}

void
Watchdog::loop()
{
    std::unique_lock lock(stop_mu);
    while (!stop_requested) {
        // One eval interval measured on the timebase seam, so an
        // installed virtual time source drives the cadence
        // (DESIGN.md §17 clock-seam audit). Under wall time the cv
        // still bounds stop() latency at one wakeup; under virtual
        // time the sleep goes through the seam and stop() is seen
        // on the next virtual advance.
        const uint64_t deadline =
            timebase::nowNs() + cfg.eval_interval_ns;
        while (!stop_requested) {
            const uint64_t now = timebase::nowNs();
            if (now >= deadline)
                break;
            const uint64_t remaining = deadline - now;
            if (timebase::virtualized()) {
                lock.unlock();
                timebase::sleepNs(remaining);
                lock.lock();
            } else {
                stop_cv.wait_for(
                    lock, std::chrono::nanoseconds(remaining));
            }
        }
        if (stop_requested)
            break;
        lock.unlock();
        MetricsRegistry::global().rotateIfDue();
        evalOnce();
        // The profiling plane reports health on the same cadence
        // as every other SLO signal.
        Profiler::global().healthTick();
        lock.lock();
    }
}

bool
Watchdog::ruleValue(const WatchdogRule &rule, double &value) const
{
    const MetricsRegistry &ts = MetricsRegistry::global();
    WindowStats stats;
    if (!ts.seriesStats(rule.series, rule.window, stats))
        return false;
    switch (rule.stat) {
      case RuleStat::P50: value = stats.p50; return true;
      case RuleStat::P99: value = stats.p99; return true;
      case RuleStat::Mean: value = stats.mean; return true;
      case RuleStat::Max: value = stats.max; return true;
      case RuleStat::Rate: value = stats.rate; return true;
      case RuleStat::Count:
        value = static_cast<double>(stats.count);
        return true;
      case RuleStat::Ratio: {
        WindowStats denom;
        if (!ts.seriesStats(rule.denominator, rule.window, denom))
            return false;
        // An empty denominator window means "no signal", not "all
        // clear" and not "breach" — skip the rule this round.
        if (denom.count == 0)
            return false;
        value = static_cast<double>(stats.count) /
            static_cast<double>(denom.count);
        return true;
      }
    }
    return false;
}

void
Watchdog::evalOnce()
{
    std::lock_guard lock(mu);
    for (RuleState &state : states) {
        double value = 0.0;
        if (!ruleValue(state.rule, value)) {
            // Series absent / no signal: decay toward healthy so a
            // stopped workload does not pin a stale breach.
            state.breach_streak = 0;
            if (state.firing) {
                state.firing = false;
                inform("watchdog: rule '%s' recovered (no signal)",
                       state.rule.name.c_str());
            }
            continue;
        }
        const bool breach = state.rule.breach_above
            ? value > state.rule.threshold
            : value < state.rule.threshold;
        if (breach) {
            ++state.breach_streak;
            if (!state.firing &&
                state.breach_streak >= state.rule.for_windows) {
                state.firing = true;
                fire(state, value);
            }
        } else {
            state.breach_streak = 0;
            if (state.firing) {
                state.firing = false;
                WatchdogAlert alert;
                alert.t_ns = sinceStartNs();
                alert.rule = state.rule.name;
                alert.value = value;
                alert.threshold = state.rule.threshold;
                alert.recovered = true;
                pushAlert(std::move(alert));
                FlightRecorder::global().record(
                    Severity::Info, "slo.recover",
                    {{"rule", state.rule.name},
                     {"value", value},
                     {"threshold", state.rule.threshold}});
                inform("watchdog: rule '%s' recovered "
                       "(value=%g threshold=%g)",
                       state.rule.name.c_str(), value,
                       state.rule.threshold);
            }
        }
    }
    setHealth();
}

void
Watchdog::fire(RuleState &state, double value)
{
    WatchdogAlert alert;
    alert.t_ns = sinceStartNs();
    alert.rule = state.rule.name;
    alert.value = value;
    alert.threshold = state.rule.threshold;
    pushAlert(std::move(alert));
    alerts_fired.fetch_add(1, std::memory_order_relaxed);
    alertsCounter().inc();

    FlightRecorder::global().record(
        Severity::Error, "slo.breach",
        {{"rule", state.rule.name},
         {"value", value},
         {"threshold", state.rule.threshold},
         {"window", windowName(state.rule.window)}});
    warn("watchdog: SLO breach '%s': %s(%s) over %s = %g %s %g",
         state.rule.name.c_str(), ruleStatName(state.rule.stat),
         state.rule.series.c_str(), windowName(state.rule.window),
         value, state.rule.breach_above ? ">" : "<",
         state.rule.threshold);
    if (cfg.dump_on_breach) {
        const std::string reason = "slo:" + state.rule.name;
        FlightRecorder::global().autoDump(reason.c_str());
    }
}

void
Watchdog::pushAlert(WatchdogAlert alert)
{
    // mu is held by evalOnce().
    if (alert_ring.size() < cfg.alert_capacity) {
        alert_ring.push_back(std::move(alert));
    } else {
        alert_ring[alert_head] = std::move(alert);
        alert_head = (alert_head + 1) % cfg.alert_capacity;
    }
}

void
Watchdog::setHealth()
{
    bool any = false;
    for (const RuleState &state : states)
        any |= state.firing;
    degraded_flag.store(any, std::memory_order_relaxed);
    healthGauge().set(any ? 0.0 : 1.0);
}

std::vector<std::string>
Watchdog::firingRules() const
{
    std::lock_guard lock(mu);
    std::vector<std::string> out;
    for (const RuleState &state : states) {
        if (state.firing)
            out.push_back(state.rule.name);
    }
    return out;
}

std::vector<WatchdogAlert>
Watchdog::alerts() const
{
    std::lock_guard lock(mu);
    std::vector<WatchdogAlert> out;
    out.reserve(alert_ring.size());
    for (size_t i = 0; i < alert_ring.size(); ++i)
        out.push_back(
            alert_ring[(alert_head + i) % alert_ring.size()]);
    return out;
}

std::string
Watchdog::alertsJsonl() const
{
    std::string out;
    for (const WatchdogAlert &alert : alerts()) {
        out += alert.toJson();
        out += '\n';
    }
    return out;
}

} // namespace livephase::obs
