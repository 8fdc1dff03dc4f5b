/**
 * @file
 * livephase_cli — command-line driver over trace CSV files.
 *
 * The adoption path for users with their own measurements: convert
 * PMC logs to the trace CSV format (see workload/trace_io.hh), then
 * characterize, predict and manage them from the shell.
 *
 * Subcommands:
 *   generate <benchmark> <out.csv> [--samples N] [--seed S]
 *       synthesize a suite benchmark into a CSV trace
 *   info <trace.csv> [--json]
 *       phase characterization summary
 *   predict <trace.csv> [--predictor lastvalue|gpht|all] [--json]
 *       prediction accuracy on the trace
 *   manage <trace.csv> [--governor reactive|gpht|bounded] [--json]
 *       managed-vs-baseline power/performance
 *   serve <trace.csv> [--predictor lastvalue|gpht|setassoc|varwindow]
 *         [--batch K] [--workers N] [--json] [--deadline-ms D]
 *         [--faults SPEC] [--fault-seed S]
 *         [--trace-sample R] [--trace-out FILE]
 *         [--qos SPEC] [--tag NAME]
 *       replay the trace through the livephased service and report
 *       client-side accuracy plus the service's own counters. The
 *       client runs the resilient retry/deadline/breaker loop;
 *       --faults arms failpoints (see src/fault/failpoint.hh for
 *       the spec grammar), as does $LIVEPHASE_FAULTS.
 *       --trace-sample enables request tracing at head-sampling
 *       rate R; --trace-out fetches the sampled span trees over
 *       the query-traces op at the end of the run and writes them
 *       as Chrome trace-event JSON (load in Perfetto / about:tracing).
 *       --qos enables adaptive admission control with the given
 *       per-tenant policies, e.g.
 *         --qos tag=interactive:prio=0:share=0.6:deadline_ms=50,tag=bulk:prio=1:share=0.4
 *       (grammar in src/admission/admission.hh); --tag stamps the
 *       client's requests with one of those tags, and the report
 *       ends with the service's per-tag admission table.
 *   stats [trace.csv] [--format prometheus|jsonl|table]
 *         [--bench NAME] [--predictor ...] [--batch K] [--qos SPEC]
 *       enable the obs subsystem, run the trace through a managed
 *       System run AND a service replay, then emit the merged
 *       telemetry (core + cpu + service metrics) in the requested
 *       exposition format
 *   stats --watch [--interval-ms N] [--ticks N] [--rules SPEC]
 *                 [--alerts-out FILE] [--phases-out FILE]
 *         [trace.csv] [--bench NAME] [--qos SPEC]
 *       top-style live view: replay the trace in a loop against an
 *       in-process service (SLO watchdog armed — default rules, or
 *       --rules in the watchdog grammar) and redraw health, phase
 *       hit-rate windows, the windowed series table, recent SLO
 *       alerts and the per-tag admission table every --interval-ms,
 *       --ticks times (0 = until interrupted)
 *   trace [trace.csv] [--bench NAME]
 *       same replay, then dump the flight recorder (structured
 *       trace events) to stdout
 *   traces [trace.csv] [--bench NAME] [--sample R] [--out FILE]
 *       same replay with request tracing head-sampled at R
 *       (default 1.0 — every request), then fetch the causal span
 *       trees over the query-traces op and emit Chrome trace-event
 *       JSON to stdout or FILE
 *   list
 *       list the built-in synthetic benchmarks
 *
 * `--json` switches the stats output of info/predict/manage/serve
 * to machine-readable JSON on stdout.
 *
 * Exit codes (stable; scripts and CI parse them):
 *   0  success
 *   1  protocol or configuration error
 *   2  usage error
 *   3  backpressure: the service kept answering RetryAfter until
 *      the client's deadline (retry later; the daemon is healthy)
 *   4  unavailable: transport loss, request deadline, or an open
 *      client circuit breaker
 *   5  the service is shutting down
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "admission/admission.hh"
#include "analysis/accuracy.hh"
#include "analysis/phase_stats.hh"
#include "analysis/power_perf.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table_writer.hh"
#include "fault/failpoint.hh"
#include "core/gpht_predictor.hh"
#include "core/last_value_predictor.hh"
#include "core/system.hh"
#include "obs/exposition.hh"
#include "obs/flight_recorder.hh"
#include "obs/phase_telemetry.hh"
#include "obs/profiler.hh"
#include "obs/runtime.hh"
#include "obs/trace.hh"
#include "obs/watchdog.hh"
#include "service/client.hh"
#include "service/service.hh"
#include "workload/spec2000.hh"
#include "workload/trace_io.hh"

using namespace livephase;

namespace
{

int
usage(const std::string &prog)
{
    std::cerr
        << "usage: " << prog << " <command> [args]\n"
        << "  generate <benchmark> <out.csv> [--samples N] [--seed S]\n"
        << "  info <trace.csv> [--json]\n"
        << "  predict <trace.csv> [--predictor lastvalue|gpht|all]"
           " [--json]\n"
        << "  manage <trace.csv> [--governor reactive|gpht|bounded]"
           " [--bound 0.05] [--json]\n"
        << "  serve <trace.csv>"
           " [--predictor lastvalue|gpht|setassoc|varwindow]"
           " [--batch K] [--workers N] [--json] [--deadline-ms D]"
           " [--faults SPEC] [--fault-seed S]"
           " [--trace-sample R] [--trace-out FILE]"
           " [--qos SPEC] [--tag NAME] [--profile]\n"
        << "  stats [trace.csv] [--format prometheus|jsonl|table]"
           " [--bench NAME] [--predictor ...] [--batch K]"
           " [--qos SPEC]\n"
        << "  stats --watch [--interval-ms N] [--ticks N]"
           " [--rules SPEC] [--alerts-out FILE]"
           " [--phases-out FILE] [trace.csv] [--bench NAME]"
           " [--qos SPEC]\n"
        << "  profile [trace.csv] [--bench NAME] [--hz N]"
           " [--duration-ms N] [--format folded|jsonl]"
           " [--out FILE] [--no-counters]\n"
        << "  trace [trace.csv] [--bench NAME]\n"
        << "  traces [trace.csv] [--bench NAME] [--sample R]"
           " [--out FILE]\n"
        << "  list\n";
    return 2;
}

int
cmdGenerate(const CliArgs &args)
{
    if (args.positional().size() < 3)
        return usage(args.program());
    const SpecBenchmark &bench =
        Spec2000Suite::byName(args.positional()[1]);
    const IntervalTrace trace = bench.makeTrace(
        static_cast<size_t>(args.getInt("samples", 0)),
        static_cast<uint64_t>(args.getInt("seed", 1)));
    saveTrace(trace, args.positional()[2]);
    std::cout << "wrote " << trace.size() << " samples of "
              << trace.name() << " to " << args.positional()[2]
              << "\n";
    return 0;
}

int
cmdInfo(const CliArgs &args)
{
    if (args.positional().size() < 2)
        return usage(args.program());
    const IntervalTrace trace = loadTrace(args.positional()[1]);
    const PhaseStats stats =
        computePhaseStats(trace, PhaseClassifier::table1());
    TableWriter table({"phase", "residency", "runs", "mean_run",
                       "max_run"});
    for (const auto &row : stats.occupancy) {
        if (row.samples == 0)
            continue;
        table.addRow({std::to_string(row.phase),
                      formatPercent(row.residency),
                      std::to_string(row.runs),
                      formatDouble(row.mean_run_length, 1),
                      std::to_string(row.max_run_length)});
    }
    if (args.getBool("json")) {
        std::cout << "{\n  \"trace\": \"" << trace.name()
                  << "\",\n  \"samples\": " << trace.size()
                  << ",\n  \"mean_mem_per_uop\": "
                  << formatDouble(trace.meanMemPerUop(), 6)
                  << ",\n  \"transition_rate\": "
                  << formatDouble(stats.transition_rate, 4)
                  << ",\n  \"next_phase_entropy_bits\": "
                  << formatDouble(stats.conditionalEntropyBits(), 2)
                  << ",\n  \"phases\": ";
        table.printJson(std::cout);
        std::cout << "}\n";
        return 0;
    }
    std::cout << trace.name() << ": " << trace.size()
              << " samples, mean Mem/Uop "
              << formatDouble(trace.meanMemPerUop(), 4)
              << ", transition rate "
              << formatPercent(stats.transition_rate)
              << ", next-phase entropy "
              << formatDouble(stats.conditionalEntropyBits(), 2)
              << " bits\n\n";
    table.print(std::cout);
    return 0;
}

int
cmdPredict(const CliArgs &args)
{
    if (args.positional().size() < 2)
        return usage(args.program());
    const IntervalTrace trace = loadTrace(args.positional()[1]);
    const std::string which =
        args.getString("predictor", "all");
    const PhaseClassifier classifier = PhaseClassifier::table1();
    const bool json = args.getBool("json");
    TableWriter table({"predictor", "accuracy", "mispredictions",
                       "evaluated"});
    auto report = [&](PhasePredictor &p) {
        const auto eval = evaluatePredictor(trace, classifier, p);
        table.addRow({eval.predictor,
                      json ? formatDouble(eval.accuracy(), 4)
                           : formatPercent(eval.accuracy()),
                      std::to_string(eval.mispredictions),
                      std::to_string(eval.evaluated)});
    };
    if (which == "lastvalue") {
        LastValuePredictor p;
        report(p);
    } else if (which == "gpht") {
        GphtPredictor p(8, 128);
        report(p);
    } else if (which == "all") {
        for (auto &p : makeFigure4Predictors())
            report(*p);
    } else {
        fatal("unknown predictor '%s'", which.c_str());
    }
    if (json)
        table.printJson(std::cout);
    else
        table.print(std::cout);
    return 0;
}

int
cmdManage(const CliArgs &args)
{
    if (args.positional().size() < 2)
        return usage(args.program());
    const IntervalTrace trace = loadTrace(args.positional()[1]);
    const std::string which = args.getString("governor", "gpht");
    const double bound = args.getDouble("bound", 0.05);
    const TimingModel timing;
    GovernorFactory factory;
    if (which == "reactive") {
        factory = []() {
            return makeReactiveGovernor(DvfsTable::pentiumM());
        };
    } else if (which == "gpht") {
        factory = []() {
            return makeGphtGovernor(DvfsTable::pentiumM());
        };
    } else if (which == "bounded") {
        factory = [&timing, bound]() {
            return makeBoundedGovernor(timing, DvfsTable::pentiumM(),
                                       bound);
        };
    } else {
        fatal("unknown governor '%s'", which.c_str());
    }
    const System system;
    const ManagementResult r =
        compareToBaseline(system, trace, factory);
    if (args.getBool("json")) {
        std::cout << "{\n  \"trace\": \"" << trace.name()
                  << "\",\n  \"governor\": \"" << r.governor
                  << "\",\n  \"prediction_accuracy\": "
                  << formatDouble(r.accuracy(), 4)
                  << ",\n  \"power_savings\": "
                  << formatDouble(r.relative.powerSavings(), 4)
                  << ",\n  \"perf_degradation\": "
                  << formatDouble(r.relative.perfDegradation(), 4)
                  << ",\n  \"edp_improvement\": "
                  << formatDouble(r.relative.edpImprovement(), 4)
                  << ",\n  \"dvfs_transitions\": "
                  << r.managed.dvfs_transitions << "\n}\n";
        return 0;
    }
    std::cout << trace.name() << " under " << r.governor << ":\n";
    std::cout << "  prediction accuracy:  "
              << formatPercent(r.accuracy()) << "\n";
    std::cout << "  power savings:        "
              << formatPercent(r.relative.powerSavings()) << "\n";
    std::cout << "  perf degradation:     "
              << formatPercent(r.relative.perfDegradation()) << "\n";
    std::cout << "  EDP improvement:      "
              << formatPercent(r.relative.edpImprovement()) << "\n";
    std::cout << "  DVFS transitions:     "
              << r.managed.dvfs_transitions << "\n";
    return 0;
}

/**
 * Map a failed client operation to the documented exit code (see
 * the file header): client-side failures (deadline, transport
 * loss, open breaker) dominate, then the wire status.
 */
int
exitCodeFor(service::Status status, service::ClientError error)
{
    using service::ClientError;
    using service::Status;
    if (error == ClientError::DeadlineExceeded &&
        status == Status::RetryAfter)
        return 3; // backpressure outlasted the deadline
    if (error != ClientError::None)
        return 4; // unavailable
    switch (status) {
      case Status::RetryAfter:
        return 3;
      case Status::ShuttingDown:
        return 5;
      default:
        return 1;
    }
}

/** Report a failed client operation on stderr (machine-readable on
 *  --json runs) and pick the exit code. */
int
clientFailure(const char *op, const service::ServiceClient &client,
              service::Status status, bool json)
{
    const auto error = client.lastCall().error;
    if (json)
        std::cerr << "{\"error\": \"" << op << "\", \"status\": \""
                  << service::statusName(status)
                  << "\", \"client_error\": \""
                  << service::clientErrorName(error) << "\"}\n";
    else
        std::cerr << "livephase: " << op
                  << " failed: " << service::statusName(status)
                  << " (client: "
                  << service::clientErrorName(error) << ")\n";
    return exitCodeFor(status, error);
}

/** Fold a `--qos` spec into a service config (no-op without the
 *  flag); the flag's presence is what enables admission control. */
void
applyQos(const CliArgs &args, service::LivePhaseService::Config &cfg)
{
    if (!args.has("qos"))
        return;
    std::string error;
    if (!admission::parseQosSpec(args.getString("qos", ""),
                                 cfg.admission, &error))
        fatal("--qos: %s", error.c_str());
    cfg.admission.enabled = true;
}

/** Render the admission controller's per-tag table (budget split,
 *  sheds, observed waits) — the QoS counterpart of the stats
 *  tables. */
void
printTagTable(std::ostream &os,
              const std::vector<admission::TagSnapshotRow> &rows)
{
    TableWriter table({"tag", "prio", "share", "rate_per_s",
                       "demand_per_s", "admitted", "shed_throttle",
                       "shed_deadline", "p99_wait_ms",
                       "p99_10s_ms"});
    for (const auto &r : rows)
        table.addRow({r.name, admission::priorityName(r.priority),
                      formatDouble(r.share, 2),
                      formatDouble(r.rate, 1),
                      formatDouble(r.demand, 1),
                      std::to_string(r.admitted),
                      std::to_string(r.shed_throttle),
                      std::to_string(r.shed_deadline),
                      formatDouble(r.p99_wait_ms, 2),
                      formatDouble(r.p99_wait_10s_ms, 2)});
    table.print(os);
}

int
cmdServe(const CliArgs &args)
{
    using namespace livephase::service;

    if (args.positional().size() < 2)
        return usage(args.program());
    const IntervalTrace trace = loadTrace(args.positional()[1]);
    if (trace.empty())
        fatal("trace '%s' is empty", trace.name().c_str());
    const std::string which =
        args.getString("predictor", "gpht");
    const auto kind = predictorKindFromName(which);
    if (!kind)
        fatal("unknown service predictor '%s'", which.c_str());
    const size_t batch = static_cast<size_t>(
        args.getInt("batch", 64));
    if (batch == 0)
        fatal("--batch must be > 0");
    const bool json = args.getBool("json");

    if (args.has("fault-seed"))
        fault::FailpointRegistry::global().setMasterSeed(
            static_cast<uint64_t>(args.getInt("fault-seed", 1)));
    if (args.has("faults")) {
        std::string error;
        if (!fault::FailpointRegistry::global().armFromConfig(
                args.getString("faults", ""), &error))
            fatal("--faults: %s", error.c_str());
    }

    const double trace_sample =
        args.getDouble("trace-sample", 0.0);
    if (trace_sample < 0.0 || trace_sample > 1.0)
        fatal("--trace-sample must be in [0, 1]");
    if (args.has("trace-out") && trace_sample <= 0.0)
        fatal("--trace-out needs --trace-sample > 0");
    if (trace_sample > 0.0) {
        // Tracing rides on the obs subsystem (queue-wait stamps,
        // span histograms): a traced serve is an instrumented one.
        obs::setEnabled(true);
        obs::Tracer::global().setSampleRate(trace_sample);
    }

    LivePhaseService::Config cfg;
    cfg.workers = static_cast<size_t>(args.getInt("workers", 2));
    // workers = 0 is the service's manual-drain test mode; with a
    // blocking client here it would hang forever.
    if (cfg.workers == 0)
        fatal("--workers must be > 0");
    cfg.max_batch = std::max(cfg.max_batch, batch);
    // Continuous profiling of the serve itself; query-profile then
    // returns live folded stacks (obs/profiler.hh).
    cfg.profiler.enabled = args.getBool("profile");
    applyQos(args, cfg);
    if (args.has("tag") && !cfg.admission.enabled)
        fatal("--tag needs --qos");
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);
    RetryPolicy policy;
    policy.deadline_us = static_cast<uint64_t>(
        args.getInt("deadline-ms", 2000)) * 1000;
    ServiceClient client(transport, policy);
    if (args.has("tag")) {
        const std::string tag_name = args.getString("tag", "");
        const auto tag =
            admission::tagForName(cfg.admission, tag_name);
        if (tag == 0)
            fatal("--tag '%s' is not in the --qos spec",
                  tag_name.c_str());
        client.setTenantTag(tag);
    }

    const auto open = client.open(*kind);
    if (open.status != Status::Ok)
        return clientFailure("open", client, open.status, json);

    // Replay the trace as batched interval records; tsc advances one
    // tick per sample (the service only echoes it back).
    std::vector<IntervalResult> results;
    results.reserve(trace.size());
    std::vector<IntervalRecord> records;
    for (size_t i = 0; i < trace.size(); ++i) {
        const Interval &ivl = trace.at(i);
        records.push_back({ivl.uops, ivl.mem_per_uop * ivl.uops,
                           static_cast<uint64_t>(i)});
        if (records.size() == batch || i + 1 == trace.size()) {
            const auto reply = client.submitBatchRetrying(
                open.session_id, records);
            if (reply.status != Status::Ok)
                return clientFailure("submit", client, reply.status,
                                     json);
            results.insert(results.end(), reply.results.begin(),
                           reply.results.end());
            records.clear();
        }
    }

    // Client-side accuracy: the prediction made at interval i is for
    // interval i+1 — identical accounting to evaluatePredictor().
    uint64_t evaluated = 0, mispredictions = 0;
    for (size_t i = 0; i + 1 < results.size(); ++i) {
        ++evaluated;
        if (results[i].predicted_next != results[i + 1].phase)
            ++mispredictions;
    }
    const double accuracy = evaluated == 0
        ? 0.0
        : 1.0 - static_cast<double>(mispredictions) /
              static_cast<double>(evaluated);

    const auto stats_reply = client.queryStats();
    if (stats_reply.status != Status::Ok)
        return clientFailure("query-stats", client,
                             stats_reply.status, json);
    client.close(open.session_id);

    if (args.has("trace-out")) {
        const std::string path = args.getString("trace-out", "");
        if (path.empty())
            fatal("--trace-out requires a path");
        const auto traces = client.queryTraces();
        if (traces.status != Status::Ok)
            return clientFailure("query-traces", client,
                                 traces.status, json);
        std::ofstream out(path);
        if (!out)
            fatal("cannot write %s", path.c_str());
        out << traces.json;
        // stderr: --json runs keep stdout machine-readable.
        std::cerr << "livephase: wrote Chrome trace JSON to " << path
                  << "\n";
    }

    if (json) {
        std::ostringstream stats_os;
        stats_reply.stats.printJson(stats_os);
        std::string stats_json = stats_os.str();
        while (!stats_json.empty() && stats_json.back() == '\n')
            stats_json.pop_back();
        std::cout << "{\n  \"trace\": \"" << trace.name()
                  << "\",\n  \"predictor\": \""
                  << predictorKindName(*kind)
                  << "\",\n  \"batch\": " << batch
                  << ",\n  \"intervals\": " << results.size()
                  << ",\n  \"prediction_accuracy\": "
                  << formatDouble(accuracy, 4)
                  << ",\n  \"mispredictions\": " << mispredictions
                  << ",\n  \"evaluated\": " << evaluated
                  << ",\n  \"stats\": " << stats_json << "\n}\n";
        return 0;
    }
    std::cout << trace.name() << " served with "
              << predictorKindName(*kind) << " (batch " << batch
              << "):\n";
    std::cout << "  intervals:            " << results.size()
              << "\n";
    std::cout << "  prediction accuracy:  "
              << formatPercent(accuracy) << " (" << mispredictions
              << "/" << evaluated << " mispredicted)\n\n";
    stats_reply.stats.print(std::cout);
    if (auto *admit = svc.admissionControl()) {
        std::cout << "\n";
        printTagTable(std::cout, admit->tagTable());
    }
    return 0;
}

/** What the stats/trace subcommands ask the service for. */
struct ExpositionQuery
{
    obs::ExpositionFormat format = obs::ExpositionFormat::Prometheus;
    bool table = false; ///< render queryStats tables instead
};

/** Trace for stats/trace: a CSV when given, else a synthesized
 *  suite benchmark (--bench, default the first suite entry). */
IntervalTrace
statsTrace(const CliArgs &args)
{
    if (args.positional().size() >= 2)
        return loadTrace(args.positional()[1]);
    const std::string bench = args.getString(
        "bench", Spec2000Suite::all().front().name());
    return Spec2000Suite::byName(bench).makeTrace(0, 1);
}

/** Replay `trace` through an in-process service (the cmdServe
 *  path, minus reporting) so service/core telemetry is live, then
 *  hand the open client to `query` for whatever it wants to fetch
 *  (exposition text, stats tables, span trees). */
std::string
replayAndQuery(
    const CliArgs &args, const IntervalTrace &trace,
    const std::function<std::string(service::ServiceClient &)>
        &query)
{
    using namespace livephase::service;

    const std::string which = args.getString("predictor", "gpht");
    const auto kind = predictorKindFromName(which);
    if (!kind)
        fatal("unknown service predictor '%s'", which.c_str());
    const size_t batch =
        static_cast<size_t>(args.getInt("batch", 64));
    if (batch == 0)
        fatal("--batch must be > 0");

    LivePhaseService::Config cfg;
    cfg.max_batch = std::max(cfg.max_batch, batch);
    // `stats --qos ...` runs the replay under admission control so
    // the per-tag series show up in the exposition output.
    applyQos(args, cfg);
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto open = client.open(*kind);
    if (open.status != Status::Ok)
        fatal("open failed: %s", statusName(open.status));
    std::vector<IntervalRecord> records;
    for (size_t i = 0; i < trace.size(); ++i) {
        const Interval &ivl = trace.at(i);
        records.push_back({ivl.uops, ivl.mem_per_uop * ivl.uops,
                           static_cast<uint64_t>(i)});
        if (records.size() == batch || i + 1 == trace.size()) {
            const auto reply = client.submitBatchRetrying(
                open.session_id, records);
            if (reply.status != Status::Ok)
                fatal("submit failed: %s",
                      statusName(reply.status));
            records.clear();
        }
    }
    client.close(open.session_id);
    return query(client);
}

/** The stats/trace flavor of replayAndQuery: fetch the requested
 *  exposition text (or the queryStats tables). */
std::string
replayAndExpose(const CliArgs &args, const IntervalTrace &trace,
                ExpositionQuery query)
{
    using namespace livephase::service;

    return replayAndQuery(args, trace, [&](ServiceClient &client) {
        const auto metrics = client.queryMetrics(
            static_cast<uint16_t>(query.format));
        if (metrics.status != Status::Ok)
            fatal("query-metrics failed: %s",
                  statusName(metrics.status));
        if (query.table) {
            const auto stats = client.queryStats();
            if (stats.status != Status::Ok)
                fatal("query-stats failed: %s",
                      statusName(stats.status));
            std::ostringstream os;
            stats.stats.print(os);
            return os.str();
        }
        return metrics.text;
    });
}

/**
 * `profile`: replay load through an in-process service with the
 * profiling plane armed, then print the sampled on-CPU stacks —
 * folded (flamegraph.pl input, the default) or JSONL
 * (--format jsonl). Hardware counters are attempted unless
 * --no-counters; denial (containers, perf_event_paranoid) degrades
 * to timer-only sampling. Pipe the folded output through
 * flamegraph.pl for an SVG of where livephased burns its cycles.
 */
int
cmdProfile(const CliArgs &args)
{
    using namespace livephase::service;

    obs::setEnabled(true);
    const IntervalTrace trace = statsTrace(args);
    const std::string which = args.getString("predictor", "gpht");
    const auto kind = predictorKindFromName(which);
    if (!kind)
        fatal("unknown service predictor '%s'", which.c_str());
    const size_t batch =
        static_cast<size_t>(args.getInt("batch", 64));
    if (batch == 0)
        fatal("--batch must be > 0");
    const auto duration = std::chrono::milliseconds(
        std::max<long long>(args.getInt("duration-ms", 2000), 50));
    const std::string format =
        args.getString("format", "folded");
    if (format != "folded" && format != "jsonl")
        fatal("--format must be folded or jsonl");
    const uint16_t raw_format = format == "jsonl" ? 1 : 0;

    LivePhaseService::Config cfg;
    cfg.max_batch = std::max(cfg.max_batch, batch);
    cfg.profiler.enabled = true;
    cfg.profiler.sample_hz =
        static_cast<uint32_t>(args.getInt("hz", 99));
    cfg.profiler.counters = !args.getBool("no-counters");
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto open = client.open(*kind);
    if (open.status != Status::Ok)
        fatal("open failed: %s", statusName(open.status));

    {
        // The replay (request-encoding) side is part of the
        // profile too.
        obs::ThreadProfile replay_guard("replay");
        const auto deadline =
            std::chrono::steady_clock::now() + duration;
        std::vector<IntervalRecord> records;
        uint64_t tsc = 0;
        while (std::chrono::steady_clock::now() < deadline) {
            for (size_t i = 0; i < trace.size(); ++i) {
                const Interval &ivl = trace.at(i);
                records.push_back({ivl.uops,
                                   ivl.mem_per_uop * ivl.uops,
                                   tsc++});
                if (records.size() == batch ||
                    i + 1 == trace.size()) {
                    const auto reply = client.submitBatchRetrying(
                        open.session_id, records);
                    records.clear();
                    if (reply.status != Status::Ok)
                        fatal("submit failed: %s",
                              statusName(reply.status));
                }
            }
            if (std::chrono::steady_clock::now() >= deadline)
                break;
        }
    }

    const auto reply = client.queryProfile(raw_format);
    if (reply.status != Status::Ok)
        fatal("query-profile failed: %s",
              statusName(reply.status));
    client.close(open.session_id);

    obs::Profiler &prof = obs::Profiler::global();
    std::cerr << "profiler: mode=" << profilerModeName(prof.mode())
              << " samples=" << prof.samplesTotal()
              << " hz=" << cfg.profiler.sample_hz << "\n";

    const std::string out_path = args.getString("out", "");
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            fatal("cannot write %s", out_path.c_str());
        out << reply.text;
        std::cerr << "wrote " << out_path << " ("
                  << reply.text.size() << " bytes)\n";
    } else {
        std::cout << reply.text;
    }
    return 0;
}

/** One frame of `stats --watch`: health banner, phase-quality
 *  windows, the hottest windowed series, recent SLO alerts, and
 *  the per-tag admission table when QoS is on. */
void
renderWatchFrame(std::ostream &os,
                 service::LivePhaseService &svc, uint64_t tick)
{
    obs::MetricsRegistry::global().rotateIfDue();

    obs::Watchdog *wd = svc.watchdog();
    const bool degraded = wd && wd->degraded();
    os << "livephased  tick=" << tick << "  health="
       << (degraded ? "DEGRADED" : "ok");
    if (wd)
        os << "  alerts=" << wd->alertCount();
    os << "  sessions=" << svc.sessionManager().openCount() << "\n";

    const obs::PhaseTelemetrySnapshot phases =
        obs::PhaseTelemetry::global().snapshot();
    os << "phase hit rate  1s="
       << formatPercent(phases.hit_rate_1s)
       << "  10s=" << formatPercent(phases.hit_rate_10s)
       << "  60s=" << formatPercent(phases.hit_rate_60s)
       << "  cumulative=" << formatPercent(phases.cumulativeHitRate())
       << "  predictions/s="
       << formatDouble(phases.pred_10s.rate, 1) << "\n\n";

    const obs::TimeSeriesSnapshot windows =
        obs::MetricsRegistry::global().windowSnapshot();
    TableWriter table({"series", "rate_1s", "rate_10s", "p50_10s",
                       "p99_10s", "max_10s"});
    bool have_cycles = false;
    for (const auto &s : windows.series) {
        if (s.name.rfind("cycles.", 0) == 0) {
            have_cycles = true; // rendered in their own section
            continue;
        }
        table.addRow({s.name, formatDouble(s.w1s.rate, 1),
                      formatDouble(s.w10s.rate, 1),
                      s.is_histogram ? formatDouble(s.w10s.p50, 3)
                                     : "-",
                      s.is_histogram ? formatDouble(s.w10s.p99, 3)
                                     : "-",
                      s.is_histogram ? formatDouble(s.w10s.max, 3)
                                     : "-"});
    }
    table.print(os);

    // Live cycles-by-stage: the per-span TSC attribution the
    // profiling plane turns on (obs/profiler.hh). Series exist
    // only once the profiler has run, so the section appears on
    // demand.
    if (have_cycles) {
        obs::Profiler &prof = obs::Profiler::global();
        os << "\ncycles by stage  (profiler="
           << profilerModeName(prof.mode())
           << "  samples=" << prof.samplesTotal() << ")\n";
        TableWriter cycles({"stage", "calls/s_10s", "p50_cycles",
                            "p99_cycles"});
        for (const auto &s : windows.series) {
            if (s.name.rfind("cycles.", 0) != 0)
                continue;
            cycles.addRow(
                {s.name.substr(7), formatDouble(s.w10s.rate, 1),
                 formatDouble(s.w10s.p50, 0),
                 formatDouble(s.w10s.p99, 0)});
        }
        cycles.print(os);
    }

    if (wd) {
        const auto alerts = wd->alerts();
        const size_t shown = std::min<size_t>(alerts.size(), 5);
        if (shown != 0)
            os << "\nrecent SLO alerts:\n";
        for (size_t i = alerts.size() - shown; i < alerts.size();
             ++i)
            os << "  " << alerts[i].toJson() << "\n";
    }

    if (auto *admit = svc.admissionControl()) {
        os << "\n";
        printTagTable(os, admit->tagTable());
    }
}

/**
 * `stats --watch`: keep an in-process service under continuous
 * replay load and redraw a top-style telemetry frame every
 * --interval-ms, --ticks times (0 = forever). The SLO watchdog is
 * armed (default rules, or --rules SPEC) so the health banner and
 * alert feed are live, not decorative.
 */
int
cmdStatsWatch(const CliArgs &args)
{
    using namespace livephase::service;

    obs::setEnabled(true);
    const IntervalTrace trace = statsTrace(args);
    const std::string which = args.getString("predictor", "gpht");
    const auto kind = predictorKindFromName(which);
    if (!kind)
        fatal("unknown service predictor '%s'", which.c_str());
    const size_t batch =
        static_cast<size_t>(args.getInt("batch", 64));
    if (batch == 0)
        fatal("--batch must be > 0");
    const auto interval = std::chrono::milliseconds(
        std::max<long long>(args.getInt("interval-ms", 1000), 50));
    const auto ticks =
        static_cast<uint64_t>(args.getInt("ticks", 5));

    LivePhaseService::Config cfg;
    cfg.max_batch = std::max(cfg.max_batch, batch);
    applyQos(args, cfg);
    cfg.watchdog.enabled = true;
    cfg.watchdog.rules = args.getString("rules", "");
    // The watch view doubles as the profiler's live display:
    // cycles-by-stage and self.* series come from here.
    cfg.profiler.enabled = true;
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto open = client.open(*kind);
    if (open.status != Status::Ok)
        fatal("open failed: %s", statusName(open.status));

    // The replay thread owns the client and loops the trace until
    // told to stop; the render thread reads the service and the
    // process-global obs planes directly — no shared client.
    std::atomic<bool> stop_replay{false};
    std::thread replay([&] {
        std::vector<IntervalRecord> records;
        uint64_t tsc = 0;
        while (!stop_replay.load(std::memory_order_relaxed)) {
            for (size_t i = 0;
                 i < trace.size() &&
                 !stop_replay.load(std::memory_order_relaxed);
                 ++i) {
                const Interval &ivl = trace.at(i);
                records.push_back({ivl.uops,
                                   ivl.mem_per_uop * ivl.uops,
                                   tsc++});
                if (records.size() == batch ||
                    i + 1 == trace.size()) {
                    const auto reply = client.submitBatchRetrying(
                        open.session_id, records);
                    records.clear();
                    if (reply.status != Status::Ok)
                        return; // shutting down
                }
            }
        }
    });

    const bool tty = isatty(fileno(stdout)) != 0;
    for (uint64_t tick = 0; ticks == 0 || tick < ticks; ++tick) {
        std::this_thread::sleep_for(interval);
        std::ostringstream frame;
        renderWatchFrame(frame, svc, tick);
        if (tty)
            std::cout << "\033[H\033[2J"; // home + clear
        else if (tick != 0)
            std::cout << "---\n";
        std::cout << frame.str() << std::flush;
    }

    stop_replay.store(true, std::memory_order_relaxed);
    replay.join();
    client.close(open.session_id);

    // CI chaos artifacts: the watchdog's alert ring and the fleet
    // phase telemetry, one JSON object per line.
    const std::string alerts_path = args.getString("alerts-out", "");
    if (!alerts_path.empty()) {
        std::ofstream out(alerts_path);
        if (!out)
            fatal("cannot write %s", alerts_path.c_str());
        if (auto *wd = svc.watchdog())
            out << wd->alertsJsonl();
        inform("watchdog alerts written to %s", alerts_path.c_str());
    }
    const std::string phases_path = args.getString("phases-out", "");
    if (!phases_path.empty()) {
        std::ofstream out(phases_path);
        if (!out)
            fatal("cannot write %s", phases_path.c_str());
        out << obs::PhaseTelemetry::global().renderJson() << "\n";
        inform("phase telemetry written to %s", phases_path.c_str());
    }
    return 0;
}

int
cmdStats(const CliArgs &args)
{
    if (args.getBool("watch"))
        return cmdStatsWatch(args);
    obs::setEnabled(true);
    const IntervalTrace trace = statsTrace(args);

    // A managed run first, so the exposition spans all three layers:
    // cpu (System/Core/DVFS), core (classifier/predictor/policy) and
    // service.
    const System system;
    system.run(trace, makeGphtGovernor(DvfsTable::pentiumM()));

    const std::string format =
        args.getString("format", "prometheus");
    ExpositionQuery query;
    if (format == "prometheus") {
        query.format = obs::ExpositionFormat::Prometheus;
    } else if (format == "jsonl") {
        query.format = obs::ExpositionFormat::Jsonl;
    } else if (format == "table") {
        query.table = true;
    } else {
        fatal("unknown --format '%s' (prometheus|jsonl|table)",
              format.c_str());
    }
    std::cout << replayAndExpose(args, trace, query);
    return 0;
}

int
cmdTrace(const CliArgs &args)
{
    obs::setEnabled(true);
    const IntervalTrace trace = statsTrace(args);
    obs::FlightRecorder::global().record(
        obs::Severity::Info, "cli.trace.begin",
        {{"trace", trace.name()},
         {"intervals", static_cast<uint64_t>(trace.size())}});
    ExpositionQuery query;
    query.format = obs::ExpositionFormat::Trace;
    std::cout << replayAndExpose(args, trace, query);
    return 0;
}

int
cmdTraces(const CliArgs &args)
{
    using namespace livephase::service;

    const double sample = args.getDouble("sample", 1.0);
    if (sample <= 0.0 || sample > 1.0)
        fatal("--sample must be in (0, 1]");
    obs::setEnabled(true);
    obs::Tracer::global().setSampleRate(sample);

    const IntervalTrace trace = statsTrace(args);
    const std::string json = replayAndQuery(
        args, trace, [](ServiceClient &client) {
            const auto traces = client.queryTraces();
            if (traces.status != Status::Ok)
                fatal("query-traces failed: %s",
                      statusName(traces.status));
            return traces.json;
        });

    if (args.has("out")) {
        const std::string path = args.getString("out", "");
        if (path.empty())
            fatal("--out requires a path");
        std::ofstream out(path);
        if (!out)
            fatal("cannot write %s", path.c_str());
        out << json;
        std::cout << "wrote Chrome trace JSON to " << path
                  << " (load in Perfetto or chrome://tracing)\n";
        return 0;
    }
    std::cout << json;
    return 0;
}

int
cmdList()
{
    for (const auto &bench : Spec2000Suite::all())
        std::cout << bench.name() << " ("
                  << quadrantName(bench.quadrant()) << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    // $LIVEPHASE_FAULTS / $LIVEPHASE_FAULT_SEED arm failpoints for
    // any subcommand (chaos-in-CI runs the normal CLI paths).
    fault::FailpointRegistry::global().armFromEnv();
    if (args.positional().empty())
        return usage(args.program());
    const std::string &command = args.positional()[0];
    if (command == "generate")
        return cmdGenerate(args);
    if (command == "info")
        return cmdInfo(args);
    if (command == "predict")
        return cmdPredict(args);
    if (command == "manage")
        return cmdManage(args);
    if (command == "serve")
        return cmdServe(args);
    if (command == "stats")
        return cmdStats(args);
    if (command == "profile")
        return cmdProfile(args);
    if (command == "trace")
        return cmdTrace(args);
    if (command == "traces")
        return cmdTraces(args);
    if (command == "list")
        return cmdList();
    return usage(args.program());
}
