/**
 * @file
 * livephased throughput/latency benchmark: the batching payoff.
 *
 * M client threads drive S sessions through the in-process
 * transport (the real submit path: inline when idle, queue and
 * worker pool under load, backpressure), replaying the same
 * synthetic phase streams at batch sizes K in {1, 16, 256}.
 * Reported per K: aggregate intervals/sec over the submit phase
 * alone and the service-side SubmitBatch latency distribution
 * (p50/p99 from the stats op).
 *
 * K = 1 pays one full frame + submit + future round trip per
 * interval; K = 256 amortizes that fixed cost 256 ways while still
 * looking the session up and taking its lock once per batch, so
 * throughput scales nearly linearly until encode/classify work
 * dominates. Sessions run the last-value predictor: its per-interval
 * cost is small next to a frame's, so the ratio measures the
 * batching itself. Under GPHT the PHT search costs more per interval
 * than a frame does and hides an unbatched dispatch (one lookup and
 * one pipeline call per record) inside the run-to-run noise.
 *
 * Flags:
 *   --threads M     client threads            (default 4)
 *   --sessions S    total sessions            (default 16)
 *   --intervals N   intervals per session     (default 2048)
 *   --check         CI mode: exit 1 unless rate(K=256) >=
 *                   MIN_SPEEDUP x rate(K=1)
 *   --json PATH     also write a machine-readable result file
 *                   (schema in scripts/bench_compare.py); CI
 *                   compares it against bench/baselines/
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <latch>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table_writer.hh"
#include "service/client.hh"
#include "service/service.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

/** The --check bar, set from measured runs: unbatched dispatch
 *  stays below it, the real pipeline clears it with room to spare
 *  (numbers in CHANGES.md). */
constexpr double MIN_SPEEDUP = 15.0;

std::vector<IntervalRecord>
makeStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<IntervalRecord> records;
    records.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const double base = (i / 8) % 2 == 0 ? 0.002 : 0.025;
        const double mem_per_uop =
            std::max(0.0, base + rng.gaussian(0.0, 0.004));
        records.push_back({100e6, mem_per_uop * 100e6,
                           static_cast<uint64_t>(i)});
    }
    return records;
}

struct RunResult
{
    double intervals_per_sec = 0.0;
    OpLatency submit_latency{};
};

RunResult
runAtBatchSize(size_t batch, size_t threads, size_t sessions,
               size_t intervals)
{
    LivePhaseService::Config cfg;
    cfg.workers = 2;
    cfg.max_batch = std::max<size_t>(cfg.max_batch, batch);
    LivePhaseService svc(cfg);
    InProcessTransport transport(svc);

    // Only ingestion is timed: thread start-up, session opens and
    // batch slicing happen before the start stamp, closes after each
    // thread's finish stamp. On a short run those set-up costs would
    // otherwise swamp the K=256 side and hide its per-record cost.
    using Clock = std::chrono::steady_clock;
    const size_t per_thread = (sessions + threads - 1) / threads;
    std::latch ready(static_cast<std::ptrdiff_t>(threads));
    std::latch go(1);
    std::vector<Clock::time_point> done(threads);

    std::vector<std::thread> clients;
    for (size_t t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            ServiceClient client(transport);
            const size_t lo = t * per_thread;
            const size_t hi = std::min(lo + per_thread, sessions);
            std::vector<uint64_t> ids;
            std::vector<std::vector<std::vector<IntervalRecord>>>
                batches;
            for (size_t s = lo; s < hi; ++s) {
                const auto open = client.open(PredictorKind::LastValue);
                if (open.status != Status::Ok)
                    fatal("open failed: %s",
                          statusName(open.status));
                ids.push_back(open.session_id);
                const auto stream = makeStream(s, intervals);
                auto &slices = batches.emplace_back();
                for (size_t at = 0; at < stream.size(); at += batch)
                    slices.emplace_back(
                        stream.begin() + at,
                        stream.begin() +
                            std::min(at + batch, stream.size()));
            }
            ready.count_down();
            go.wait();
            for (size_t i = 0; i < ids.size(); ++i) {
                for (const auto &records : batches[i]) {
                    const auto reply =
                        client.submitBatchRetrying(ids[i], records);
                    if (reply.status != Status::Ok)
                        fatal("submit failed: %s",
                              statusName(reply.status));
                }
            }
            done[t] = Clock::now();
            for (const uint64_t id : ids)
                client.close(id);
        });
    }
    ready.wait();
    const Clock::time_point start = Clock::now();
    go.count_down();
    for (std::thread &t : clients)
        t.join();
    const double seconds =
        std::chrono::duration<double>(
            *std::max_element(done.begin(), done.end()) - start)
            .count();

    const StatsSnapshot snap = svc.stats();
    const double total =
        static_cast<double>(sessions) *
        static_cast<double>(intervals);

    RunResult result;
    result.intervals_per_sec = seconds > 0.0 ? total / seconds : 0.0;
    result.submit_latency =
        snap.op_latency[static_cast<size_t>(Op::SubmitBatch) - 1];
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const size_t threads =
        static_cast<size_t>(args.getInt("threads", 4));
    const size_t sessions =
        static_cast<size_t>(args.getInt("sessions", 16));
    const size_t intervals =
        static_cast<size_t>(args.getInt("intervals", 2048));
    const bool check = args.getBool("check");
    if (threads == 0)
        fatal("--threads must be > 0");

    printBanner(std::cout, "livephased batched-ingestion throughput");
    std::cout << threads << " client threads, " << sessions
              << " sessions, " << intervals
              << " intervals/session\n\n";

    const size_t batch_sizes[] = {1, 16, 256};
    std::vector<RunResult> results;
    for (size_t batch : batch_sizes)
        results.push_back(
            runAtBatchSize(batch, threads, sessions, intervals));

    TableWriter table({"K", "intervals_per_sec", "p50_us", "p99_us",
                       "mean_us", "speedup_vs_K1"});
    for (size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        table.addRow({std::to_string(batch_sizes[i]),
                      formatDouble(r.intervals_per_sec, 0),
                      formatDouble(r.submit_latency.p50_us, 2),
                      formatDouble(r.submit_latency.p99_us, 2),
                      formatDouble(r.submit_latency.mean_us, 2),
                      formatDouble(r.intervals_per_sec /
                                       results[0].intervals_per_sec,
                                   2)});
    }
    table.print(std::cout);

    const double speedup = results.back().intervals_per_sec /
        results.front().intervals_per_sec;
    std::cout << "\nK=256 vs K=1 speedup: "
              << formatDouble(speedup, 2) << "x\n";

    if (args.has("json")) {
        const std::string path = args.getString("json", "");
        if (path.empty())
            fatal("--json requires a path");
        std::ofstream out(path);
        if (!out)
            fatal("cannot write %s", path.c_str());
        // Scale-free metrics (ratios) go under "compare": they are
        // the only numbers stable enough to gate across machines.
        // Absolute rates are recorded for humans reading the file.
        out << "{\n"
            << "  \"schema\": 1,\n"
            << "  \"bench\": \"bench_service_throughput\",\n"
            << "  \"config\": {\"threads\": " << threads
            << ", \"sessions\": " << sessions
            << ", \"intervals\": " << intervals << "},\n"
            << "  \"metrics\": {\n"
            << "    \"intervals_per_sec_k1\": "
            << results[0].intervals_per_sec << ",\n"
            << "    \"intervals_per_sec_k16\": "
            << results[1].intervals_per_sec << ",\n"
            << "    \"intervals_per_sec_k256\": "
            << results[2].intervals_per_sec << ",\n"
            << "    \"submit_p99_us_k256\": "
            << results[2].submit_latency.p99_us << ",\n"
            << "    \"speedup_k256_vs_k1\": " << speedup << "\n"
            << "  },\n"
            << "  \"directions\": {\"speedup_k256_vs_k1\": "
            << "\"higher\"},\n"
            << "  \"compare\": [\"speedup_k256_vs_k1\"]\n"
            << "}\n";
        std::cout << "wrote " << path << "\n";
    }

    if (check && speedup < MIN_SPEEDUP) {
        std::cerr << "FAIL: batching speedup " << speedup
                  << "x below the " << MIN_SPEEDUP << "x bar\n";
        return 1;
    }
    return 0;
}
