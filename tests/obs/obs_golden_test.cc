/**
 * @file
 * Exposition golden: the text a scraper sees, pinned byte for byte.
 *
 * Under a frozen virtual clock one fixed script drives a
 * LivePhaseService with obs, admission control and the SLO watchdog
 * on: open, submit, evict, throttle, close. It then renders
 *
 *  - metricsText() in Prometheus and JSONL,
 *  - the QueryPhases fleet text in both formats,
 *  - the QueryStats response body (hex),
 *
 * and compares each with tests/golden/obs_<name>.txt. Only the
 * `livephase_build_info` and `livephase_uptime_seconds` lines are
 * dropped: they carry the commit and the process age.
 *
 * The script runs once per process (SetUpTestSuite) in its own test
 * binary, so the process-global registries hold exactly what the
 * script put there, whether ctest runs one case per process or the
 * binary runs all of them at once.
 *
 * To recapture after a change meant to move the text, run the binary
 * with LIVEPHASE_GOLDEN_CAPTURE=1; it writes the golden files instead
 * of comparing.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "admission/admission.hh"
#include "common/clock.hh"
#include "obs/exposition.hh"
#include "obs/flight_recorder.hh"
#include "obs/runtime.hh"
#include "service/client.hh"
#include "service/service.hh"
#include "test_util.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

constexpr uint64_t SEC = 1'000'000'000;

std::atomic<uint64_t> virtual_now{1000 * SEC};

uint64_t
frozenNow()
{
    return virtual_now.load(std::memory_order_relaxed);
}

/** Time moves only when the script says so. A thread that sleeps
 *  (the watchdog waiting out its interval) polls instead. */
void
pollSleep(uint64_t)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void
advance(uint64_t ns)
{
    virtual_now.fetch_add(ns, std::memory_order_relaxed);
}

std::vector<IntervalRecord>
makeStream(size_t n, uint64_t seed)
{
    std::vector<IntervalRecord> records;
    for (size_t i = 0; i < n; ++i) {
        const double mem = ((i + seed) % 12 < 5 ? 0.002 : 0.03) +
            0.001 * static_cast<double>((i * 7 + seed) % 5);
        records.push_back({100e6, mem * 100e6, i});
    }
    return records;
}

std::string
dropCommitLines(const std::string &text)
{
    std::istringstream in(text);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("livephase_build_info") != std::string::npos ||
            line.find("livephase_uptime_seconds") != std::string::npos)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

std::string
hex(ByteView bytes)
{
    std::string out;
    char buf[4];
    for (size_t i = 0; i < bytes.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%02x", bytes[i]);
        out += buf;
        out += (i % 32 == 31) ? '\n' : ' ';
    }
    out += '\n';
    return out;
}

std::filesystem::path
goldenPath(const std::string &name)
{
    return std::filesystem::path(__FILE__).parent_path() / ".." /
        "golden" / ("obs_" + name + ".txt");
}

class ObsGolden : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        // Breach dumps go to a sink, not the test log.
        static std::ostringstream dumps;
        obs::FlightRecorder::global().setDumpSink(&dumps);
        timebase::installVirtual(&frozenNow, &pollSleep);
        obs::setEnabled(true);
        runScript();
        timebase::resetToWall();
        obs::FlightRecorder::global().setDumpSink(nullptr);
    }

    static void runScript()
    {
        LivePhaseService::Config cfg;
        cfg.workers = 1;
        cfg.dump_trace_on_error = false;
        cfg.sessions.shards = 1;
        cfg.sessions.max_sessions = 2;
        cfg.admission.enabled = true;
        // No controller thread; each bucket holds its prefund.
        cfg.admission.controller.sample_period_ms = 0;
        cfg.admission.controller.min_budget = 5.0;
        cfg.admission.controller.max_budget = 5.0;
        std::string error;
        EXPECT_TRUE(admission::parseQosSpec("tag=batch", cfg.admission,
                                            &error))
            << error;
        cfg.watchdog.enabled = true;
        // One rule on a windowed series that the script trips, one
        // ratio over the predictor series, and one naming a flat
        // metric, which the watchdog skips.
        cfg.watchdog.rules =
            "evict:service.evictions:count:10s:>:0;"
            "accuracy:core.mispredictions/core.predictions:ratio:"
            "10s:>:0.9;"
            "flat:livephase_service_batches_total:count:10s:>:0";
        // The script evaluates by hand; the thread never ticks.
        cfg.watchdog.eval_interval_ns = 3600 * SEC;

        LivePhaseService svc(cfg);
        InProcessTransport transport(svc);
        ServiceClient client(transport);

        const auto a = client.open(PredictorKind::Gpht);
        const auto b = client.open(PredictorKind::LastValue);
        EXPECT_EQ(a.status, Status::Ok);
        EXPECT_EQ(b.status, Status::Ok);
        EXPECT_EQ(client.submitBatch(a.session_id, makeStream(96, 1))
                      .status,
                  Status::Ok);
        advance(SEC / 2);
        EXPECT_EQ(client.submitBatch(b.session_id, makeStream(48, 5))
                      .status,
                  Status::Ok);
        svc.watchdog()->evalOnce();

        // A third open evicts the least recently used session (a).
        advance(3 * SEC / 2);
        const auto c = client.open(PredictorKind::VariableWindow);
        EXPECT_EQ(c.status, Status::Ok);
        EXPECT_EQ(client.submitBatch(a.session_id, makeStream(8, 2))
                      .status,
                  Status::UnknownSession);
        advance(SEC / 2); // refill the untagged bucket's token
        EXPECT_EQ(client.submitBatch(c.session_id, makeStream(64, 3))
                      .status,
                  Status::Ok);

        // The tagged tenant's one token goes to the first batch.
        client.setTenantTag(
            admission::tagForName(cfg.admission, "batch"));
        EXPECT_EQ(client.submitBatch(b.session_id, makeStream(16, 4))
                      .status,
                  Status::Ok);
        EXPECT_EQ(client.submitBatch(b.session_id, makeStream(16, 4))
                      .status,
                  Status::Throttled);
        client.setTenantTag(0);

        advance(2 * SEC);
        // Rotates the windows, then the watchdog sees the eviction.
        (void)svc.metricsText(static_cast<uint16_t>(
            obs::ExpositionFormat::Prometheus));
        svc.watchdog()->evalOnce();

        EXPECT_EQ(client.close(b.session_id), Status::Ok);
        EXPECT_EQ(client.close(c.session_id), Status::Ok);
        EXPECT_EQ(client.close(c.session_id), Status::UnknownSession);
        advance(SEC);
        svc.watchdog()->evalOnce();

        text_["prometheus"] = dropCommitLines(svc.metricsText(
            static_cast<uint16_t>(obs::ExpositionFormat::Prometheus)));
        text_["jsonl"] = dropCommitLines(svc.metricsText(
            static_cast<uint16_t>(obs::ExpositionFormat::Jsonl)));
        text_["phases_prometheus"] =
            client
                .queryPhases(0, static_cast<uint16_t>(
                                    obs::ExpositionFormat::Prometheus))
                .text;
        text_["phases_jsonl"] =
            client
                .queryPhases(0, static_cast<uint16_t>(
                                    obs::ExpositionFormat::Jsonl))
                .text;

        Bytes response;
        transport.roundTripInto(ENCODED(encodeStatsRequestInto),
                                response);
        ResponseView view;
        EXPECT_TRUE(parseResponse(ByteView(response), view));
        EXPECT_EQ(view.status, Status::Ok);
        text_["stats_body"] = hex(view.body);
        svc.stop();
    }

    static void expectGolden(const std::string &name)
    {
        const std::string &actual = text_[name];
        ASSERT_FALSE(actual.empty()) << name;
        const std::filesystem::path path = goldenPath(name);
        if (std::getenv("LIVEPHASE_GOLDEN_CAPTURE") != nullptr) {
            std::ofstream(path, std::ios::binary) << actual;
            return;
        }
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in) << "missing golden " << path;
        std::ostringstream expected;
        expected << in.rdbuf();
        EXPECT_EQ(actual, expected.str()) << "golden " << path;
    }

    static std::map<std::string, std::string> text_;
};

std::map<std::string, std::string> ObsGolden::text_;

TEST_F(ObsGolden, PrometheusMetricsText)
{
    expectGolden("prometheus");
}

TEST_F(ObsGolden, JsonlMetricsText)
{
    expectGolden("jsonl");
}

TEST_F(ObsGolden, FleetPhasesText)
{
    expectGolden("phases_prometheus");
    expectGolden("phases_jsonl");
}

TEST_F(ObsGolden, StatsBody)
{
    expectGolden("stats_body");
}

} // namespace
