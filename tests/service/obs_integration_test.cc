/**
 * @file
 * Service-level observability integration: the query-metrics op
 * end-to-end (in-process and over the UDS transport), automatic
 * flight-recorder dumps on malformed frames, and payload redaction
 * in the socket-desync dump.
 */

#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/exposition.hh"
#include "obs/flight_recorder.hh"
#include "obs/runtime.hh"
#include "service/client.hh"
#include "service/service.hh"
#include "service/uds_transport.hh"
#include "test_util.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

class ScopedObsEnable
{
  public:
    ScopedObsEnable() : was(obs::enabled())
    {
        obs::setEnabled(true);
    }
    ~ScopedObsEnable() { obs::setEnabled(was); }

  private:
    bool was;
};

/** Route auto-dumps into a captured stream for one test. */
class ScopedDumpCapture
{
  public:
    ScopedDumpCapture()
    {
        obs::FlightRecorder::global().resetDumpLatches();
        obs::FlightRecorder::global().setDumpSink(&os);
    }

    ~ScopedDumpCapture()
    {
        obs::FlightRecorder::global().setDumpSink(nullptr);
    }

    std::string text() const { return os.str(); }

  private:
    std::ostringstream os;
};

std::vector<IntervalRecord>
makeStream(size_t n)
{
    std::vector<IntervalRecord> records;
    for (size_t i = 0; i < n; ++i)
        records.push_back({100e6, (i % 16 < 8 ? 0.002 : 0.03) * 100e6,
                           static_cast<uint64_t>(i)});
    return records;
}

TEST(ObsIntegration, QueryMetricsInProcess)
{
    ScopedObsEnable on;
    LivePhaseService svc;
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    ASSERT_EQ(client.submitBatchRetrying(open.session_id,
                                         makeStream(128))
                  .status,
              Status::Ok);

    const auto prom = client.queryMetrics(static_cast<uint16_t>(
        obs::ExpositionFormat::Prometheus));
    ASSERT_EQ(prom.status, Status::Ok);
    EXPECT_NE(prom.text.find("# TYPE"), std::string::npos);
    EXPECT_NE(prom.text.find(
                  "livephase_service_sessions_opened_total 1"),
              std::string::npos);
    EXPECT_NE(prom.text.find("livephase_service_intervals_total "
                             "128"),
              std::string::npos);
    EXPECT_NE(prom.text.find("livephase_core_intervals_classified"
                             "_total"),
              std::string::npos);
    EXPECT_NE(prom.text.find(
                  "livephase_span_us{span=\"core.classify\""),
              std::string::npos);

    const auto jsonl = client.queryMetrics(
        static_cast<uint16_t>(obs::ExpositionFormat::Jsonl));
    ASSERT_EQ(jsonl.status, Status::Ok);
    EXPECT_NE(jsonl.text.find(
                  "{\"name\": \"livephase_service_batches_total\""),
              std::string::npos);

    const auto trace = client.queryMetrics(
        static_cast<uint16_t>(obs::ExpositionFormat::Trace));
    ASSERT_EQ(trace.status, Status::Ok);
    EXPECT_NE(trace.text.find("--- flight recorder:"),
              std::string::npos);
}

TEST(ObsIntegration, QueryMetricsOverUds)
{
    ScopedObsEnable on;
    LivePhaseService svc;
    const std::string path =
        "/tmp/livephased_obs_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    ServiceClient client(transport);

    const auto open = client.open(PredictorKind::LastValue);
    ASSERT_EQ(open.status, Status::Ok);
    ASSERT_EQ(client.submitBatchRetrying(open.session_id,
                                         makeStream(64))
                  .status,
              Status::Ok);

    const auto reply = client.queryMetrics(static_cast<uint16_t>(
        obs::ExpositionFormat::Prometheus));
    ASSERT_EQ(reply.status, Status::Ok);
    EXPECT_NE(reply.text.find("livephase_service_intervals_total"),
              std::string::npos);
    EXPECT_NE(reply.text.find("livephase_uds_connections_accepted"
                              "_total"),
              std::string::npos);

    server.stop();
}

TEST(ObsIntegration, MetricsTextRefreshesRuntimeGauges)
{
    // Every render first refreshes the runtime gauges: the
    // constant-1 build-info series (facts as labels) and the uptime.
    LivePhaseService svc;
    const auto prom = static_cast<uint16_t>(
        obs::ExpositionFormat::Prometheus);
    const auto uptime = [&] {
        const std::string text = svc.metricsText(prom);
        const std::string key = "\nlivephase_uptime_seconds ";
        const size_t at = text.find(key);
        EXPECT_NE(at, std::string::npos) << text;
        return at == std::string::npos
            ? 0.0
            : std::stod(text.substr(at + key.size()));
    };
    const double first = uptime();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GT(uptime(), first);

    const std::string text = svc.metricsText(prom);
    EXPECT_NE(text.find("livephase_build_info{version=\""),
              std::string::npos);
    EXPECT_NE(text.find("git_sha=\""), std::string::npos);
    EXPECT_NE(text.find("compiler=\""), std::string::npos);
    // JSONL escapes the quotes inside the labeled name; match up to
    // the quote only.
    const std::string jsonl = svc.metricsText(
        static_cast<uint16_t>(obs::ExpositionFormat::Jsonl));
    EXPECT_NE(jsonl.find("livephase_build_info{version="),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"livephase_uptime_seconds\""),
              std::string::npos);
}

TEST(ObsIntegration, QueryPhasesFleetAndPerSession)
{
    ScopedObsEnable on;
    LivePhaseService svc;
    InProcessTransport transport(svc);
    ServiceClient client(transport);

    const auto open = client.open(PredictorKind::Gpht);
    ASSERT_EQ(open.status, Status::Ok);
    ASSERT_EQ(client.submitBatchRetrying(open.session_id,
                                         makeStream(128))
                  .status,
              Status::Ok);

    // Fleet scope (session_id 0): the process-global telemetry
    // plane, JSON and Prometheus flavors.
    const auto fleet_json = client.queryPhases(
        0, static_cast<uint16_t>(obs::ExpositionFormat::Jsonl));
    ASSERT_EQ(fleet_json.status, Status::Ok);
    EXPECT_NE(fleet_json.text.find("\"hit_rate\""),
              std::string::npos);
    EXPECT_NE(fleet_json.text.find("\"hit_rate_10s\""),
              std::string::npos);

    const auto fleet_prom = client.queryPhases(
        0,
        static_cast<uint16_t>(obs::ExpositionFormat::Prometheus));
    ASSERT_EQ(fleet_prom.status, Status::Ok);
    EXPECT_NE(fleet_prom.text.find("livephase_phase_hit_rate"),
              std::string::npos);

    // Per-session scope: predictor-quality detail for the live
    // session, with the volume we just pushed through it.
    const auto session_json = client.queryPhases(
        open.session_id,
        static_cast<uint16_t>(obs::ExpositionFormat::Jsonl));
    ASSERT_EQ(session_json.status, Status::Ok);
    EXPECT_NE(session_json.text.find(
                  "\"session\": " +
                  std::to_string(open.session_id)),
              std::string::npos);
    EXPECT_NE(session_json.text.find("\"intervals\": 128"),
              std::string::npos);

    const auto session_prom = client.queryPhases(
        open.session_id,
        static_cast<uint16_t>(obs::ExpositionFormat::Prometheus));
    ASSERT_EQ(session_prom.status, Status::Ok);
    EXPECT_NE(session_prom.text.find(
                  "livephase_session_hit_rate"),
              std::string::npos);

    // A session id nobody opened: UnknownSession, empty body.
    const auto missing = client.queryPhases(
        open.session_id + 999,
        static_cast<uint16_t>(obs::ExpositionFormat::Jsonl));
    EXPECT_EQ(missing.status, Status::UnknownSession);
    EXPECT_TRUE(missing.text.empty());
}

TEST(ObsIntegration, MalformedFrameAutoDumpCarriesSpanContext)
{
    ScopedObsEnable on;
    ScopedDumpCapture capture;
    LivePhaseService svc;

    Bytes frame = ENCODED(encodeStatsRequestInto);
    frame[0] ^= 0xff; // corrupt magic
    Bytes rx;
    svc.handleFrameInto(frame, rx);
    ResponseView resp;
    ASSERT_TRUE(parseResponse(rx, resp));
    EXPECT_EQ(resp.status, Status::BadFrame);

    const std::string dump = capture.text();
    EXPECT_NE(dump.find("reason=malformed-frame"),
              std::string::npos);
    EXPECT_NE(dump.find("frame.malformed"), std::string::npos);
    // The offending op's span context: the event was recorded
    // inside the service.handle span.
    EXPECT_NE(dump.find("span=service.handle"), std::string::npos);
    EXPECT_NE(dump.find("payload_size="), std::string::npos);
}

TEST(ObsIntegration, MalformedFrameDumpCanBeDisabled)
{
    ScopedObsEnable on;
    ScopedDumpCapture capture;
    LivePhaseService::Config cfg;
    cfg.dump_trace_on_error = false;
    LivePhaseService svc(cfg);

    Bytes frame = ENCODED(encodeStatsRequestInto);
    frame[0] ^= 0xff;
    Bytes rx;
    svc.handleFrameInto(frame, rx);
    ResponseView resp;
    ASSERT_TRUE(parseResponse(rx, resp));
    EXPECT_EQ(resp.status, Status::BadFrame);
    EXPECT_EQ(capture.text(), "");
}

TEST(ObsIntegration, DesyncDumpRedactsPayloadBytes)
{
    ScopedObsEnable on;
    ScopedDumpCapture capture;
    LivePhaseService svc;
    const std::string path =
        "/tmp/livephased_desync_" +
        std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this environment";

    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());

    // Garbage that is NOT a frame, containing a marker that must
    // never surface in any dump.
    const std::string garbage =
        "XSECRETPAYLOADXSECRETPAYLOADXSECRETPAYLOADX";
    const Bytes raw(garbage.begin(), garbage.end());
    Bytes response;
    ASSERT_TRUE(transport.roundTripInto(raw, response));
    ResponseView resp;
    ASSERT_TRUE(parseResponse(response, resp));
    EXPECT_EQ(resp.status, Status::BadFrame);

    server.stop();

    const std::string dump = capture.text();
    EXPECT_NE(dump.find("reason=socket-desync"), std::string::npos);
    EXPECT_NE(dump.find("uds.desync"), std::string::npos);
    // Lengths and opcodes only — never the bytes themselves.
    EXPECT_EQ(dump.find("SECRETPAYLOAD"), std::string::npos);
}

} // namespace
