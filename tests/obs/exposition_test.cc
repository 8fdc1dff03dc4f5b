/**
 * @file
 * Exposition edge cases: the build-info facts the runtime gauges
 * carry, and escaping of hostile metric and series names in the
 * Prometheus and JSONL renderers.
 */

#include <string>

#include <gtest/gtest.h>

#include "obs/exposition.hh"
#include "obs/metrics.hh"
#include "obs/runtime.hh"
#include "obs/timeseries.hh"

using namespace livephase;
using namespace livephase::obs;

namespace
{

size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    size_t count = 0;
    for (size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(Exposition, BuildInfoFactsAreNonEmpty)
{
    const BuildInfo &info = buildInfo();
    EXPECT_NE(std::string(info.version), "");
    EXPECT_NE(std::string(info.git_sha), "");
    EXPECT_NE(std::string(info.compiler), "");
}

// A series name with every character the Prometheus text format
// reserves inside label values. Span cycle series embed free-form
// span names, so the renderer must defend against all three.
const char HOSTILE_NAME[] = "cycles.bad\"quote\\slash\nnewline";

TEST(Exposition, PrometheusLabelValuesEscapeReservedCharacters)
{
    TimeSeriesSnapshot snap;
    SeriesSample s;
    s.name = HOSTILE_NAME;
    s.is_histogram = true;
    s.w1s.count = 1;
    snap.series.push_back(s);

    const std::string text = renderTimeSeriesPrometheus(snap);
    // The raw reserved characters must not survive inside a label
    // value: each line stays one line, each quote stays balanced.
    EXPECT_NE(text.find("bad\\\"quote\\\\slash\\nnewline"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("quote\\slash"), std::string::npos)
        << "raw backslash leaked: " << text;
    // Every newline in the output terminates a sample (or the TYPE
    // header) — none was smuggled in by the series name.
    for (size_t pos = 0; (pos = text.find('\n', pos)) !=
         std::string::npos; ++pos) {
        if (pos + 1 < text.size()) {
            const char next = text[pos + 1];
            EXPECT_TRUE(next == '#' || next == 'l')
                << "line starts mid-value at offset " << pos;
        }
    }
}

TEST(Exposition, JsonlEscapesControlCharactersInNames)
{
    TimeSeriesSnapshot snap;
    SeriesSample s;
    s.name = std::string("bad\"q\\s\nn\tt\rr") + '\x01';
    snap.series.push_back(s);

    const std::string text = renderTimeSeriesJsonl(snap);
    EXPECT_EQ(countOccurrences(text, "\n"), 1u)
        << "one series must render as exactly one JSONL line";
    EXPECT_NE(text.find("bad\\\"q\\\\s\\nn\\tt\\rr\\u0001"),
              std::string::npos)
        << text;
}

TEST(Exposition, MetricsJsonlEscapesHostileMetricNames)
{
    MetricsSnapshot snap;
    MetricSample m;
    m.name = "evil{label=\"a\nb\"}";
    m.kind = MetricKind::Gauge;
    m.value = 1.0;
    snap.samples.push_back(m);

    const std::string text = renderJsonl(snap);
    EXPECT_EQ(countOccurrences(text, "\n"), 1u);
    EXPECT_NE(text.find("a\\nb"), std::string::npos) << text;
}

} // namespace
