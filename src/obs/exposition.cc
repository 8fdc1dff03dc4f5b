#include "obs/exposition.hh"

#include <cstdio>
#include <sstream>

namespace livephase::obs
{

namespace
{

std::string
formatValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/** Split "base{a=\"b\"}" into base and inner label list ("a=\"b\""). */
void
splitName(const std::string &name, std::string &base,
          std::string &labels)
{
    const size_t brace = name.find('{');
    if (brace == std::string::npos) {
        base = name;
        labels.clear();
        return;
    }
    base = name.substr(0, brace);
    const size_t end = name.rfind('}');
    labels = name.substr(brace + 1,
                         end == std::string::npos || end <= brace
                             ? std::string::npos
                             : end - brace - 1);
}

/** "base{labels,extra} " or "base{extra} " or "base ". */
std::string
promSeries(const std::string &base, const std::string &labels,
           const std::string &extra)
{
    if (labels.empty() && extra.empty())
        return base;
    std::string out = base + "{" + labels;
    if (!labels.empty() && !extra.empty())
        out += ",";
    out += extra;
    out += "}";
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                // Remaining control characters JSON forbids raw.
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

const char *
expositionFormatName(ExpositionFormat format)
{
    switch (format) {
      case ExpositionFormat::Prometheus: return "prometheus";
      case ExpositionFormat::Jsonl: return "jsonl";
      case ExpositionFormat::Trace: return "trace";
    }
    return "format-?";
}

std::string
renderPrometheus(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    std::string prev_base;
    for (const MetricSample &s : snap.samples) {
        std::string base, labels;
        splitName(s.name, base, labels);
        if (base != prev_base) {
            const char *type = s.kind == MetricKind::Counter
                ? "counter"
                : s.kind == MetricKind::Gauge ? "gauge" : "summary";
            os << "# TYPE " << base << " " << type << "\n";
            prev_base = base;
        }
        if (s.kind != MetricKind::Histogram) {
            os << promSeries(base, labels, "") << " "
               << formatValue(s.value) << "\n";
            continue;
        }
        const double quantiles[] = {50.0, 90.0, 99.0};
        for (double q : quantiles) {
            char extra[32];
            std::snprintf(extra, sizeof(extra), "quantile=\"%g\"",
                          q / 100.0);
            os << promSeries(base, labels, extra) << " "
               << formatValue(s.hist.quantile(q)) << "\n";
        }
        os << promSeries(base + "_sum", labels, "") << " "
           << formatValue(s.hist.sum) << "\n";
        os << promSeries(base + "_count", labels, "") << " "
           << s.hist.count << "\n";
    }
    return os.str();
}

std::string
renderJsonl(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    for (const MetricSample &s : snap.samples) {
        os << "{\"name\": \"" << jsonEscape(s.name)
           << "\", \"kind\": \"" << metricKindName(s.kind) << "\"";
        if (s.kind == MetricKind::Histogram) {
            os << ", \"count\": " << s.hist.count
               << ", \"sum\": " << formatValue(s.hist.sum)
               << ", \"max\": " << formatValue(s.hist.max)
               << ", \"mean\": " << formatValue(s.hist.mean())
               << ", \"p50\": "
               << formatValue(s.hist.quantile(50.0))
               << ", \"p90\": "
               << formatValue(s.hist.quantile(90.0))
               << ", \"p99\": "
               << formatValue(s.hist.quantile(99.0));
        } else {
            os << ", \"value\": " << formatValue(s.value);
        }
        os << "}\n";
    }
    return os.str();
}

namespace
{

/** Escape a series name for use inside a Prometheus text-format
 *  label value (per-tag series carry their own {tag="..."} suffix
 *  with quotes). The format reserves exactly three characters:
 *  backslash, double-quote, and newline — a raw newline would
 *  terminate the sample line mid-value. */
std::string
promLabelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

void
windowPrometheusLines(std::ostringstream &os,
                      const SeriesSample &s, const char *window,
                      const WindowStats &w)
{
    const std::string prefix = "livephase_window{series=\"" +
        promLabelEscape(s.name) + "\",window=\"" + window +
        "\",stat=\"";
    os << prefix << "rate\"} " << formatValue(w.rate) << "\n";
    if (s.is_histogram) {
        os << prefix << "p50\"} " << formatValue(w.p50) << "\n";
        os << prefix << "p99\"} " << formatValue(w.p99) << "\n";
        os << prefix << "max\"} " << formatValue(w.max) << "\n";
    }
}

void
windowJson(std::ostringstream &os, const SeriesSample &s,
           const char *window, const WindowStats &w)
{
    os << "\"" << window << "\": {\"count\": " << w.count
       << ", \"rate\": " << formatValue(w.rate);
    if (s.is_histogram) {
        os << ", \"mean\": " << formatValue(w.mean)
           << ", \"p50\": " << formatValue(w.p50)
           << ", \"p99\": " << formatValue(w.p99)
           << ", \"max\": " << formatValue(w.max);
    }
    os << "}";
}

} // namespace

std::string
renderTimeSeriesPrometheus(const TimeSeriesSnapshot &snap)
{
    std::ostringstream os;
    if (!snap.series.empty())
        os << "# TYPE livephase_window gauge\n";
    for (const SeriesSample &s : snap.series) {
        windowPrometheusLines(os, s, "1s", s.w1s);
        windowPrometheusLines(os, s, "10s", s.w10s);
        windowPrometheusLines(os, s, "60s", s.w60s);
    }
    return os.str();
}

std::string
renderTimeSeriesJsonl(const TimeSeriesSnapshot &snap)
{
    std::ostringstream os;
    for (const SeriesSample &s : snap.series) {
        os << "{\"series\": \"" << jsonEscape(s.name)
           << "\", \"kind\": \""
           << (s.is_histogram ? "histogram" : "counter") << "\", ";
        windowJson(os, s, "1s", s.w1s);
        os << ", ";
        windowJson(os, s, "10s", s.w10s);
        os << ", ";
        windowJson(os, s, "60s", s.w60s);
        os << "}\n";
    }
    return os.str();
}

} // namespace livephase::obs
