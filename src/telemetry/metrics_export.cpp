#include "telemetry/metrics_export.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "telemetry/provenance.h"

namespace robustify::telemetry {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string ProvenanceJson() {
  const BuildProvenance& prov = Provenance();
  return std::string("{\"git_sha\": \"") + JsonEscape(prov.git_sha) +
         "\", \"git_status\": \"" + JsonEscape(prov.git_status) +
         "\", \"compiler\": \"" + JsonEscape(prov.compiler) +
         "\", \"cxx_flags\": \"" + JsonEscape(prov.cxx_flags) +
         "\", \"build_type\": \"" + JsonEscape(prov.build_type) + "\"}";
}

void WriteMetricsJson(const std::string& path, const MetricsContext& context) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open metrics JSON for writing: " + path);

  const CounterSnapshot snapshot = SnapshotCounters();

  out << "{\n"
      << "  \"bench\": \"" << JsonEscape(context.bench) << "\",\n"
      << "  \"threads\": " << context.threads << ",\n"
      << "  \"provenance\": " << ProvenanceJson() << ",\n"
      << "  \"telemetry\": \""
      << (ROBUSTIFY_TELEMETRY_ENABLED ? "enabled" : "compiled-out") << "\",\n";

  out << "  \"counters\": {";
  bool first = true;
  for (int c = 0; c < kNumCounters; ++c) {
    if (snapshot.counters[c] == 0) continue;
    out << (first ? "\n" : ",\n") << "    \""
        << CounterName(static_cast<Counter>(c)) << "\": " << snapshot.counters[c];
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"histograms\": {";
  first = true;
  for (int h = 0; h < kNumHistograms; ++h) {
    const Histogram hist = static_cast<Histogram>(h);
    const std::uint64_t total = snapshot.histogram_total(hist);
    if (total == 0) continue;
    // Sparse map keyed by bucket lower bound (log2 buckets: 0, 1, 2, 4,
    // ...), empty buckets omitted, plus interpolated quantiles.
    out << (first ? "\n" : ",\n") << "    \"" << HistogramName(hist)
        << "\": {\"total\": " << total
        << ", \"p50\": " << HistogramQuantile(snapshot.histograms[h], 0.50)
        << ", \"p90\": " << HistogramQuantile(snapshot.histograms[h], 0.90)
        << ", \"p99\": " << HistogramQuantile(snapshot.histograms[h], 0.99)
        << ", \"buckets\": {";
    bool first_bucket = true;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t count = snapshot.histograms[h][b];
      if (count == 0) continue;
      out << (first_bucket ? "" : ", ") << "\"" << HistogramBucketLowerBound(b)
          << "\": " << count;
      first_bucket = false;
    }
    out << "}}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";

  if (!out.good()) throw std::runtime_error("failed writing metrics JSON: " + path);
}

}  // namespace robustify::telemetry
