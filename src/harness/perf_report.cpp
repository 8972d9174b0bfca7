#include "harness/perf_report.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "telemetry/provenance.h"
#include "telemetry/telemetry.h"

namespace robustify::harness {

namespace {

// Section/bench names are short identifiers, but escape the JSON-breaking
// characters anyway.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string Num(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

}  // namespace

void AttachCounters(PerfReport* report) {
  report->counters.clear();
  const telemetry::CounterSnapshot snapshot = telemetry::SnapshotCounters();
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    if (snapshot.counters[c] == 0) continue;
    report->counters.emplace_back(
        telemetry::CounterName(static_cast<telemetry::Counter>(c)),
        snapshot.counters[c]);
  }
}

void WritePerfJson(const std::string& path, const PerfReport& report) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open perf report for writing: " + path);
  out << "{\n"
      << "  \"bench\": \"" << JsonEscape(report.bench) << "\",\n"
      << "  \"threads\": " << report.threads << ",\n";
  const telemetry::BuildProvenance& prov = telemetry::Provenance();
  out << "  \"provenance\": {\"git_sha\": \"" << JsonEscape(prov.git_sha)
      << "\", \"git_status\": \"" << JsonEscape(prov.git_status)
      << "\", \"compiler\": \"" << JsonEscape(prov.compiler)
      << "\", \"cxx_flags\": \"" << JsonEscape(prov.cxx_flags)
      << "\", \"build_type\": \"" << JsonEscape(prov.build_type) << "\"},\n";
  out << "  \"wall_seconds\": " << Num(report.wall_seconds) << ",\n"
      << "  \"sections\": [";
  for (std::size_t i = 0; i < report.sections.size(); ++i) {
    const PerfSection& s = report.sections[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"name\": \"" << JsonEscape(s.name) << "\","
        << " \"wall_seconds\": " << Num(s.wall_seconds) << ","
        << " \"faulty_flops\": " << Num(s.faulty_flops) << ","
        << " \"injector_mops_per_sec\": " << Num(s.injector_mops_per_sec) << ","
        << " \"serial_wall_seconds\": " << Num(s.serial_wall_seconds) << ","
        << " \"speedup_vs_serial\": " << Num(s.speedup_vs_serial);
    if (s.trials_budget > 0.0) {
      out << "," << " \"trials_run\": " << Num(s.trials_run) << ","
          << " \"trials_budget\": " << Num(s.trials_budget);
    }
    if (s.roofline_ceiling_gops > 0.0) {
      out << "," << " \"kernel_gops\": " << Num(s.kernel_gops) << ","
          << " \"arithmetic_intensity\": " << Num(s.arithmetic_intensity) << ","
          << " \"roofline_ceiling_gops\": " << Num(s.roofline_ceiling_gops)
          << "," << " \"roofline_efficiency\": " << Num(s.roofline_efficiency);
    }
    out << "}";
  }
  out << "\n  ],\n  \"counters\": {";
  for (std::size_t i = 0; i < report.counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << JsonEscape(report.counters[i].first)
        << "\": " << report.counters[i].second;
  }
  out << (report.counters.empty() ? "" : "\n  ") << "}\n}\n";
  if (!out.good()) throw std::runtime_error("failed writing perf report: " + path);
}

}  // namespace robustify::harness
