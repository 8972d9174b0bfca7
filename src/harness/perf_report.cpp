#include "harness/perf_report.h"

#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "telemetry/attribution.h"
#include "telemetry/metrics_export.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace robustify::harness {

namespace {

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
      << "  \"bench\": \"" << telemetry::JsonEscape(report.bench) << "\",\n"
      << "  \"threads\": " << report.threads << ",\n";
  out << "  \"provenance\": " << telemetry::ProvenanceJson() << ",\n";
  out << "  \"wall_seconds\": " << Num(report.wall_seconds) << ",\n"
      << "  \"sections\": [";
  for (std::size_t i = 0; i < report.sections.size(); ++i) {
    const PerfSection& s = report.sections[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"name\": \"" << telemetry::JsonEscape(s.name) << "\","
        << " \"wall_seconds\": " << Num(s.wall_seconds) << ","
        << " \"faulty_flops\": " << Num(s.faulty_flops) << ","
        << " \"injector_mops_per_sec\": " << Num(s.injector_mops_per_sec);
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
        << telemetry::JsonEscape(report.counters[i].first)
        << "\": " << report.counters[i].second;
  }
  out << (report.counters.empty() ? "" : "\n  ") << "}\n}\n";
  if (!out.good()) throw std::runtime_error("failed writing perf report: " + path);
}

bool ParseOutputFlag(const std::string& arg, RunOutputs* outputs) {
  if (arg.rfind("--json=", 0) == 0) {
    outputs->json_path = arg.substr(7);
  } else if (arg == "--trace") {
    outputs->trace = true;
  } else if (arg.rfind("--trace=", 0) == 0) {
    outputs->trace = true;
    outputs->trace_path = arg.substr(8);
  } else if (arg.rfind("--metrics=", 0) == 0) {
    outputs->metrics_path = arg.substr(10);
  } else if (arg == "--attr") {
    outputs->attr = true;
  } else if (arg.rfind("--attr=", 0) == 0) {
    outputs->attr = true;
    outputs->attr_path = arg.substr(7);
  } else {
    return false;
  }
  return true;
}

void WriteRunOutputs(PerfReport* report, const RunOutputs& outputs) {
  AttachCounters(report);
  const std::string json_path = outputs.json_path.empty()
                                    ? "BENCH_" + report->bench + ".json"
                                    : outputs.json_path;
  try {
    WritePerfJson(json_path, *report);
    std::cout << "[perf json written: " << json_path << "]\n";
  } catch (const std::exception& e) {
    std::cout << "[perf json skipped: " << e.what() << "]\n";
  }
  // ROBUSTIFY_TRACE=1 activates collection without the flag; dump in
  // either case so the recording is never silently lost.
  if (telemetry::TracingActive() || outputs.trace) {
    const std::string trace_path = outputs.trace_path.empty()
                                       ? "TRACE_" + report->bench + ".json"
                                       : outputs.trace_path;
    if (telemetry::WriteTrace(trace_path)) {
      std::cout << "[trace written: " << trace_path << "]\n";
    }
  }
  if (!outputs.metrics_path.empty()) {
    telemetry::MetricsContext context;
    context.bench = report->bench;
    context.threads = report->threads;
    try {
      telemetry::WriteMetricsJson(outputs.metrics_path, context);
      std::cout << "[metrics json written: " << outputs.metrics_path << "]\n";
    } catch (const std::exception& e) {
      std::cout << "[metrics json skipped: " << e.what() << "]\n";
    }
  }
  if (outputs.attr) {
    if (outputs.attr_path.empty()) {
      telemetry::FormatAttributionReport(telemetry::SnapshotAttribution(), std::cerr);
    } else if (telemetry::WriteAttributionReport(outputs.attr_path)) {
      std::cout << "[attr report written: " << outputs.attr_path << "]\n";
    } else {
      std::cout << "[attr report skipped: cannot write " << outputs.attr_path
                << "]\n";
    }
  }
}

}  // namespace robustify::harness
