// Shared helpers for the figure-reproduction benches.
//
// Every bench prints (a) the figure/table it reproduces, (b) a fixed-width
// table with one row per x-axis point and one column per series — the
// textual analogue of the paper's plot — (c) writes the same data as CSV
// next to the binary, and (d) emits a BENCH_<name>.json perf report (wall
// time, injector throughput, speedup vs. serial when requested).
//
// Common CLI flags (parsed by BenchContext):
//   --trials=N         override the repetition count of every sweep
//   --rates=a,b,c      override the fault-rate axis of every sweep
//   --threads=N        worker threads (default: ROBUSTIFY_THREADS, else all)
//   --json=PATH        perf report path (default BENCH_<name>.json)
//   --compare-serial   rerun each sweep on one thread and report the speedup
//   --trace[=PATH]     flight-recorder spans -> Chrome trace JSON
//                      (default TRACE_<name>.json; load in Perfetto)
//   --metrics=PATH     merged counter/histogram snapshot + provenance JSON
//   --attr[=PATH]      wall-time attribution ledger -> report on stderr
//                      (or to PATH when given); per-category self/total
//   --progress         heartbeat lines on stderr (units done, trials/s, ETA)
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/csv.h"
#include "harness/parallel.h"
#include "harness/perf_report.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "harness/timer.h"
#include "telemetry/metrics_export.h"
#include "telemetry/progress.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace robustify::bench {

inline void Banner(const std::string& title, const std::string& paper_ref,
                   const std::string& expectation) {
  std::cout << "==================================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Expected shape: " << expectation << "\n"
            << "==================================================================\n";
}

inline void EmitSweep(const std::string& title, const std::vector<harness::Series>& series,
                      harness::TableValue value, const std::string& value_label,
                      const std::string& csv_name) {
  harness::PrintSweepTable(std::cout, title, series, value, value_label);
  try {
    harness::WriteSweepCsv(csv_name, series);
    std::cout << "[csv written: " << csv_name << "]\n";
  } catch (const std::exception& e) {
    std::cout << "[csv skipped: " << e.what() << "]\n";
  }
  std::cout << "\n";
}

struct BenchOptions {
  int trials = 0;              // 0: keep each sweep's default
  std::vector<double> rates;   // empty: keep each sweep's default
  int threads = 0;             // 0: auto (ROBUSTIFY_THREADS, else hardware)
  std::string json_path;       // empty: BENCH_<name>.json
  bool compare_serial = false;
  bool trace = false;          // --trace[=PATH]: span collection + JSON dump
  std::string trace_path;      // empty with trace: TRACE_<name>.json
  std::string metrics_path;    // empty: no --metrics export
  bool attr = false;           // --attr[=PATH]: wall-time attribution ledger
  std::string attr_path;       // empty with attr: report goes to stderr
};

// Parses the shared flags, applies sweep overrides, times every sweep, and
// accumulates the perf report written by Finish().
class BenchContext {
 public:
  BenchContext(const std::string& name, int argc, char** argv) {
    report_.bench = name;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trials=", 0) == 0) {
        options_.trials = ParseIntOrDie("--trials", arg.substr(9));
      } else if (arg.rfind("--rates=", 0) == 0) {
        if (!ParseRates(arg.substr(8), &options_.rates) || options_.rates.empty()) {
          std::cerr << "malformed --rates list: " << arg.substr(8)
                    << " (expected comma-separated numbers)\n";
          std::exit(2);
        }
      } else if (arg.rfind("--threads=", 0) == 0) {
        options_.threads = ParseIntOrDie("--threads", arg.substr(10));
      } else if (arg.rfind("--json=", 0) == 0) {
        options_.json_path = arg.substr(7);
      } else if (arg == "--compare-serial") {
        options_.compare_serial = true;
      } else if (arg == "--trace") {
        options_.trace = true;
      } else if (arg.rfind("--trace=", 0) == 0) {
        options_.trace = true;
        options_.trace_path = arg.substr(8);
      } else if (arg.rfind("--metrics=", 0) == 0) {
        options_.metrics_path = arg.substr(10);
      } else if (arg == "--attr") {
        options_.attr = true;
      } else if (arg.rfind("--attr=", 0) == 0) {
        options_.attr = true;
        options_.attr_path = arg.substr(7);
      } else if (arg == "--progress") {
        telemetry::EnableProgress();
      } else {
        std::cerr << "unknown argument: " << arg << "\n"
                  << "usage: " << name
                  << " [--trials=N] [--rates=a,b,c] [--threads=N] [--json=PATH]"
                     " [--compare-serial] [--trace[=PATH]] [--metrics=PATH]"
                     " [--attr[=PATH]] [--progress]\n";
        std::exit(2);
      }
    }
    if (options_.trace) telemetry::StartTracing();
    if (options_.attr) telemetry::SetAttributionEnabled(true);
  }

  const BenchOptions& options() const { return options_; }

  // Trial-count override for benches with bespoke (non-sweep) loops.
  int TrialsOr(int default_trials) const {
    return options_.trials > 0 ? options_.trials : default_trials;
  }

  // Applies the CLI overrides to a sweep configuration.
  void Configure(harness::SweepConfig* sweep) const {
    if (options_.trials > 0) sweep->trials = options_.trials;
    if (!options_.rates.empty()) sweep->fault_rates = options_.rates;
    if (options_.threads != 0) sweep->threads = options_.threads;
  }

  // Configures, times, and runs one sweep; records a perf section.  With
  // --compare-serial the sweep is rerun on one thread to measure speedup.
  std::vector<harness::Series> RunSweep(const std::string& label,
                                        harness::SweepConfig sweep,
                                        const std::vector<harness::NamedTrial>& trials) {
    Configure(&sweep);
    harness::WallTimer timer;
    std::vector<harness::Series> series = harness::RunFaultRateSweep(sweep, trials);
    harness::PerfSection section;
    section.name = label;
    section.wall_seconds = timer.Seconds();
    for (const harness::Series& s : series) {
      for (const harness::SeriesPoint& p : s.points) {
        section.faulty_flops += p.summary.mean_faulty_flops * p.summary.trials;
      }
    }
    if (section.wall_seconds > 0.0) {
      section.injector_mops_per_sec =
          section.faulty_flops / section.wall_seconds / 1e6;
    }
    if (options_.compare_serial) {
      harness::SweepConfig serial = sweep;
      serial.threads = 1;
      harness::WallTimer serial_timer;
      harness::RunFaultRateSweep(serial, trials);
      section.serial_wall_seconds = serial_timer.Seconds();
      if (section.wall_seconds > 0.0) {
        section.speedup_vs_serial = section.serial_wall_seconds / section.wall_seconds;
      }
    }
    std::cout << "[perf] " << label << ": " << section.wall_seconds << " s, "
              << section.injector_mops_per_sec << " Mops/s through the injector";
    if (section.speedup_vs_serial > 0.0) {
      std::cout << ", " << section.speedup_vs_serial << "x vs serial";
    }
    std::cout << "\n";
    report_.sections.push_back(section);
    return series;
  }

  // Records a bespoke timed section (benches without a sweep grid).
  void RecordSection(const std::string& label, double wall_seconds,
                     double faulty_flops) {
    harness::PerfSection section;
    section.name = label;
    section.wall_seconds = wall_seconds;
    section.faulty_flops = faulty_flops;
    if (wall_seconds > 0.0 && faulty_flops > 0.0) {
      section.injector_mops_per_sec = faulty_flops / wall_seconds / 1e6;
    }
    report_.sections.push_back(section);
  }

  // The most recently recorded section, for benches that annotate it after
  // the fact (bench_roofline fills the roofline fields).  nullptr before
  // the first section.
  harness::PerfSection* LastSection() {
    return report_.sections.empty() ? nullptr : &report_.sections.back();
  }

  // Writes the perf report (and any requested trace/metrics exports); call
  // as the last statement of main().
  int Finish() {
    report_.threads = harness::ResolveThreadCount(options_.threads);
    report_.wall_seconds = total_.Seconds();
    harness::AttachCounters(&report_);
    const std::string path =
        options_.json_path.empty() ? "BENCH_" + report_.bench + ".json"
                                   : options_.json_path;
    try {
      harness::WritePerfJson(path, report_);
      std::cout << "[perf json written: " << path << "]\n";
    } catch (const std::exception& e) {
      std::cout << "[perf json skipped: " << e.what() << "]\n";
    }
    // ROBUSTIFY_TRACE=1 activates collection without the flag; dump in
    // either case so the recording is never silently lost.
    if (telemetry::TracingActive() || options_.trace) {
      const std::string trace_path =
          options_.trace_path.empty() ? "TRACE_" + report_.bench + ".json"
                                      : options_.trace_path;
      if (telemetry::WriteTrace(trace_path)) {
        std::cout << "[trace written: " << trace_path << "]\n";
      }
    }
    if (!options_.metrics_path.empty()) {
      telemetry::MetricsContext context;
      context.bench = report_.bench;
      context.threads = report_.threads;
      try {
        telemetry::WriteMetricsJson(options_.metrics_path, context);
        std::cout << "[metrics json written: " << options_.metrics_path << "]\n";
      } catch (const std::exception& e) {
        std::cout << "[metrics json skipped: " << e.what() << "]\n";
      }
    }
    if (options_.attr) {
      if (options_.attr_path.empty()) {
        telemetry::FormatAttributionReport(telemetry::SnapshotAttribution(),
                                           std::cerr);
      } else if (telemetry::WriteAttributionReport(options_.attr_path)) {
        std::cout << "[attr report written: " << options_.attr_path << "]\n";
      } else {
        std::cout << "[attr report skipped: cannot write "
                  << options_.attr_path << "]\n";
      }
    }
    return 0;
  }

 private:
  // Strict integer parse: trailing garbage must reject the flag, not
  // silently truncate into a plausible-but-wrong configuration.
  static int ParseIntOrDie(const char* flag, const std::string& value) {
    char* end = nullptr;
    const long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      std::cerr << "malformed " << flag << " value: " << value
                << " (expected an integer)\n";
      std::exit(2);
    }
    return static_cast<int>(parsed);
  }

  // Strict comma-separated parse: any trailing garbage rejects the whole
  // flag (a silently-truncated rate axis would still produce a plausible
  // sweep and a wrong perf baseline).
  static bool ParseRates(const std::string& csv, std::vector<double>* rates) {
    rates->clear();
    const char* p = csv.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      const double v = std::strtod(p, &end);
      if (end == p) return false;
      rates->push_back(v);
      if (*end == ',') {
        p = end + 1;
      } else if (*end == '\0') {
        p = end;
      } else {
        return false;
      }
    }
    return !rates->empty();
  }

  BenchOptions options_;
  harness::PerfReport report_;
  harness::WallTimer total_;
};

}  // namespace robustify::bench
