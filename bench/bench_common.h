// Shared helpers for the bespoke benches (the measurements that are not a
// registry campaign: fault distribution, voltage curve, energy frontier,
// FLOP overhead, roofline, runtime, telemetry overhead).  The registry
// figures run through `robustify_cli run <name> --fixed`.
//
// Every bench prints (a) what it reproduces and the expected shape, (b) its
// tables, and (c) emits a BENCH_<name>.json perf report (wall time and
// injector throughput per timed section).
//
// Common CLI flags (parsed by BenchContext):
//   --trials=N         override the bench's trial/repeat count
//   --threads=N        worker threads (default: hardware concurrency)
//   --json=PATH        perf report path (default BENCH_<name>.json)
//   --trace[=PATH]     flight-recorder spans -> Chrome trace JSON
//                      (default TRACE_<name>.json; load in Perfetto)
//   --metrics=PATH     merged counter/histogram snapshot + provenance JSON
//   --attr[=PATH]      wall-time attribution ledger -> report on stderr
//                      (or to PATH when given); per-category self/total
//   --progress         heartbeat lines on stderr (units done, trials/s, ETA)
#pragma once

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "campaign/spec.h"
#include "harness/parallel.h"
#include "harness/perf_report.h"
#include "harness/timer.h"
#include "telemetry/attribution.h"
#include "telemetry/progress.h"
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

struct BenchOptions {
  int trials = 0;   // 0: keep the bench's default
  int threads = 0;  // 0: auto (hardware concurrency)
  harness::RunOutputs outputs;
};

// Parses the shared flags, collects timed sections, and writes the perf
// report and the requested exports in Finish().
class BenchContext {
 public:
  BenchContext(const std::string& name, int argc, char** argv) {
    report_.bench = name;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trials=", 0) == 0) {
        options_.trials = ParseIntOrDie("--trials", arg.substr(9), 1);
      } else if (arg.rfind("--threads=", 0) == 0) {
        options_.threads = ParseIntOrDie("--threads", arg.substr(10), 0);
      } else if (harness::ParseOutputFlag(arg, &options_.outputs)) {
        continue;
      } else if (arg == "--progress") {
        telemetry::EnableProgress();
      } else {
        std::cerr << "unknown argument: " << arg << "\n"
                  << "usage: " << name
                  << " [--trials=N] [--threads=N] [--json=PATH] [--trace[=PATH]]"
                     " [--metrics=PATH] [--attr[=PATH]] [--progress]\n";
        std::exit(2);
      }
    }
    if (options_.outputs.trace) telemetry::StartTracing();
    if (options_.outputs.attr) telemetry::SetAttributionEnabled(true);
  }

  const BenchOptions& options() const { return options_; }

  // The --trials override, else the bench's own count.
  int TrialsOr(int default_trials) const {
    return options_.trials > 0 ? options_.trials : default_trials;
  }

  // Records one timed section of the perf report.
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

  // Writes the perf report (and any requested trace/metrics/attribution
  // exports); call as the last statement of main().
  int Finish() {
    report_.threads = harness::ResolveThreadCount(options_.threads);
    report_.wall_seconds = total_.Seconds();
    harness::WriteRunOutputs(&report_, options_.outputs);
    return 0;
  }

 private:
  static int ParseIntOrDie(const char* flag, const std::string& value, int min_value) {
    try {
      return campaign::ParseInt(flag, value, min_value);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      std::exit(2);
    }
  }

  BenchOptions options_;
  harness::PerfReport report_;
  harness::WallTimer total_;
};

}  // namespace robustify::bench
