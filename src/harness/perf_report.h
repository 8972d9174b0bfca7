// Machine-readable perf reports (BENCH_<name>.json).
//
// Every bench emits one report via bench_common.h: wall time per timed
// section, FP ops routed through the injector, injector throughput, and —
// when a serial rerun was requested — the measured speedup vs. one thread.
// The JSON files seed the perf trajectory that later optimization PRs
// compare against.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace robustify::harness {

struct PerfSection {
  std::string name;
  double wall_seconds = 0.0;
  double faulty_flops = 0.0;        // ops through the injector (0 = not tracked)
  double injector_mops_per_sec = 0.0;
  double serial_wall_seconds = 0.0; // 0 = serial rerun not measured
  double speedup_vs_serial = 0.0;   // 0 = not measured
  // Adaptive-campaign accounting (0 = fixed-budget section, not tracked):
  // accepted trials vs. the fixed budget the same spec would have spent.
  double trials_run = 0.0;
  double trials_budget = 0.0;
  // Roofline placement (0 ceiling = not placed; bench_roofline fills these
  // from perfmodel/roofline.h).  Efficiency = kernel_gops / ceiling — the
  // host-comparable fraction of what the machine allows.
  double kernel_gops = 0.0;
  double arithmetic_intensity = 0.0;
  double roofline_ceiling_gops = 0.0;
  double roofline_efficiency = 0.0;
};

struct PerfReport {
  std::string bench;
  int threads = 1;
  double wall_seconds = 0.0;      // whole-process wall time
  std::vector<PerfSection> sections;
  // Merged telemetry counter snapshot at report time (nonzero counters
  // only; empty when telemetry is compiled out).  Exact uint64 values —
  // tools/perf_diff.py --exact-counters diffs them bit for bit.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

// Copies the nonzero counters of the current merged telemetry snapshot
// into report->counters (replacing any previous contents).
void AttachCounters(PerfReport* report);

// Writes the report as JSON, embedding the build-provenance block (git SHA,
// compiler, flags) alongside the measurements.  Throws std::runtime_error
// when the file cannot be written.
void WritePerfJson(const std::string& path, const PerfReport& report);

}  // namespace robustify::harness
