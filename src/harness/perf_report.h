// Machine-readable perf reports (BENCH_<name>.json) and the run epilogue.
//
// Every bench (bench/bench_common.h) and every `robustify_cli run` emits one
// report: wall time per timed section, FP ops routed through the injector,
// and injector throughput.  A serial baseline is a second run at
// --threads=1.  The JSON files seed the perf trajectory that later
// optimization PRs compare against.
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

// The output flags the benches and `robustify_cli run` share.  Empty paths
// default from the report's bench name: BENCH_<bench>.json, TRACE_<bench>.json.
struct RunOutputs {
  std::string json_path;     // --json=PATH: perf report
  bool trace = false;        // --trace[=PATH]: Chrome trace JSON
  std::string trace_path;
  std::string metrics_path;  // --metrics=PATH; empty: no export
  bool attr = false;         // --attr[=PATH]: wall-time attribution ledger
  std::string attr_path;     // empty with attr: report goes to stderr
};

// Consumes one output flag into *outputs; false when `arg` is not one.
bool ParseOutputFlag(const std::string& arg, RunOutputs* outputs);

// The run epilogue: attaches the counter snapshot to *report, then writes
// the perf JSON, the trace (also when ROBUSTIFY_TRACE=1 started it), the
// --metrics JSON and the --attr report, announcing each file on stdout.
void WriteRunOutputs(PerfReport* report, const RunOutputs& outputs);

}  // namespace robustify::harness
