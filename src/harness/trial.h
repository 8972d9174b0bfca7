// Trial primitives: run one robustness experiment at a fixed fault
// environment, summarize many runs' success rate and quality metrics, and
// the series/point shapes figures are built from.
//
// Scratch memory: the trial is the harness's unit of work, and each campaign
// worker thread runs trials back to back, so hot-path scratch is owned at
// the thread level — app kernels called inside a TrialFn draw their solver
// buffers from opt::ThreadWorkspace<T>() (see opt/workspace.h), which stays
// warm across every trial scheduled onto that worker.  After the first
// trial on a thread, a whole SGD/CGLS solve performs no heap allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/fault_env.h"

namespace robustify::harness {

struct TrialOutcome {
  bool success = false;
  double metric = 0.0;  // app-specific quality (lower is better)
  faulty::ContextStats fpu_stats;
  // Four-way outcome (core/guard.h), resolved by RunSingleTrial from the
  // success flag plus the trial's guard state.  Trial functions leave it
  // alone; with no guard configured it is simply success/wrong-result.
  core::TrialVerdict verdict = core::TrialVerdict::kWrongResult;
};

using TrialFn = std::function<TrialOutcome(const core::FaultEnvironment&)>;

struct TrialSummary {
  int trials = 0;
  int successes = 0;
  double success_rate_pct = 0.0;
  double median_metric = 0.0;  // non-finite trial metrics count as +inf
  double mean_metric = 0.0;    // mean over finite metrics only
  double mean_faulty_flops = 0.0;
  double mean_faults_injected = 0.0;
  // Failure taxonomy (counts sum with successes to trials): clean-but-wrong
  // answers, non-finite bailouts, and budget-cap trips.  All wrong_results
  // unless the trials ran under an active guard.
  int wrong_results = 0;
  int diverged = 0;
  int budget_exhausted = 0;
};

// One named trial function: a figure series.
struct NamedTrial {
  std::string name;
  TrialFn fn;
};

// One figure point (a fault rate and its summary) and one figure curve.
struct SeriesPoint {
  double fault_rate = 0.0;
  TrialSummary summary;
};

struct Series {
  std::string name;
  std::vector<SeriesPoint> points;
};

// Runs repetition `trial_index` of `fn`: env.seed = env.seed + trial_index,
// so inputs and fault sequences differ per trial but are paired across
// fault rates.  This is the unit of work the campaign runner fans out.
TrialOutcome RunSingleTrial(const TrialFn& fn, core::FaultEnvironment env,
                            int trial_index);

// Deterministic in-order reduction of per-trial outcomes (the accumulation
// order is fixed by the outcome order, never by thread scheduling).  The
// pointer+count form lets the campaign runner reduce each cell in place out
// of its preallocated outcome storage.
TrialSummary SummarizeOutcomes(const TrialOutcome* outcomes, int count);
TrialSummary SummarizeOutcomes(const std::vector<TrialOutcome>& outcomes);

}  // namespace robustify::harness
