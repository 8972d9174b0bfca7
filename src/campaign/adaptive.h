// Sequential CI-driven trial allocation for one campaign cell.
//
// A (series, fault-rate) cell of a success-rate sweep settles statistically
// long before a generous fixed budget is spent — a rate-0 cell succeeds
// every time, a far-past-the-cliff cell fails every time, and only cells on
// the figure's transition need many trials.  The controller implements a
// sequential stopping rule on the Wilson 95% score interval of the success
// fraction: scanning trial outcomes in seed order, a cell stops at the
// first trial count n >= min_trials whose interval half-width is <= the
// target (or at the budget cap).
//
// Determinism contract: the stopping point is a pure function of the
// outcome sequence in trial-index order, and trial t of a cell always runs
// with seed base_seed + t (harness::RunSingleTrial).  Batch size and thread
// count only decide how much speculative work is in flight when the rule
// fires — trials past the stopping point are discarded, never tallied — so
// a cell's accepted outcome set is bit-identical for every execution
// schedule, and an adaptive cell is always an exact prefix of the fixed
// sweep at the same seed.
//
// The certain horizon (CertainHorizon) is what lets an executor run trials
// of one cell in parallel without speculating: given the outcomes accepted
// so far, it is the first trial count at which the rule could fire for
// *some* continuation, capped at max_trials.  Every trial below it runs in
// every serial schedule, whatever the pending outcomes turn out to be.
#pragma once

namespace robustify::campaign {

struct AdaptiveConfig {
  int min_trials = 4;   // floor before the stopping rule may fire
  int max_trials = 100; // budget cap per cell
  double ci_half_width = 0.15;  // target Wilson 95% half-width (fraction)
};

// Half-width of the Wilson 95% score interval for `successes` out of
// `trials`.  Returns +inf for trials == 0 (no information).
double WilsonHalfWidth(int successes, int trials);

// Feeds outcomes one at a time, in trial-index order, and reports when the
// stopping rule fires.  Record() must not be called once done().
class CellController {
 public:
  explicit CellController(const AdaptiveConfig& config);

  // Index of the next trial to run (= outcomes recorded so far).
  int next_trial() const { return trials_; }
  int trials() const { return trials_; }
  int successes() const { return successes_; }
  bool done() const { return done_; }
  // True when done() fired because the interval met the target (rather
  // than the budget running out).
  bool settled() const { return settled_; }
  // The configuration in force, after clamping (min_trials >= 1,
  // max_trials >= min_trials).
  const AdaptiveConfig& config() const { return config_; }

  void Record(bool success);

  // The first trial count n > trials() at which Record()'s stopping test
  // could pass for some continuation of the accepted outcomes (some count
  // of successes among the next n - trials() trials), capped at
  // max_trials; trials() once done().  Trials trials() .. horizon - 1 run
  // in every serial schedule.  When the rule cannot fire early
  // (min_trials == max_trials, or ci_half_width <= 0) it is max_trials.
  //
  // The horizon never decreases as outcomes are accepted: the
  // continuations of a longer prefix are a subset of those of a shorter
  // one, so the earliest possible firing point can only move later (and
  // the point where the rule does fire is one of them).  The scan
  // therefore resumes from the last answer: over a cell's whole run it
  // visits each trial count once, and a call between Record()s is O(1).
  int CertainHorizon();

 private:
  // True when Record()'s test could pass at trial count n >= trials().
  bool CouldFireAt(int n) const;

  AdaptiveConfig config_;
  int trials_ = 0;
  int successes_ = 0;
  bool done_ = false;
  bool settled_ = false;
  int horizon_ = 0;  // last CertainHorizon() answer
};

}  // namespace robustify::campaign
