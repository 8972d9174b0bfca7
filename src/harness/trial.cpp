#include "harness/trial.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/guard.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace robustify::harness {

TrialOutcome RunSingleTrial(const TrialFn& fn, core::FaultEnvironment env,
                            int trial_index) {
  telemetry::SpanScope trial_span("trial");
  env.seed += static_cast<std::uint64_t>(trial_index);
  // Arm the guard for the whole trial (inactive guards are invisible), then
  // resolve the four-way verdict from the success flag plus the guard trips.
  // The fault session makes live sticky windows survive across every
  // injector scope the trial opens (no-op under the default model).
  core::TrialFaultScope fault_session;
  core::GuardScope guard(env.guard);
  TrialOutcome outcome = fn(env);
  outcome.verdict = core::ResolveVerdict(outcome.success);
  if (outcome.verdict == core::TrialVerdict::kDiverged) {
    telemetry::Count(telemetry::Counter::kTrialsDiverged);
  } else if (outcome.verdict == core::TrialVerdict::kBudgetExhausted) {
    telemetry::Count(telemetry::Counter::kTrialsBudgetExhausted);
  }
  return outcome;
}

TrialSummary SummarizeOutcomes(const TrialOutcome* outcomes, int count) {
  const int trials = count > 0 ? count : 0;
  TrialSummary summary;
  summary.trials = trials;
  std::vector<double> metrics;
  metrics.reserve(static_cast<std::size_t>(trials));
  double finite_sum = 0.0;
  int finite_count = 0;
  for (int t = 0; t < trials; ++t) {
    const TrialOutcome& outcome = outcomes[t];
    if (outcome.success) ++summary.successes;
    // Re-anchor the verdict on the success flag so outcomes that never
    // passed through RunSingleTrial (hand-built in tests, replayed from a
    // journal) still satisfy successes + failures == trials.
    const core::TrialVerdict verdict =
        outcome.success ? core::TrialVerdict::kSuccess
        : outcome.verdict == core::TrialVerdict::kSuccess
            ? core::TrialVerdict::kWrongResult
            : outcome.verdict;
    switch (verdict) {
      case core::TrialVerdict::kSuccess: break;
      case core::TrialVerdict::kWrongResult: ++summary.wrong_results; break;
      case core::TrialVerdict::kDiverged: ++summary.diverged; break;
      case core::TrialVerdict::kBudgetExhausted: ++summary.budget_exhausted; break;
    }
    const double metric = std::isfinite(outcome.metric)
                              ? outcome.metric
                              : std::numeric_limits<double>::infinity();
    metrics.push_back(metric);
    if (std::isfinite(metric)) {
      finite_sum += metric;
      ++finite_count;
    }
    summary.mean_faulty_flops +=
        static_cast<double>(outcome.fpu_stats.faulty_flops) / trials;
    summary.mean_faults_injected +=
        static_cast<double>(outcome.fpu_stats.faults_injected) / trials;
  }
  summary.success_rate_pct = trials > 0 ? 100.0 * summary.successes / trials : 0.0;
  if (!metrics.empty()) {
    std::sort(metrics.begin(), metrics.end());
    summary.median_metric = metrics[metrics.size() / 2];
  }
  summary.mean_metric = finite_count > 0 ? finite_sum / finite_count : 0.0;
  return summary;
}

TrialSummary SummarizeOutcomes(const std::vector<TrialOutcome>& outcomes) {
  return SummarizeOutcomes(outcomes.data(), static_cast<int>(outcomes.size()));
}

}  // namespace robustify::harness
