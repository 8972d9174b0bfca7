// Fixed-budget sweeps through the campaign runner, for tests that drive
// hand-written trial functions over a fault-rate axis.
#pragma once

#include <utility>
#include <vector>

#include "campaign/runner.h"
#include "harness/trial.h"

namespace robustify::test {

// Runs every trial function at every rate of `spec`, spec.fixed_trials
// trials per cell (adaptive off, no journal), on `threads` workers
// (0 = auto).
inline std::vector<harness::Series> RunFixedSweep(
    const campaign::CampaignSpec& spec, std::vector<harness::NamedTrial> trials,
    int threads = 0) {
  campaign::Scenario scenario;
  scenario.series = std::move(trials);
  campaign::RunnerOptions options;
  options.threads = threads;
  options.adaptive = false;
  return campaign::RunCampaign(spec, scenario, options).series;
}

}  // namespace robustify::test
