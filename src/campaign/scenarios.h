// Scenario construction: the trial functions behind every registered
// campaign app.
//
// A Scenario is the executable half of a CampaignSpec: the named TrialFns
// (one per figure series), the table presentation metadata, and ownership
// of whatever fixed problem data the trials close over (the LSQ matrix, the
// matching graph, the IIR signal...).  Every campaign surface (robustify_cli
// run/merge/query/serve, the benches, the tests) builds its series here, so
// a figure's definition lives in exactly one place.
#pragma once

#include <string>
#include <vector>

#include "campaign/spec.h"
#include "harness/trial.h"
#include "harness/table.h"

namespace robustify::campaign {

struct Scenario {
  std::string app;
  std::string title;        // sweep table heading
  std::string value_label;  // y-axis label of the figure's primary table
  harness::TableValue value = harness::TableValue::kSuccessRatePct;
  // One entry per series, in figure-legend order; each TrialFn owns (via
  // shared_ptr captures) every input it needs, so a Scenario outlives the
  // scope that built it and is safe to fan across worker threads.
  std::vector<harness::NamedTrial> series;
};

// Names of every series scenario `app` defines, in legend order.
std::vector<std::string> ScenarioSeriesNames(const std::string& app);

// Builds the scenario for spec.app, restricted (and reordered) to
// spec.series when non-empty.  Throws std::runtime_error on an unknown app
// or series name, and on a spec that sets the bit_model, model or
// op_classes of a scenario whose series set their own
// (fault_model_ablation).
Scenario BuildScenario(const CampaignSpec& spec);

}  // namespace robustify::campaign
