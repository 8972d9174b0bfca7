// E10 / Section 6.2.2 (text): momentum ablation.
//
// The paper reports that a momentum of 0.5 improved sorting success by
// 20-40% relative to basic gradient descent, but gave only a marginal
// (<5%) benefit for bipartite matching.
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("momentum_ablation", argc, argv);
  bench::Banner(
      "Momentum ablation (Section 6.2.2)",
      "Section 6.2.2 (text): momentum 0.5 improves sorting success 20-40%, "
      "matching by <5%",
      "sorting gains substantially from momentum at moderate/high fault "
      "rates; matching barely moves");

  for (const auto& [label, name] :
       {std::pair<const char*, const char*>{"sort-momentum", "momentum_sort"},
        std::pair<const char*, const char*>{"matching-momentum",
                                            "momentum_matching"}}) {
    const campaign::CampaignSpec& spec = campaign::RegistrySpec(name);
    const campaign::Scenario scenario = campaign::BuildScenario(spec);
    const auto series = ctx.RunSweep(label, spec, scenario);
    bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                     scenario.csv_name);
  }
  return ctx.Finish();
}
