// E6 / Figure 6.4: success rate of bipartite matching vs fault rate.
//
// Series (paper legend): Base (Hungarian, the paper used OpenCV's solver),
// SGD,LS, SGD+AS,LS, SGD+AS,SQS — 10 000 iterations on the paper's graph
// family (11 nodes, 30 edges); success = exactly the optimal matching.
//
// The paper's headline for this figure: the plain quadratic-penalty SGD
// variants plateau *below 50%* regardless of aggressive stepping / step
// scaling — the enhancements of Figure 6.5 are needed to fix that.
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("fig6_4_matching", argc, argv);
  bench::Banner(
      "Figure 6.4 - Accuracy of Matching (10000 iterations)",
      "Section 6.1, Figure 6.4",
      "the Hungarian baseline degrades with fault rate; plain "
      "quadratic-penalty SGD shows little degradation with rate but its "
      "absolute success rate stays capped well below 100% (paper: <50%)");

  const campaign::CampaignSpec& spec = campaign::RegistrySpec("fig6_4");
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const auto series = ctx.RunSweep("matching", spec, scenario);
  bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                   scenario.csv_name);
  return ctx.Finish();
}
