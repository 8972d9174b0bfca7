// E3 / Figure 6.1: success rate of sorting as a function of fault rate.
//
// Series (paper legend): Base (comparison sort), SGD (plain, linear step
// scaling), SGD+AS,LS and SGD+AS,SQS — 10 000 descent iterations, 5-element
// arrays, success = entire array sorted exactly (NaN or mis-order = failure).
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("fig6_1_sort", argc, argv);
  bench::Banner(
      "Figure 6.1 - Accuracy of Sort (10000 iterations)",
      "Section 6.1, Figure 6.1",
      "Base collapses as fault rate grows; SGD with linear scaling (LS) "
      "performs poorly; sqrt scaling (SQS) keeps success high even at large "
      "fault rates");

  const campaign::CampaignSpec& spec = campaign::RegistrySpec("fig6_1");
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const auto series = ctx.RunSweep("sort", spec, scenario);
  bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                   scenario.csv_name);
  return ctx.Finish();
}
