// E16 / Section 4.7: robust SVM training — an "intrinsically robust"
// data-fitting workload.  The paper names SVM fitting as a variational
// problem with existing stochastic gradient solvers (Pegasos); this bench
// sweeps the fault rate and reports training accuracy of the separator.
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("svm", argc, argv);
  bench::Banner(
      "Robust SVM training (Section 4.7)",
      "Section 4.7 ('Other numerical problems'); no paper figure",
      "classification accuracy is intrinsically robust: it stays near 100% "
      "at fault rates that destroy exact-output kernels, and degrades "
      "smoothly only at extreme rates");

  const campaign::CampaignSpec& spec = campaign::RegistrySpec("svm");
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const auto series = ctx.RunSweep("svm", spec, scenario);
  bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                   scenario.csv_name);
  return ctx.Finish();
}
