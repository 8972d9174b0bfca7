// E4 / Figure 6.2: relative error of least squares vs fault rate.
//
// Series (paper legend): Base:SVD, SGD,LS, SGD+AS,LS — 1000 iterations,
// A is 100x10, b is 100x1; quality = relative error w.r.t. the exact
// solution computed offline.  The paper notes that SQS "results in errors
// larger than 1.0"; an SGD,SQS series is included to show that too.
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("fig6_2_least_squares", argc, argv);
  bench::Banner(
      "Figure 6.2 - Accuracy of Least Squares (1000 iterations)",
      "Section 6.1, Figure 6.2 (lower is better)",
      "Base:SVD is disastrously unstable under faults; SGD with linear "
      "scaling stays accurate (paper: within 1e-6% with AS at low rates); "
      "sqrt scaling gives errors larger than 1.0 on this problem");

  const campaign::CampaignSpec& spec = campaign::RegistrySpec("fig6_2");
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const auto series = ctx.RunSweep("lsq", spec, scenario);
  bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                   scenario.csv_name);
  bench::EmitSweep("Accuracy of Least Squares - success rate (rel. error < 1e-2)",
                   series, harness::TableValue::kSuccessRatePct, "success rate (%)",
                   "fig6_2_least_squares_success.csv");
  return ctx.Finish();
}
