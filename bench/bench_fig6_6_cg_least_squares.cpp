// E8 / Figure 6.6: accuracy of CG-based least squares (10 iterations) vs the
// QR / SVD / Cholesky direct baselines, as a function of fault rate.
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("fig6_6_cg_least_squares", argc, argv);
  bench::Banner(
      "Figure 6.6 - Accuracy of Least Squares, CG N=10 vs direct baselines",
      "Section 6.3, Figure 6.6 (lower is better)",
      "all three direct solvers collapse as the fault rate rises; 10 "
      "iterations of restarted CG track the exact answer to much higher "
      "rates (SVD is the most accurate baseline at rate ~0)");

  const campaign::CampaignSpec& spec = campaign::RegistrySpec("fig6_6");
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const auto series = ctx.RunSweep("cg-lsq", spec, scenario);
  bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                   scenario.csv_name);
  return ctx.Finish();
}
