// E15 / Chapter 7 (future work): robustness under different fault models.
//
// The paper's evaluation fixes one bit-error distribution and one temporal
// behavior (transient single-bit upsets on arithmetic results); its
// future-work section calls for "investigating the robustness of the
// proposed methodology for different fault models".  This bench sweeps the
// full model grid — bit-position model x temporal model x op-class mask —
// at a fixed fault rate, rerunning sorting and least squares in every cell
// under the guarded trial executor (sticky models can otherwise let a
// solver grind; budget-capped trials are reported in the taxonomy column).
#include <cstdio>
#include <random>

#include "apps/configs.h"
#include "apps/least_squares.h"
#include "apps/sort_app.h"
#include "bench/bench_common.h"
#include "campaign/runner.h"
#include "core/phases.h"
#include "harness/trial.h"
#include "signal/metrics.h"

namespace {

using namespace robustify;

const char* BitModelName(faulty::BitModel model) {
  switch (model) {
    case faulty::BitModel::kBimodal: return "bimodal";
    case faulty::BitModel::kUniform: return "uniform";
    case faulty::BitModel::kMsbOnly: return "msb-only";
    case faulty::BitModel::kLsbOnly: return "lsb-only";
    default: return "?";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx("fault_model_ablation", argc, argv);
  bench::Banner(
      "Fault-model ablation (Chapter 7 future work)",
      "Chapter 7 (text): different fault models",
      "lsb-only faults are nearly free under every temporal model; sticky "
      "models (stuck-at, intermittent) and wider op-class masks (comparison "
      "and memory-load faults) degrade success beyond the transient "
      "baseline, with msb-only / uniform exponent corruption the most "
      "hostile axis");

  constexpr double kRate = 0.05;
  const int trials = ctx.TrialsOr(6);
  const std::vector<double> input{0.9, 0.1, 0.6, 0.3, 0.7};
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(100, 10, 12);

  campaign::Scenario scenario;
  scenario.series.push_back({"sort", [&input](const core::FaultEnvironment& e) {
    harness::TrialOutcome out;
    const apps::RobustSortResult r = core::WithFaultyFpu(
        e, [&] { return apps::RobustSort<faulty::Real>(input, apps::SortSgdAsSqs()); },
        &out.fpu_stats);
    out.success = r.valid && apps::IsSortedCopyOf(r.output, input);
    return out;
  }});
  scenario.series.push_back({"lsq", [&problem](const core::FaultEnvironment& e) {
    harness::TrialOutcome out;
    const linalg::Vector<double> x = core::WithFaultyFpu(
        e, [&] { return apps::SolveLsqSgd<faulty::Real>(problem, apps::LsqSgdAsLs()); },
        &out.fpu_stats);
    out.metric = signal::RelativeError(x, problem.exact);
    out.success = out.metric < 1e-2;
    return out;
  }});
  campaign::RunnerOptions runner;
  runner.threads = ctx.options().threads;
  runner.adaptive = false;

  const struct {
    faulty::Temporal temporal;
    const char* name;
  } temporals[] = {
      {faulty::Temporal::kTransient, "transient"},
      {faulty::Temporal::kStuckAt, "stuck"},
      {faulty::Temporal::kBurst, "burst"},
      {faulty::Temporal::kIntermittent, "intermittent"},
  };
  const struct {
    unsigned mask;
    const char* name;
  } op_classes[] = {
      {faulty::kOpClassArith, "arith"},
      {faulty::kOpClassDefault, "arith+cmp"},
      {faulty::kOpClassAll, "arith+cmp+mem"},
  };

  std::printf("fault rate: %.0f%% of routed ops, %d trials per cell\n\n",
              100 * kRate, trials);
  std::printf("%-10s %-13s %-14s %-9s %-10s %-13s\n", "bit model", "temporal",
              "op classes", "sort(%)", "guarded(%)", "lsq med. err");
  std::printf(
      "----------------------------------------------------------------------\n");

  for (const auto& temporal : temporals) {
    harness::WallTimer section_timer;
    double section_flops = 0.0;
    for (const auto bit_model :
         {faulty::BitModel::kBimodal, faulty::BitModel::kUniform,
          faulty::BitModel::kMsbOnly, faulty::BitModel::kLsbOnly}) {
      for (const auto& classes : op_classes) {
        // One campaign cell per series: both run trials 0..trials-1 at
        // seed 73 under this row's bit model, temporal model and classes.
        campaign::CampaignSpec spec;
        spec.fault_rates = {kRate};
        spec.fixed_trials = trials;
        spec.base_seed = 73;
        spec.bit_model = bit_model;
        spec.model.temporal = temporal.temporal;
        spec.model.op_classes = classes.mask;
        // Sticky models can hold an exponent bit down for whole solves:
        // bound each trial so every cell terminates promptly, and report
        // how often the cap (rather than a clean wrong answer) ended it.
        spec.guard.max_iterations = 20000;
        spec.guard.nonfinite_bailout = true;
        const campaign::CampaignResult result =
            campaign::RunCampaign(spec, scenario, runner);
        const harness::TrialSummary& sort_summary = result.series[0].points[0].summary;
        const harness::TrialSummary& lsq_summary = result.series[1].points[0].summary;

        section_flops += (sort_summary.mean_faulty_flops +
                          lsq_summary.mean_faulty_flops) *
                         trials;
        // Trials the guard ended (divergence bailout or budget cap) rather
        // than a clean wrong answer.
        const int guarded = sort_summary.budget_exhausted +
                            sort_summary.diverged + lsq_summary.budget_exhausted +
                            lsq_summary.diverged;
        std::printf("%-10s %-13s %-14s %-9.1f %-10.1f %-13.3e\n",
                    BitModelName(bit_model), temporal.name, classes.name,
                    sort_summary.success_rate_pct,
                    100.0 * guarded / (2.0 * trials), lsq_summary.median_metric);
      }
    }
    ctx.RecordSection(std::string("grid-") + temporal.name,
                      section_timer.Seconds(), section_flops);
  }
  return ctx.Finish();
}
