// E9 / Figure 6.7: FPU energy vs accuracy target for least squares, Cholesky
// baseline vs CG under voltage overscaling.
//
// The paper's insight: because CG tolerates FPU errors, one can "scale down
// the voltage and the number of iterations concurrently" — for every
// achievable accuracy target the CG configuration frontier costs less energy
// than running the direct Cholesky solve at the voltage it needs to stay
// correct.  Energy is the paper's axis: relative power (V^2, normalized to
// the 1.0 V nominal) times the number of FLOPs executed.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "apps/configs.h"
#include "apps/least_squares.h"
#include "bench/bench_common.h"
#include "core/phases.h"
#include "faulty/energy.h"
#include "signal/metrics.h"

namespace {

using namespace robustify;

struct Operating {
  double voltage = 1.0;
  int iterations = 0;       // CG only
  double energy = std::numeric_limits<double>::infinity();
  bool feasible = false;
};

// Overridable via --trials (clamped to >= 2: the criterion below needs the
// second-largest error).
int g_trials = 15;

// Near-worst relative error over the trials (second-largest of g_trials),
// plus mean faulty FLOPs.  The figure's operating criterion is reliability:
// a solver "meets" an accuracy target at a voltage only if essentially
// every run does — a direct solver that usually succeeds but occasionally
// emits garbage has not met it, which is precisely why it cannot be
// overscaled far.  Taking the second-largest error discards a single freak
// trial so the frontier is not dictated by one unlucky arrival-sequence
// seed.
template <class Solver>
std::pair<double, double> Measure(const Solver& solve, double fault_rate,
                                  std::uint64_t seed) {
  std::vector<double> errors;
  errors.reserve(static_cast<std::size_t>(g_trials));
  double flops = 0.0;
  for (int t = 0; t < g_trials; ++t) {
    core::FaultEnvironment env;
    env.fault_rate = fault_rate;
    env.seed = seed + static_cast<std::uint64_t>(t) * 97;
    faulty::ContextStats stats;
    const double err = core::WithFaultyFpu(env, solve, &stats);
    errors.push_back(std::isfinite(err) ? err
                                        : std::numeric_limits<double>::infinity());
    flops += static_cast<double>(stats.faulty_flops) / g_trials;
  }
  std::sort(errors.begin(), errors.end());
  return {errors[errors.size() - 2], flops};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx("fig6_7_energy", argc, argv);
  g_trials = std::max(2, ctx.TrialsOr(g_trials));
  bench::Banner(
      "Figure 6.7 - Least Squares Energy (Power * #FLOPs) vs accuracy target",
      "Section 6.3, Figure 6.7",
      "CG's energy frontier sits below the Cholesky baseline across the "
      "achievable accuracy range; the tightest targets (< ~1e-7) are not "
      "reachable by CG, as in the paper");
  harness::WallTimer frontier_timer;

  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(100, 10, 9);
  const faulty::EnergyModel energy_model;
  const faulty::VoltageModel& vm = energy_model.voltage_model();

  std::vector<double> voltages;
  for (double v = 0.60; v <= 1.0001; v += 0.025) voltages.push_back(v);

  const std::vector<double> targets = {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};

  std::printf("%-16s %-34s %-41s %-41s\n", "accuracy", "Base: Cholesky", "CG",
              "CG-NE (precomputed A^T A)");
  std::printf("%-16s %-10s %-10s %-12s %-10s %-6s %-10s %-12s %-10s %-6s %-10s %-12s\n",
              "target", "V", "flops", "energy", "V", "N", "flops", "energy", "V", "N",
              "flops", "energy");
  std::printf("-----------------------------------------------------------------------"
              "---------------------------------------------------\n");

  // The joint (iterations, voltage) frontier of one CG configuration: the
  // cheapest operating point that meets `target`, scanning each iteration
  // count's voltages from nominal downward like the Cholesky scan below.
  const auto cg_frontier = [&](opt::CgOptions (*config)(int),
                               std::uint64_t seed_base, double target) {
    Operating best;
    for (int iters = 2; iters <= 16; iters += 2) {
      for (auto vit = voltages.rbegin(); vit != voltages.rend(); ++vit) {
        const double v = *vit;
        const auto [err, flops] = Measure(
            [&] {
              return signal::RelativeError(
                  apps::SolveLsqCg<faulty::Real>(problem, config(iters)).x,
                  problem.exact);
            },
            vm.error_rate(v),
            seed_base + static_cast<std::uint64_t>(v * 1000) +
                static_cast<std::uint64_t>(iters));
        if (err > target) break;
        const double e = energy_model.energy(static_cast<std::uint64_t>(flops), v);
        if (e < best.energy) best = {v, iters, e, true};
      }
    }
    return best;
  };

  for (const double target : targets) {
    // Feasibility in voltage is monotone (more overscaling, more faults), so
    // scan from nominal downward and stop at the first failure — this avoids
    // crediting a solver with a "lucky" low-voltage cell.
    // Cholesky: its FLOP count is fixed; only voltage varies.
    Operating chol;
    for (auto vit = voltages.rbegin(); vit != voltages.rend(); ++vit) {
      const double v = *vit;
      const auto [err, flops] = Measure(
          [&] {
            return signal::RelativeError(
                apps::SolveLsqBaseline<faulty::Real>(problem,
                                                     linalg::LsqBaseline::kCholesky),
                problem.exact);
          },
          vm.error_rate(v), 1000 + static_cast<std::uint64_t>(v * 1000));
      if (err > target) break;
      {
        const double e = energy_model.energy(static_cast<std::uint64_t>(flops), v);
        if (e < chol.energy) {
          chol = {v, 0, e, true};
        }
      }
    }

    // CG, and CG-NE — the paper's iteration: G = A^T A precomputed once,
    // one n x n mat-vec per step instead of two m x n ones.
    const Operating cg = cg_frontier(apps::LsqCg, 2000, target);
    const Operating cgne = cg_frontier(apps::LsqCgNormal, 3000, target);

    std::printf("%-16.0e ", target);
    if (chol.feasible) {
      std::printf("%-10.3f %-10.0f %-12.4e ", chol.voltage,
                  chol.energy / energy_model.relative_power(chol.voltage), chol.energy);
    } else {
      std::printf("%-10s %-10s %-12s ", "-", "-", "unreachable");
    }
    if (cg.feasible) {
      std::printf("%-10.3f %-6d %-10.0f %-12.4e ", cg.voltage, cg.iterations,
                  cg.energy / energy_model.relative_power(cg.voltage), cg.energy);
    } else {
      std::printf("%-10s %-6s %-10s %-12s ", "-", "-", "-", "unreachable");
    }
    if (cgne.feasible) {
      std::printf("%-10.3f %-6d %-10.0f %-12.4e\n", cgne.voltage, cgne.iterations,
                  cgne.energy / energy_model.relative_power(cgne.voltage), cgne.energy);
    } else {
      std::printf("%-10s %-6s %-10s %-12s\n", "-", "-", "-", "unreachable");
    }
  }
  ctx.RecordSection("energy-frontier", frontier_timer.Seconds(), 0.0);
  return ctx.Finish();
}
