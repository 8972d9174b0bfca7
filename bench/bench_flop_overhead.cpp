// E12 / Chapter 7 (text): FLOP overhead of robustification.
//
// "We observed that the number of floating point operations required by our
// applications could be up to 10 to 1000 times higher than that for the
// baseline implementations."  This bench counts FPU operations for the
// baseline and robust implementation of every application.
#include <cstdio>
#include <functional>
#include <random>
#include <string>

#include "apps/apsp_app.h"
#include "apps/configs.h"
#include "apps/iir_app.h"
#include "apps/least_squares.h"
#include "apps/matching_app.h"
#include "apps/sort_app.h"
#include "bench/bench_common.h"
#include "core/phases.h"
#include "graph/generators.h"
#include "graph/maxflow.h"
#include "graph/shortest_paths.h"
#include "apps/maxflow_app.h"
#include "signal/signals.h"

namespace {

using namespace robustify;

template <class Fn>
double Flops(const Fn& fn) {
  core::FaultEnvironment env;  // rate 0: count, never corrupt
  faulty::ContextStats stats;
  core::WithFaultyFpu(env, fn, &stats);
  return static_cast<double>(stats.faulty_flops);
}

void Row(const char* app, double base, double robust) {
  std::printf("%-18s %-14.0f %-14.0f %-10.1fx\n", app, base, robust, robust / base);
}

// Clean-path throughput of one faulty-BLAS kernel: run `fn` (a batch of
// kernel calls on faulty::Real data) inside a rate-0 fault scope — the
// injector is live, so the block path exercises its clean-run accounting —
// and report Mops/s through the injector.
template <class Fn>
double KernelMops(bench::BenchContext& ctx, const std::string& label, const Fn& fn) {
  core::FaultEnvironment env;  // rate 0: clean path, full accounting
  faulty::ContextStats stats;
  core::WithFaultyFpu(env, fn, &stats);  // warm-up + op count
  const double flops = static_cast<double>(stats.faulty_flops);
  harness::WallTimer timer;
  constexpr int kReps = 20;
  for (int rep = 0; rep < kReps; ++rep) core::WithFaultyFpu(env, fn);
  const double seconds = timer.Seconds() / kReps;
  const double mops = seconds > 0.0 ? flops / seconds / 1e6 : 0.0;
  ctx.RecordSection(label, seconds * kReps, flops * kReps);
  return mops;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx("flop_overhead", argc, argv);
  bench::Banner(
      "FLOP overhead of robustification (Chapter 7)",
      "Chapter 7 (text): robust implementations need 10-1000x more FLOPs",
      "every robust/baseline ratio falls in roughly the 10x-1000x band");
  harness::WallTimer table_timer;

  std::printf("%-18s %-14s %-14s %-10s\n", "application", "baseline", "robust",
              "overhead");
  std::printf("------------------------------------------------------------\n");

  {
    const std::vector<double> input{0.9, 0.1, 0.6, 0.3, 0.7};
    const double base = Flops([&] { return apps::BaselineSort<faulty::Real>(input); });
    const double robust = Flops(
        [&] { return apps::RobustSort<faulty::Real>(input, apps::SortSgdAsSqs()); });
    Row("sort (n=5)", base, robust);
  }
  {
    const apps::LsqProblem p = apps::MakeRandomLsqProblem(100, 10, 11);
    const double base = Flops([&] {
      return apps::SolveLsqBaseline<faulty::Real>(p, linalg::LsqBaseline::kCholesky);
    });
    const double sgd =
        Flops([&] { return apps::SolveLsqSgd<faulty::Real>(p, apps::LsqSgdLs()); });
    const double cg =
        Flops([&] { return apps::SolveLsqCg<faulty::Real>(p, apps::LsqCg(10)); });
    Row("lsq SGD (100x10)", base, sgd);
    Row("lsq CG,N=10", base, cg);
  }
  {
    const signal::IirCoefficients coeffs = signal::MakeStableIir(5, 5, 63);
    const linalg::Vector<double> u = signal::SineMix(500, {3.0}, {1.0});
    const double base = Flops([&] { return apps::BaselineIir<faulty::Real>(coeffs, u); });
    const double robust = Flops(
        [&] { return apps::RobustIir<faulty::Real>(coeffs, u, apps::IirSgdLs()); });
    Row("iir (500 samples)", base, robust);
  }
  {
    const graph::BipartiteGraph g = graph::RandomBipartite(5, 6, 30, 3);
    const double base = Flops([&] { return apps::BaselineMatching<faulty::Real>(g); });
    const double robust = Flops([&] {
      return apps::RobustMatching<faulty::Real>(g, apps::MatchingBasicLs());
    });
    Row("matching (5x6)", base, robust);
  }
  {
    const graph::FlowNetwork net = graph::RandomFlowNetwork(6, 6, 12);
    const double base =
        Flops([&] { return graph::EdmondsKarpMaxFlow<faulty::Real>(net); });
    const double robust = Flops(
        [&] { return apps::RobustMaxFlow<faulty::Real>(net, apps::MaxFlowConfig()); });
    Row("maxflow (6 nodes)", base, robust);
  }
  {
    const graph::Digraph g = graph::RandomDigraph(5, 6, 15);
    const double base =
        Flops([&] { return graph::FloydWarshall<faulty::Real>(g); });
    const double robust =
        Flops([&] { return apps::RobustApsp<faulty::Real>(g, apps::ApspConfig()); });
    Row("apsp (5 nodes)", base, robust);
  }
  ctx.RecordSection("flop-count-table", table_timer.Seconds(), 0.0);

  // Clean-path Mops/s per faulty-BLAS kernel: the rate the sweeps run at
  // realistic fault rates, where >99.99% of ops take the clean path.
  std::printf("\nclean-path kernel throughput (Mops/s through the injector)\n");
  std::printf("%-18s %-14s\n", "kernel", "block");
  std::printf("--------------------------------\n");
  {
    const std::size_t n = 2048;
    const std::size_t rows = 192, cols = 96;
    std::mt19937_64 rng(2718);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    linalg::Vector<faulty::Real> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = faulty::Real(dist(rng));
      y[i] = faulty::Real(dist(rng));
    }
    linalg::Matrix<faulty::Real> a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) a(i, j) = faulty::Real(dist(rng));
    }
    linalg::Vector<faulty::Real> mx(cols), my(rows);
    for (std::size_t j = 0; j < cols; ++j) mx[j] = faulty::Real(dist(rng));

    struct Kernel {
      const char* name;
      std::function<void()> fn;
    };
    const Kernel kernels[] = {
        {"dot", [&] {
           faulty::Real acc(0);
           for (int r = 0; r < 200; ++r) acc += Dot(x, y);
           (void)acc;
         }},
        {"axpy", [&] {
           const faulty::Real alpha(1e-9);
           for (int r = 0; r < 200; ++r) AxpyInPlace(alpha, x, &y);
         }},
        {"matvec", [&] {
           for (int r = 0; r < 200; ++r) MatVecInto(a, mx, &my);
         }},
        {"mattvec", [&] {
           for (int r = 0; r < 200; ++r) MatTVecInto(a, my, &mx);
         }},
    };
    for (const Kernel& kernel : kernels) {
      const double block =
          KernelMops(ctx, std::string(kernel.name) + "-block", kernel.fn);
      std::printf("%-18s %-14.0f\n", kernel.name, block);
    }
  }
  return ctx.Finish();
}
