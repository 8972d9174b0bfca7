// Least squares (paper Section 4.1, Figures 6.2/6.6/6.7): direct baselines
// vs the SGD and restarted-CG robustifications.
#pragma once

#include <cstdint>

#include "core/fault_env.h"
#include "linalg/lsq.h"
#include "linalg/matrix.h"
#include "linalg/tiled.h"
#include "linalg/vector.h"
#include "opt/cg.h"
#include "opt/sgd.h"
#include "opt/workspace.h"

namespace robustify::apps {

struct LsqProblem {
  linalg::Matrix<double> a;
  linalg::Vector<double> b;
  linalg::Vector<double> exact;  // the true minimizer (b = A * exact)
};

// Gaussian A (m x n, entries N(0,1)/sqrt(m)) and consistent b = A x*.
LsqProblem MakeRandomLsqProblem(std::size_t m, std::size_t n, std::uint64_t seed);

// Direct solve on the (possibly faulty) FPU; result read out as double.
template <class T>
linalg::Vector<double> SolveLsqBaseline(const LsqProblem& problem, linalg::LsqBaseline which) {
  const linalg::Matrix<T> a = linalg::Cast<T>(problem.a);
  const linalg::Vector<T> b = linalg::Cast<T>(problem.b);
  return linalg::ToDouble(linalg::SolveLsqDirect(a, b, which));
}

namespace detail {

// 0.5 * ||A x - b||^2 for the SGD engine.  The residual scratch is a
// lifetime workspace lease and A^T r lands directly in the caller's
// gradient buffer, so both evaluations are allocation-free.
template <class T>
class LsqObjective {
 public:
  LsqObjective(const linalg::Matrix<T>& a, const linalg::Vector<T>& b,
               opt::Workspace<T>* workspace)
      : a_(a), b_(b), r_lease_(workspace->Borrow(a.rows())) {}

  T Value(const linalg::Vector<T>& x) const {
    linalg::Vector<T>& ax = *r_lease_;
    MatVecInto(a_, x, &ax);
    if (linalg::detail::UseBlockKernels<T>()) {
      // Fused residual readout: one pass of (sub, mul, add) per element.
      const double acc =
          linalg::blas::ResidualSsqAcc(ax.size(), 0.0, faulty::AsDoubleArray(ax.data()),
                                       faulty::AsDoubleArray(b_.data()));
      return T(0.5) * T(acc);
    }
    T acc(0);
    for (std::size_t i = 0; i < ax.size(); ++i) {
      const T r = ax[i] - b_[i];
      acc += r * r;
    }
    return T(0.5) * acc;
  }

  void Gradient(const linalg::Vector<T>& x, linalg::Vector<T>* g) const {
    linalg::Vector<T>& r = *r_lease_;
    MatVecInto(a_, x, &r);
    SubInPlace(b_, &r);
    MatTVecInto(a_, r, g);
  }

  void SetPenaltyScale(double) {}

 private:
  const linalg::Matrix<T>& a_;
  const linalg::Vector<T>& b_;
  // A·x / residual scratch (rows-sized), shared by Value and Gradient and
  // held for the objective's lifetime; both methods are const, it is not.
  mutable typename opt::Workspace<T>::Lease r_lease_;
};

}  // namespace detail

template <class T>
linalg::Vector<double> SolveLsqSgd(const LsqProblem& problem, const opt::SgdOptions& options,
                                   opt::Workspace<T>* workspace = nullptr) {
  opt::Workspace<T>& ws =
      workspace != nullptr ? *workspace : opt::ThreadWorkspace<T>();
  const linalg::Matrix<T> a = linalg::Cast<T>(problem.a);
  const linalg::Vector<T> b = linalg::Cast<T>(problem.b);
  detail::LsqObjective<T> objective(a, b, &ws);
  linalg::Vector<T> x(problem.a.cols());
  x = opt::MinimizeSgd(objective, std::move(x), options, &ws);
  return linalg::ToDouble(x);
}

template <class T>
opt::CgResult SolveLsqCg(const LsqProblem& problem, const opt::CgOptions& options,
                         opt::Workspace<T>* workspace = nullptr) {
  const linalg::Matrix<T> a = linalg::Cast<T>(problem.a);
  const linalg::Vector<T> b = linalg::Cast<T>(problem.b);
  return opt::SolveCgls(a, b, options, workspace);
}

// Per-solve fault configuration for the tiled engine, built from a trial's
// FaultEnvironment — the same injector a WithFaultyFpu scope would build
// (shared bit tables, model, test-oracle strategy and engine).
inline linalg::TileFaultConfig TileConfigFromEnv(const core::FaultEnvironment& env) {
  linalg::TileFaultConfig cfg;
  cfg.inject = env.fault_rate > 0.0;
  cfg.fault_rate = env.fault_rate;
  cfg.bits = &faulty::SharedBitDistribution(env.bit_model);
  cfg.seed = env.seed;
  cfg.strategy = env.strategy;
  cfg.engine = env.engine;
  cfg.model = env.model;
  return cfg;
}

// Tiled direct baselines (linalg/tiled.h).  Unlike the monolithic
// SolveLsqBaseline these are called OUTSIDE WithFaultyFpu: every tile task
// runs its own deterministically-seeded injector, and the summed per-task
// stats come back through *stats (and the telemetry counters) so trial CSVs
// report faults exactly like the scoped kernels do.  kSvd has no tiled
// form; it falls back on Cholesky.
template <class T>
linalg::Vector<double> SolveLsqTiled(const LsqProblem& problem,
                                     linalg::LsqBaseline which,
                                     const linalg::TiledOptions& options,
                                     faulty::ContextStats* stats = nullptr) {
  thread_local linalg::TiledLsqEngine<T> engine;
  linalg::Vector<double> x;
  faulty::ContextStats local;
  if (which == linalg::LsqBaseline::kQr) {
    engine.SolveQr(problem.a, problem.b, options, &x, &local);
  } else {
    engine.SolveCholesky(problem.a, problem.b, options, &x, &local);
  }
  if (stats) *stats = local;
  core::detail::CountScopeTelemetry(local);
  return x;
}

}  // namespace robustify::apps
