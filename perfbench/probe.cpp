// Kernel probe: the faulty-BLAS families the lsq solvers call, timed per
// kernel call at the workload's own problem shape, once on the clean path
// (a rate-0 injector scope) and once at the workload's highest fault rate.
// The difference, divided by the faults the injected scope reports, is
// the injector's cost per fault.
#include <random>
#include <vector>

#include "bench.h"
#include "core/fault_env.h"
#include "linalg/faulty_blas.h"

namespace perfbench {

namespace {

namespace blas = robustify::linalg::blas;
namespace core = robustify::core;

constexpr int kSamples = 1000;  // timed batches per family and mode
constexpr int kBatch = 32;      // kernel calls per timed batch

struct Timing {
  double ns_per_call = 0.0;  // median over batches
  double total_ns = 0.0;
  double calls = 0.0;
  robustify::faulty::ContextStats stats;
};

template <class Call, class Reset>
Timing TimeCalls(double rate, std::uint64_t seed, Call&& call, Reset&& reset) {
  core::FaultEnvironment env;
  env.fault_rate = rate;
  env.seed = seed;
  Timing t;
  std::vector<double> per_call;
  per_call.reserve(kSamples);
  core::WithFaultyFpu(
      env,
      [&] {
        for (int k = 0; k < kBatch; ++k) call();  // warm, untimed
        for (int s = 0; s < kSamples; ++s) {
          reset();
          const std::int64_t begin = NowNs();
          for (int k = 0; k < kBatch; ++k) call();
          const std::int64_t elapsed = NowNs() - begin;
          per_call.push_back(static_cast<double>(elapsed) / kBatch);
          t.total_ns += static_cast<double>(elapsed);
        }
      },
      &t.stats);
  t.calls = static_cast<double>(kSamples + 1) * kBatch;  // timed + warm-up
  t.ns_per_call = Median(per_call);
  return t;
}

}  // namespace

void ReportKernelProbe(std::size_t m, std::size_t n, double rate, std::uint64_t seed,
                       SpanRecorder* spans, Report* report) {
  ScopedSpan probe_span(spans, "probe");
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  const auto fill = [&](std::size_t count) {
    std::vector<double> v(count);
    for (double& x : v) x = normal(rng);
    return v;
  };
  const std::vector<double> a = fill(m * n), x = fill(n), u = fill(m), b = fill(m);
  const std::vector<double> w0 = fill(n);
  std::vector<double> y(m), g(n), w = w0;
  volatile double sink = 0.0;

  const auto no_reset = [] {};
  const auto reset_w = [&] { w = w0; };
  struct Family {
    const char* name;
    Timing clean, injected;
  };
  std::vector<Family> families;
  const auto probe = [&](const char* name, auto&& call, auto&& reset) {
    Family f{name, {}, {}};
    {
      ScopedSpan span(spans, std::string("linalg.") + name + ".clean");
      f.clean = TimeCalls(0.0, seed, call, reset);
    }
    {
      ScopedSpan span(spans, std::string("linalg.") + name + ".injected");
      f.injected = TimeCalls(rate, seed, call, reset);
    }
    families.push_back(f);
  };
  probe("dot", [&] { sink = sink + blas::DotAcc(m, 0.0, u.data(), 1, b.data(), 1); },
        no_reset);
  probe("matvec", [&] { blas::MatVecInto(m, n, a.data(), x.data(), y.data()); }, no_reset);
  probe("mattvec", [&] { blas::MatTVecInto(m, n, a.data(), u.data(), g.data()); },
        no_reset);
  probe("residual", [&] { sink = sink + blas::ResidualSsqAcc(m, 0.0, u.data(), b.data()); },
        no_reset);
  probe("axpy", [&] { blas::Axpy(n, 1e-3, x.data(), 1, w.data(), 1); }, reset_w);

  double extra_ns = 0.0, faults = 0.0;
  for (const Family& f : families) {
    const std::string prefix = std::string("linalg.blas.") + f.name + ".ns_per_op";
    report->Add(prefix + ".clean", f.clean.ns_per_call, "ns");
    report->Add(prefix + ".injected", f.injected.ns_per_call, "ns");
    const double clean_mean = f.clean.total_ns / (kSamples * kBatch);
    extra_ns += f.injected.total_ns - clean_mean * kSamples * kBatch;
    faults += static_cast<double>(f.injected.stats.faults_injected) *
              (static_cast<double>(kSamples) * kBatch / f.injected.calls);
  }
  report->Add("faulty.injector.ns_per_fault", faults > 0.0 ? extra_ns / faults : 0.0, "ns");
}

}  // namespace perfbench
