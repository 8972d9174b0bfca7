// Block-kernel equivalence: the faulty-BLAS bulk kernels must be
// observationally identical to per-scalar code.
//
// The contract (src/linalg/faulty_blas.h): for a fixed (seed, rate, model),
// a solve on faulty::Real — whose kernels run in bulk — and the same solve
// on the per-scalar oracle type oracle::ScalarReal (tests/oracle/) execute
// the same IEEE-754 op sequence and consume the injector RNG at the same op
// positions, so every trial result is bit-identical and the flop/fault
// accounting matches exactly.  These tests hold each dispatched kernel
// family to that, and the sweep harness to byte-identical CSVs across the
// two types at rates spanning "no faults" to "fault every ~4 ops".
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "apps/configs.h"
#include "apps/eigen_app.h"
#include "apps/iir_app.h"
#include "apps/least_squares.h"
#include "apps/svm_app.h"
#include "core/fault_env.h"
#include "faulty/fault_injector.h"
#include "faulty/gap_sampler.h"
#include "fixed_sweep.h"
#include "harness/csv.h"
#include "harness/trial.h"
#include "linalg/faulty_blas.h"
#include "linalg/lsq.h"
#include "opt/cg.h"
#include "oracle/per_scalar.h"
#include "opt/workspace.h"
#include "signal/signals.h"
#include "telemetry/telemetry.h"

namespace {

using namespace robustify;
using oracle::ScalarReal;

// What one engine run leaves behind besides its result: the scope's
// flop/fault accounting and the exact telemetry that depends only on the
// fault stream — the clean-run histogram (one observation per fault) and
// the gap-draw counters (one per gap sample).
struct EngineStats {
  faulty::ContextStats fpu;
  std::uint64_t gap_draws_table = 0;
  std::uint64_t gap_draws_invcdf = 0;
  std::uint64_t clean_run[telemetry::kHistogramBuckets] = {};
};

// Runs `solve(T{})` — a solve on scalar type T — under a fault scope,
// returning the result; the scope's accounting and telemetry deltas land in
// *stats.
template <class T, class Solve>
auto RunEngine(double rate, std::uint64_t seed, const Solve& solve, EngineStats* stats,
               const faulty::FaultModel& model = faulty::FaultModel()) {
  core::FaultEnvironment env;
  env.fault_rate = rate;
  env.seed = seed;
  env.model = model;
  const telemetry::CounterSnapshot before = telemetry::SnapshotCounters();
  auto result = core::WithFaultyFpu(env, [&] { return solve(T{}); }, &stats->fpu);
  const telemetry::CounterSnapshot after = telemetry::SnapshotCounters();
  stats->gap_draws_table = after.value(telemetry::Counter::kGapDrawsTable) -
                           before.value(telemetry::Counter::kGapDrawsTable);
  stats->gap_draws_invcdf = after.value(telemetry::Counter::kGapDrawsInvCdf) -
                            before.value(telemetry::Counter::kGapDrawsInvCdf);
  const int h = static_cast<int>(telemetry::Histogram::kInjectorCleanRun);
  for (int b = 0; b < telemetry::kHistogramBuckets; ++b) {
    stats->clean_run[b] = after.histograms[h][b] - before.histograms[h][b];
  }
  return result;
}

// The two types must agree on everything the fault stream determines.
void ExpectSameAccounting(const EngineStats& scalar, const EngineStats& block,
                          double rate) {
  EXPECT_EQ(scalar.fpu.faulty_flops, block.fpu.faulty_flops) << "rate " << rate;
  EXPECT_EQ(scalar.fpu.faults_injected, block.fpu.faults_injected) << "rate " << rate;
  EXPECT_EQ(scalar.gap_draws_table, block.gap_draws_table) << "rate " << rate;
  EXPECT_EQ(scalar.gap_draws_invcdf, block.gap_draws_invcdf) << "rate " << rate;
  for (int b = 0; b < telemetry::kHistogramBuckets; ++b) {
    EXPECT_EQ(scalar.clean_run[b], block.clean_run[b])
        << "clean-run bucket " << b << ", rate " << rate;
  }
}

// Bitwise comparison of double vectors (faults produce NaNs; EXPECT_EQ on
// doubles would treat those as unequal-to-themselves).
void ExpectBitEqual(const linalg::Vector<double>& a, const linalg::Vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, &a[i], sizeof(wa));
    std::memcpy(&wb, &b[i], sizeof(wb));
    EXPECT_EQ(wa, wb) << what << " differs at [" << i << "]";
  }
}

const double kRates[] = {0.0, 1e-5, 1e-3, 0.05, 0.1, 0.25, 1.0};

// Every dispatched solver stack end to end: SGD least squares (matvec +
// fused residual objective), with TMR voting and adaptive acceptance so the
// Value path runs too.
TEST(BlockEngine, LsqSgdBitIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(23, 7, 11);
  opt::SgdOptions options = apps::LsqSgdAsLs();
  options.iterations = 120;
  const auto solve = [&](auto t) { return apps::SolveLsqSgd<decltype(t)>(problem, options); };
  for (const double rate : kRates) {
    EngineStats scalar_stats, block_stats;
    const linalg::Vector<double> scalar = RunEngine<ScalarReal>(rate, 77, solve, &scalar_stats);
    const linalg::Vector<double> block = RunEngine<faulty::Real>(rate, 77, solve, &block_stats);
    ExpectBitEqual(scalar, block, "lsq sgd");
    ExpectSameAccounting(scalar_stats, block_stats, rate);
  }
}

TEST(BlockEngine, CglsBitIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(23, 7, 13);
  opt::CgOptions options;
  options.iterations = 12;
  options.restart_every = 4;
  const auto solve = [&](auto t) { return apps::SolveLsqCg<decltype(t)>(problem, options); };
  for (const double rate : kRates) {
    EngineStats scalar_stats, block_stats;
    const opt::CgResult scalar = RunEngine<ScalarReal>(rate, 91, solve, &scalar_stats);
    const opt::CgResult block = RunEngine<faulty::Real>(rate, 91, solve, &block_stats);
    ExpectBitEqual(scalar.x, block.x, "cgls");
    EXPECT_EQ(scalar.iterations, block.iterations);
    std::uint64_t ra, rb;
    std::memcpy(&ra, &scalar.residual_norm, sizeof(ra));
    std::memcpy(&rb, &block.residual_norm, sizeof(rb));
    EXPECT_EQ(ra, rb) << "residual norm, rate " << rate;
    ExpectSameAccounting(scalar_stats, block_stats, rate);
  }
}

// The strided kernels under the direct baselines (QR / Jacobi SVD /
// Cholesky: DotAcc[Neg], Axpy/Axmy, Rot, JacobiDots).  From rate 0.1 on
// the direct solves drown in NaNs, and when two NaNs meet in an op, x86
// returns the payload of whichever operand the compiler made the
// destination — an order neither kernel path pins (README: the determinism
// caveat on propagated NaNs).  A later fault can then flip the payloads
// into different infinities or finite values, so at those rates only the
// fault stream and its accounting must match exactly.
TEST(BlockEngine, DirectBaselinesBitIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(19, 6, 17);
  for (const auto which : {linalg::LsqBaseline::kQr, linalg::LsqBaseline::kSvd,
                           linalg::LsqBaseline::kCholesky}) {
    const auto solve = [&](auto t) {
      return apps::SolveLsqBaseline<decltype(t)>(problem, which);
    };
    for (const double rate : kRates) {
      EngineStats scalar_stats, block_stats;
      const linalg::Vector<double> scalar = RunEngine<ScalarReal>(rate, 29, solve, &scalar_stats);
      const linalg::Vector<double> block = RunEngine<faulty::Real>(rate, 29, solve, &block_stats);
      if (rate < 0.1) ExpectBitEqual(scalar, block, "direct baseline");
      ExpectSameAccounting(scalar_stats, block_stats, rate);
    }
  }
}

// The banded IIR kernels (ramp-up, steady region, ramp-down tail).
TEST(BlockEngine, IirBitIdenticalAcrossEngines) {
  const signal::IirCoefficients coeffs = signal::MakeStableIir(4, 4, 5);
  const linalg::Vector<double> input = signal::SineMix(64, {3.0, 7.0}, {1.0, 0.4});
  opt::SgdOptions options = apps::IirSgdLs();
  options.iterations = 60;
  const auto solve = [&](auto t) {
    return apps::RobustIir<decltype(t)>(coeffs, input, options);
  };
  for (const double rate : kRates) {
    EngineStats scalar_stats, block_stats;
    const linalg::Vector<double> scalar = RunEngine<ScalarReal>(rate, 41, solve, &scalar_stats);
    const linalg::Vector<double> block = RunEngine<faulty::Real>(rate, 41, solve, &block_stats);
    ExpectBitEqual(scalar, block, "iir");
    ExpectSameAccounting(scalar_stats, block_stats, rate);
  }
}

// The SVM kernels (DotAcc margins, Scal regularizer, SubScaled2 rows) plus
// the faulty comparisons in the accuracy readout.
TEST(BlockEngine, SvmBitIdenticalAcrossEngines) {
  const apps::SvmDataset data = apps::MakeBlobsDataset(20, 5, 2.0, 3);
  opt::SgdOptions options;
  options.iterations = 80;
  options.base_step = 0.5;
  options.scaling = opt::StepScaling::kLinear;
  const auto solve = [&](auto t) { return apps::TrainSvm<decltype(t)>(data, 0.01, options); };
  for (const double rate : kRates) {
    EngineStats scalar_stats, block_stats;
    const apps::SvmResult scalar = RunEngine<ScalarReal>(rate, 53, solve, &scalar_stats);
    const apps::SvmResult block = RunEngine<faulty::Real>(rate, 53, solve, &block_stats);
    ExpectBitEqual(scalar.w, block.w, "svm weights");
    EXPECT_EQ(scalar.train_accuracy, block.train_accuracy);
    ExpectSameAccounting(scalar_stats, block_stats, rate);
  }
}

// Rayleigh power ascent (Dot, Axpy/Axmy, DivScal, MatVec, Norm).
TEST(BlockEngine, EigenBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t n = 12;
  linalg::Matrix<double> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      a(i, j) = dist(rng);
      a(j, i) = a(i, j);
    }
  }
  apps::RayleighOptions options;
  options.iterations = 40;
  const auto solve = [&](auto t) {
    return apps::TopEigenpairsRayleigh<decltype(t)>(a, 2, options);
  };
  for (const double rate : kRates) {
    EngineStats scalar_stats, block_stats;
    const auto scalar = RunEngine<ScalarReal>(rate, 67, solve, &scalar_stats);
    const auto block = RunEngine<faulty::Real>(rate, 67, solve, &block_stats);
    ASSERT_EQ(scalar.size(), block.size());
    for (std::size_t p = 0; p < scalar.size(); ++p) {
      std::uint64_t va, vb;
      std::memcpy(&va, &scalar[p].value, sizeof(va));
      std::memcpy(&vb, &block[p].value, sizeof(vb));
      EXPECT_EQ(va, vb) << "eigenvalue " << p << " rate " << rate;
      ExpectBitEqual(scalar[p].vector, block[p].vector, "eigenvector");
    }
    ExpectSameAccounting(scalar_stats, block_stats, rate);
  }
}

// Without a fault schedule to hand out — under a non-default fault model —
// the block kernels run the stretch the countdown guarantees clean in bulk
// and step each element that holds a fault op by op through Execute (the
// boundary path).  Burst faults flip several adjacent bits but schedule
// exactly like transient ones, so the solve and its accounting must still
// match the per-scalar run bit for bit.
TEST(BlockEngine, BoundaryPathBitIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(17, 5, 19);
  opt::SgdOptions options = apps::LsqSgdLs();
  options.iterations = 60;
  faulty::FaultModel burst;
  burst.temporal = faulty::Temporal::kBurst;
  const auto solve = [&](auto t) { return apps::SolveLsqSgd<decltype(t)>(problem, options); };
  for (const double rate : {1e-3, 0.05}) {
    EngineStats scalar_stats, block_stats;
    const linalg::Vector<double> scalar =
        RunEngine<ScalarReal>(rate, 101, solve, &scalar_stats, burst);
    const linalg::Vector<double> block =
        RunEngine<faulty::Real>(rate, 101, solve, &block_stats, burst);
    ExpectBitEqual(scalar, block, "boundary path");
    ExpectSameAccounting(scalar_stats, block_stats, rate);
    EXPECT_GT(block_stats.fpu.faults_injected, 0u) << "rate " << rate;
  }
}

// --- sweep-level golden CSVs -------------------------------------------------

template <class T>
harness::TrialFn LsqSgdTrial(const apps::LsqProblem* problem) {
  return [problem](const core::FaultEnvironment& env) {
    opt::SgdOptions options = apps::LsqSgdAsLs();
    options.iterations = 100;
    harness::TrialOutcome out;
    const linalg::Vector<double> x = core::WithFaultyFpu(
        env, [&] { return apps::SolveLsqSgd<T>(*problem, options); }, &out.fpu_stats);
    out.metric = linalg::AsDouble(Norm(x));
    out.success = std::isfinite(out.metric);
    return out;
  };
}

template <class T>
harness::TrialFn CglsTrial(const apps::LsqProblem* problem) {
  return [problem](const core::FaultEnvironment& env) {
    opt::CgOptions options;
    options.iterations = 10;
    options.restart_every = 5;
    harness::TrialOutcome out;
    const opt::CgResult r = core::WithFaultyFpu(
        env, [&] { return apps::SolveLsqCg<T>(*problem, options); }, &out.fpu_stats);
    out.metric = r.residual_norm;
    out.success = std::isfinite(out.metric);
    return out;
  };
}

std::string SweepCsvBytes(const std::vector<harness::NamedTrial>& trials,
                          const std::string& tag) {
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0, 1e-5, 1e-3, 0.05, 0.1, 0.25};
  spec.fixed_trials = 5;
  spec.base_seed = 71;
  const auto series = test::RunFixedSweep(spec, trials, 1);
  const std::string path = ::testing::TempDir() + "/robustify_engine_" + tag + ".csv";
  harness::WriteSweepCsv(path, series);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

// The headline guarantee: whole sweep CSVs (success rates, median metrics,
// mean flop counts) are byte-identical between the two types at every rate.
TEST(BlockEngine, GoldenSweepCsvByteIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(23, 7, 5);
  const std::string scalar = SweepCsvBytes(
      {{"SGD+AS,LS", LsqSgdTrial<ScalarReal>(&problem)},
       {"CG,N=10", CglsTrial<ScalarReal>(&problem)}},
      "scalar");
  const std::string block = SweepCsvBytes(
      {{"SGD+AS,LS", LsqSgdTrial<faulty::Real>(&problem)},
       {"CG,N=10", CglsTrial<faulty::Real>(&problem)}},
      "block");
  EXPECT_FALSE(scalar.empty());
  EXPECT_EQ(scalar, block);
}

// --- fault-mask windows --------------------------------------------------------
//
// The block kernels apply faults as XOR masks in windows of
// blas::kMaskWindowOps ops, each opening at the element that holds the next
// fault.  Every kernel family below runs one call several windows long at
// rates 0.1 and 0.25, once through the faulty-BLAS kernel and once as a
// per-scalar oracle loop written in the kernel's documented op order,
// under identical injectors.  Half the seeds are steered (by consuming the
// clean ops before the first fault modulo the element width) so the first
// window opens on a faulting first op, and the test requires that some
// seed also puts a fault on the last op of a full window.  Faults flip only
// the low 12 bits (BitModel::kLsbOnly): every value stays finite, so no
// NaN meets another NaN and the comparison can stay bitwise (see
// DirectBaselinesBitIdenticalAcrossEngines; NanMeetsNanKeepsAddOperandOrder
// pins the matrix kernels' add order where NaNs do meet).  Where a fault
// lands, and how many RNG words it takes, does not depend on the bit model.

namespace blas = linalg::blas;
using Doubles = std::vector<double>;
using Real = oracle::ScalarReal;

Doubles Fill(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Doubles v(count);
  for (double& x : v) x = dist(rng);
  return v;
}

// Elements per mask window for a kernel of `ops` ops per element.
constexpr std::size_t Window(std::uint64_t ops) {
  return static_cast<std::size_t>(blas::kMaskWindowOps / ops);
}

// Element count of a call a little over three windows long.
constexpr std::size_t CallLength(std::uint64_t ops) { return 3 * Window(ops) + 5; }

// Matrix kernels: 7 columns, so windows open and close mid-row.
constexpr std::size_t kCols = 7;
constexpr std::size_t kRows = 3 * Window(2) / kCols + 2;
constexpr std::size_t kIirTaps = 3;

// Per-scalar references for the matrix kernels, in their documented op
// order: MatVec row by row (mul, add per column), MatTVec row by row
// updating every column's running sum.
Doubles ScalarMatVec(std::size_t m, std::size_t n, const Doubles& a, const Doubles& x) {
  Doubles y(m);
  for (std::size_t r = 0; r < m; ++r) {
    Real acc(0.0);
    for (std::size_t j = 0; j < n; ++j) acc = acc + Real(a[r * n + j]) * Real(x[j]);
    y[r] = acc.value();
  }
  return y;
}

Doubles ScalarMatTVec(std::size_t m, std::size_t n, const Doubles& a, const Doubles& x) {
  Doubles y(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      y[j] = (Real(y[j]) + Real(a[r * n + j]) * Real(x[r])).value();
    }
  }
  return y;
}

struct MaskedFamily {
  const char* name;
  std::uint64_t ops;      // faulty ops per element; 0 = varies (no steering)
  std::size_t elements;   // elements in the call
  // The call through the blas kernel (block) or the per-scalar reference,
  // returning every output word.
  Doubles (*run)(bool block);
};

const MaskedFamily kMaskedFamilies[] = {
    {"DotAcc", 2, CallLength(2),
     [](bool block) {
       const std::size_t n = CallLength(2);
       const Doubles x = Fill(n, 1), y = Fill(n, 2);
       if (block) return Doubles{blas::DotAcc(n, 0.25, x.data(), 1, y.data(), 1)};
       Real acc(0.25);
       for (std::size_t i = 0; i < n; ++i) acc = acc + Real(x[i]) * Real(y[i]);
       return Doubles{acc.value()};
     }},
    {"DotAccStrided", 2, CallLength(2),
     [](bool block) {
       const std::size_t n = CallLength(2);
       const Doubles x = Fill(2 * n, 1), y = Fill(3 * n, 2);
       if (block) return Doubles{blas::DotAcc(n, 0.25, x.data(), 2, y.data(), 3)};
       Real acc(0.25);
       for (std::size_t i = 0; i < n; ++i) acc = acc + Real(x[2 * i]) * Real(y[3 * i]);
       return Doubles{acc.value()};
     }},
    {"DotAccNeg", 2, CallLength(2),
     [](bool block) {
       const std::size_t n = CallLength(2);
       const Doubles x = Fill(n, 1), y = Fill(n, 2);
       if (block) return Doubles{blas::DotAccNeg(n, 0.25, x.data(), 1, y.data(), 1)};
       Real acc(0.25);
       for (std::size_t i = 0; i < n; ++i) acc = acc - Real(x[i]) * Real(y[i]);
       return Doubles{acc.value()};
     }},
    {"Axpy", 2, CallLength(2),
     [](bool block) {
       const std::size_t n = CallLength(2);
       const Doubles x = Fill(n, 1);
       Doubles y = Fill(n, 2);
       if (block) {
         blas::Axpy(n, 0.7, x.data(), 1, y.data(), 1);
         return y;
       }
       for (std::size_t i = 0; i < n; ++i) {
         const Real t = Real(0.7) * Real(x[i]);
         y[i] = (Real(y[i]) + t).value();
       }
       return y;
     }},
    {"Axmy", 2, CallLength(2),
     [](bool block) {
       const std::size_t n = CallLength(2);
       const Doubles x = Fill(n, 1);
       Doubles y = Fill(n, 2);
       if (block) {
         blas::Axmy(n, 0.7, x.data(), 1, y.data(), 1);
         return y;
       }
       for (std::size_t i = 0; i < n; ++i) {
         const Real t = Real(0.7) * Real(x[i]);
         y[i] = (Real(y[i]) - t).value();
       }
       return y;
     }},
    {"Scal", 1, CallLength(1),
     [](bool block) {
       const std::size_t n = CallLength(1);
       Doubles x = Fill(n, 1);
       if (block) {
         blas::Scal(n, 1.5, x.data());
         return x;
       }
       for (std::size_t i = 0; i < n; ++i) x[i] = (Real(x[i]) * Real(1.5)).value();
       return x;
     }},
    {"DivScal", 1, CallLength(1),
     [](bool block) {
       const std::size_t n = CallLength(1);
       Doubles x = Fill(n, 1);
       if (block) {
         blas::DivScal(n, 1.5, x.data());
         return x;
       }
       for (std::size_t i = 0; i < n; ++i) x[i] = (Real(x[i]) / Real(1.5)).value();
       return x;
     }},
    {"Sub", 1, CallLength(1),
     [](bool block) {
       const std::size_t n = CallLength(1);
       const Doubles x = Fill(n, 1);
       Doubles y = Fill(n, 2);
       if (block) {
         blas::Sub(n, x.data(), y.data());
         return y;
       }
       for (std::size_t i = 0; i < n; ++i) y[i] = (Real(y[i]) - Real(x[i])).value();
       return y;
     }},
    {"Xpby", 2, CallLength(2),
     [](bool block) {
       const std::size_t n = CallLength(2);
       const Doubles s = Fill(n, 1);
       Doubles p = Fill(n, 2);
       if (block) {
         blas::Xpby(n, s.data(), 0.6, p.data());
         return p;
       }
       for (std::size_t i = 0; i < n; ++i) {
         const Real t = Real(0.6) * Real(p[i]);
         p[i] = (Real(s[i]) + t).value();
       }
       return p;
     }},
    {"Nrm2", 2, CallLength(2),
     [](bool block) {
       const std::size_t n = CallLength(2);
       const Doubles x = Fill(n, 1);
       if (block) return Doubles{blas::Nrm2(n, x.data())};
       Real acc(0.0);
       for (std::size_t i = 0; i < n; ++i) acc = acc + Real(x[i]) * Real(x[i]);
       return Doubles{sqrt(acc).value()};
     }},
    {"MatVecInto", 2, kRows * kCols,
     [](bool block) {
       const Doubles a = Fill(kRows * kCols, 1), x = Fill(kCols, 2);
       Doubles y(kRows, -1.0);
       if (!block) return ScalarMatVec(kRows, kCols, a, x);
       blas::MatVecInto(kRows, kCols, a.data(), x.data(), y.data());
       return y;
     }},
    {"MatTVecInto", 2, kRows * kCols,
     [](bool block) {
       const Doubles a = Fill(kRows * kCols, 1), x = Fill(kRows, 2);
       Doubles y(kCols, -1.0);
       if (!block) return ScalarMatTVec(kRows, kCols, a, x);
       blas::MatTVecInto(kRows, kCols, a.data(), x.data(), y.data());
       return y;
     }},
    {"ResidualSsqAcc", 3, CallLength(3),
     [](bool block) {
       const std::size_t n = CallLength(3);
       const Doubles ax = Fill(n, 1), b = Fill(n, 2);
       if (block) return Doubles{blas::ResidualSsqAcc(n, 0.5, ax.data(), b.data())};
       Real acc(0.5);
       for (std::size_t i = 0; i < n; ++i) {
         const Real r = Real(ax[i]) - Real(b[i]);
         const Real sq = r * r;
         acc = acc + sq;
       }
       return Doubles{acc.value()};
     }},
    {"SubScaled2", 3, CallLength(3),
     [](bool block) {
       const std::size_t n = CallLength(3);
       const Doubles x = Fill(n, 1);
       Doubles y = Fill(n, 2);
       if (block) {
         blas::SubScaled2(n, 0.3, -1.7, x.data(), y.data());
         return y;
       }
       for (std::size_t i = 0; i < n; ++i) {
         const Real t1 = Real(0.3) * Real(-1.7);
         const Real t2 = t1 * Real(x[i]);
         y[i] = (Real(y[i]) - t2).value();
       }
       return y;
     }},
    {"Rot", 6, CallLength(6),
     [](bool block) {
       const std::size_t n = CallLength(6);
       Doubles x = Fill(n, 1), y = Fill(2 * n, 2);
       const double c = 0.8, s = 0.6;
       if (block) {
         blas::Rot(n, x.data(), 1, y.data(), 2, c, s);
       } else {
         for (std::size_t i = 0; i < n; ++i) {
           const Real xi(x[i]), yi(y[2 * i]);
           const Real tp = Real(c) * xi;
           const Real tq = Real(s) * yi;
           const Real up = Real(s) * xi;
           const Real uq = Real(c) * yi;
           x[i] = (tp - tq).value();
           y[2 * i] = (up + uq).value();
         }
       }
       x.insert(x.end(), y.begin(), y.end());
       return x;
     }},
    {"JacobiDots", 6, CallLength(6),
     [](bool block) {
       const std::size_t n = CallLength(6);
       const Doubles x = Fill(n, 1), y = Fill(n, 2);
       double app = 0.5, aqq = 0.25, apq = -0.125;
       if (block) {
         blas::JacobiDots(n, x.data(), 1, y.data(), 1, &app, &aqq, &apq);
         return Doubles{app, aqq, apq};
       }
       Real vpp(app), vqq(aqq), vpq(apq);
       for (std::size_t i = 0; i < n; ++i) {
         const Real xi(x[i]), yi(y[i]);
         vpp = vpp + xi * xi;
         vqq = vqq + yi * yi;
         vpq = vpq + xi * yi;
       }
       return Doubles{vpp.value(), vqq.value(), vpq.value()};
     }},
    {"IirValueAcc", 0, 0,
     [](bool block) {
       const std::size_t n = CallLength(3 + 2 * kIirTaps);
       const Doubles a = Fill(kIirTaps, 1), y = Fill(n, 2), f = Fill(n, 3);
       if (block) {
         return Doubles{blas::IirValueAcc(n, kIirTaps, a.data(), y.data(), f.data(), 0.5)};
       }
       Real acc(0.5);
       for (std::size_t t = 0; t < n; ++t) {
         Real r = Real(y[t]) - Real(f[t]);
         for (std::size_t k = 1; k <= kIirTaps && k <= t; ++k) {
           const Real m = Real(a[k - 1]) * Real(y[t - k]);
           r = r + m;
         }
         const Real sq = r * r;
         acc = acc + sq;
       }
       return Doubles{acc.value()};
     }},
    {"IirResidualInto", 0, 0,
     [](bool block) {
       const std::size_t n = CallLength(1 + 2 * kIirTaps);
       const Doubles a = Fill(kIirTaps, 1), y = Fill(n, 2), f = Fill(n, 3);
       Doubles r(n, -1.0);
       if (block) {
         blas::IirResidualInto(n, kIirTaps, a.data(), y.data(), f.data(), r.data());
         return r;
       }
       for (std::size_t t = 0; t < n; ++t) {
         Real rt = Real(y[t]) - Real(f[t]);
         for (std::size_t k = 1; k <= kIirTaps && k <= t; ++k) {
           const Real m = Real(a[k - 1]) * Real(y[t - k]);
           rt = rt + m;
         }
         r[t] = rt.value();
       }
       return r;
     }},
    {"IirGradientInto", 0, 0,
     [](bool block) {
       const std::size_t n = CallLength(2 * kIirTaps);
       const Doubles a = Fill(kIirTaps, 1), r = Fill(n, 2);
       Doubles g(n, -1.0);
       if (block) {
         blas::IirGradientInto(n, kIirTaps, a.data(), r.data(), g.data());
         return g;
       }
       for (std::size_t s = 0; s < n; ++s) {
         Real acc(r[s]);
         for (std::size_t k = 1; k <= kIirTaps && s + k < n; ++k) {
           const Real m = Real(a[k - 1]) * Real(r[s + k]);
           acc = acc + m;
         }
         g[s] = acc.value();
       }
       return g;
     }},
};

void ExpectWordsEqual(const Doubles& a, const Doubles& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, &a[i], sizeof(wa));
    std::memcpy(&wb, &b[i], sizeof(wb));
    EXPECT_EQ(wa, wb) << "output word " << i;
  }
}

// What one kernel call under a fresh injector leaves behind.
struct KernelRun {
  Doubles out;
  faulty::ContextStats stats;
  std::uint64_t clean_after = 0;
};

// Runs `fn` under a fresh (rate, seed) injector whose first `skip` ops were
// consumed clean.
template <class Fn>
KernelRun UnderInjector(double rate, std::uint64_t seed, faulty::BitModel model,
                        std::uint64_t skip, const Fn& fn) {
  faulty::FaultInjector inj(rate, faulty::SharedBitDistribution(model), seed);
  inj.ConsumeClean(skip);
  faulty::FaultInjector* prev = faulty::detail::ExchangeThreadInjector(&inj);
  KernelRun run;
  run.out = fn();
  faulty::detail::ExchangeThreadInjector(prev);
  run.stats = inj.stats();
  run.clean_after = inj.CleanRun();
  return run;
}

void ExpectSameRun(const KernelRun& scalar, const KernelRun& block) {
  ExpectWordsEqual(scalar.out, block.out);
  EXPECT_EQ(scalar.stats.faulty_flops, block.stats.faulty_flops);
  EXPECT_EQ(scalar.stats.faults_injected, block.stats.faults_injected);
  EXPECT_EQ(scalar.clean_after, block.clean_after);
}

TEST(MaskedKernels, MatchScalarAcrossWindowEdges) {
  const faulty::BitDistribution& bits =
      faulty::SharedBitDistribution(faulty::BitModel::kLsbOnly);
  for (const MaskedFamily& family : kMaskedFamilies) {
    SCOPED_TRACE(family.name);
    bool first_op_fault = false, last_op_fault = false;
    for (const double rate : {0.1, 0.25}) {
      for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        SCOPED_TRACE(testing::Message() << "rate " << rate << " seed " << seed);
        std::uint64_t skip = 0;
        if (family.ops != 0) {
          // Replay the first window the kernel will schedule.
          faulty::FaultInjector probe(rate, bits, seed);
          if (seed % 2 == 1) skip = probe.CleanRun() % family.ops;
          probe.ConsumeClean(skip);
          const std::uint64_t prefix = probe.CleanRun() / family.ops;
          ASSERT_LT(prefix, family.elements);
          probe.ConsumeClean(prefix * family.ops);
          const std::uint64_t window_ops = Window(family.ops) * family.ops;
          if (family.elements - prefix >= Window(family.ops)) {
            probe.ScheduleFaults(window_ops, [&](std::uint64_t at, int) {
              if (at == 0) first_op_fault = true;
              if (at == window_ops - 1) last_op_fault = true;
            });
          }
        }
        const auto run = [&](bool block) {
          return UnderInjector(rate, seed, faulty::BitModel::kLsbOnly, skip,
                               [&] { return family.run(block); });
        };
        const KernelRun block = run(true);
        ExpectSameRun(run(false), block);
        EXPECT_GT(block.stats.faults_injected, 0u);
      }
    }
    if (family.ops != 0) {
      EXPECT_TRUE(first_op_fault) << "no seed faulted a window's first op";
      EXPECT_TRUE(last_op_fault) << "no seed faulted a window's last op";
    }
  }
}

// The lane paths of MatVec (8-row blocks, row pairs, a scalar odd row) and
// MatTVec (12-column blocks, smaller pair blocks, a scalar odd column)
// across shapes that leave every remainder, at rates from clean to a fault
// every ~4 ops.  The skip shifts where the first window opens relative to
// the rows; the test requires that some masked run starts and ends mid-row
// with whole rows in between that are not a multiple of a MatVec block.
TEST(MaskedKernels, MatrixLanesMatchScalar) {
  const std::size_t kShapeRows[] = {1, 2, 7, 8, 9, 17, 100};
  const std::size_t kShapeCols[] = {1, 2, 3, 10, 11, 13, 25};
  bool starts_mid_row = false, ends_mid_row = false, partial_block = false;
  for (const std::size_t m : kShapeRows) {
    for (const std::size_t n : kShapeCols) {
      const Doubles a = Fill(m * n, m * 100 + n);
      const Doubles xv = Fill(n, 1), xt = Fill(m, 2);
      for (const double rate : {0.0, 1e-3, 0.1, 0.25}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
          SCOPED_TRACE(testing::Message() << m << "x" << n << " rate " << rate
                                          << " seed " << seed);
          std::uint64_t skip = 0;
          if (rate > 0.0) {
            // Replay the first masked run the kernels will take.
            faulty::FaultInjector probe(rate, faulty::SharedBitDistribution(
                                                  faulty::BitModel::kLsbOnly),
                                        seed);
            skip = probe.CleanRun() % (2 * n + seed);
            probe.ConsumeClean(skip);
            const std::size_t start = static_cast<std::size_t>(probe.CleanRun() / 2);
            if (start < m * n) {
              probe.ConsumeClean(2 * start);
              const std::size_t w = std::min(Window(2), m * n - start);
              std::uint64_t last = 0;
              probe.ScheduleFaults(2 * w, [&](std::uint64_t at, int) { last = at; });
              const std::size_t end = start + static_cast<std::size_t>(last / 2) + 1;
              const std::size_t whole = end / n - (start + n - 1) / n;
              if (start % n != 0) starts_mid_row = true;
              if (end % n != 0) ends_mid_row = true;
              if (end / n > (start + n - 1) / n && whole % 8 != 0 && whole > 2) {
                partial_block = true;
              }
            }
          }
          const auto run = [&](auto kernel) {
            return UnderInjector(rate, seed, faulty::BitModel::kLsbOnly, skip, kernel);
          };
          ExpectSameRun(run([&] { return ScalarMatVec(m, n, a, xv); }), run([&] {
                          Doubles y(m, -1.0);
                          blas::MatVecInto(m, n, a.data(), xv.data(), y.data());
                          return y;
                        }));
          ExpectSameRun(run([&] { return ScalarMatTVec(m, n, a, xt); }), run([&] {
                          Doubles y(n, -1.0);
                          blas::MatTVecInto(m, n, a.data(), xt.data(), y.data());
                          return y;
                        }));
        }
      }
    }
  }
  EXPECT_TRUE(starts_mid_row) << "no masked run started mid-row";
  EXPECT_TRUE(ends_mid_row) << "no masked run ended mid-row";
  EXPECT_TRUE(partial_block) << "no masked run held a partial MatVec block";
}

// a + b with `a` as the add's first operand, which x86 keeps when both
// are NaNs (a plain `+` may be commuted by the compiler).
double AddKeepFirst(double a, double b) {
#if defined(__SSE2__)
  return _mm_cvtsd_f64(_mm_add_sd(_mm_set_sd(a), _mm_set_sd(b)));
#else
  return a + b;
#endif
}

// Two quiet NaNs with distinct payloads meet in an accumulate, and x86
// keeps the first operand's payload.  The kernels keep the operand order
// of their loops: MatVec adds the term to the running sum (the sum first),
// MatTVec adds y[j] to the term (the term first).  Every MatVec row is
// NaN_A, NaN_B, finite...; MatTVec's rows 0 and 1 are all NaN_A and all
// NaN_B.  Clean, every MatVec output is NaN_A and every MatTVec output
// NaN_B; masked, both match per-scalar loops with that order pinned.  The
// payloads sit above the low 12 bits the faults flip, so they stay distinct
// NaNs through the masked runs.
TEST(MaskedKernels, NanMeetsNanKeepsAddOperandOrder) {
#if !defined(__SSE2__)
  GTEST_SKIP() << "the NaN payload rule tested here is x86's";
#endif
  const auto nan = [](std::uint64_t payload) {
    const std::uint64_t word = 0x7ff8000000000000ull | payload;
    double v;
    std::memcpy(&v, &word, sizeof(v));
    return v;
  };
  const double nan_a = nan(0xA5ull << 24), nan_b = nan(0x5Aull << 32);
  constexpr std::size_t m = 17, n = 13;
  Doubles av = Fill(m * n, 3), at = Fill(m * n, 3);
  for (std::size_t r = 0; r < m; ++r) {
    av[r * n] = nan_a;
    av[r * n + 1] = nan_b;
  }
  for (std::size_t j = 0; j < n; ++j) {
    at[j] = nan_a;
    at[n + j] = nan_b;
  }
  const Doubles xv = Fill(n, 4), xt = Fill(m, 5);
  const auto ref_matvec = [&] {
    Doubles y(m);
    for (std::size_t r = 0; r < m; ++r) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double t = faulty::Execute(av[r * n + j] * xv[j]);
        acc = faulty::Execute(AddKeepFirst(acc, t));
      }
      y[r] = acc;
    }
    return y;
  };
  const auto ref_mattvec = [&] {
    Doubles y(n, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t j = 0; j < n; ++j) {
        const double t = faulty::Execute(at[r * n + j] * xt[r]);
        y[j] = faulty::Execute(AddKeepFirst(t, y[j]));
      }
    }
    return y;
  };
  for (const double rate : {0.0, 0.25}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(testing::Message() << "rate " << rate << " seed " << seed);
      const auto run = [&](auto kernel) {
        return UnderInjector(rate, seed, faulty::BitModel::kLsbOnly, 0, kernel);
      };
      const KernelRun mv = run([&] {
        Doubles y(m, -1.0);
        blas::MatVecInto(m, n, av.data(), xv.data(), y.data());
        return y;
      });
      const KernelRun mt = run([&] {
        Doubles y(n, -1.0);
        blas::MatTVecInto(m, n, at.data(), xt.data(), y.data());
        return y;
      });
      ExpectSameRun(run(ref_matvec), mv);
      ExpectSameRun(run(ref_mattvec), mt);
      if (rate == 0.0) {
        ExpectWordsEqual(mv.out, Doubles(m, nan_a));
        ExpectWordsEqual(mt.out, Doubles(n, nan_b));
      } else {
        EXPECT_GT(mv.stats.faults_injected, 0u);
      }
    }
  }
}

// Counts the LFSR words between two states of one stream.
[[maybe_unused]] std::uint64_t WordsBetween(faulty::Lfsr from, const faulty::Lfsr& to) {
  std::uint64_t words = 0;
  for (; from.state() != to.state(); ++words) from.next();
  return words;
}

// gap.draws.table books every alias-table draw of a fault walk, tail
// redraws included, once per ScheduleFaults call.  At rate 1/64 the tail
// slot (gap >= 63) has probability (63/64)^63 ~ 0.37, so the draws clearly
// outnumber the faults: booking one per fault would fail.  The expected
// count comes from a bare Sample loop over the injector's stream, with
// each gap's draws counted as the LFSR words it consumed.
TEST(MaskedKernels, BooksEveryAliasDrawOncePerCall) {
#if ROBUSTIFY_TELEMETRY_ENABLED
  constexpr double kRate = 1.0 / 64;
  constexpr std::uint64_t kSeed = 11;
  constexpr std::size_t m = 100, n = 25;
  const faulty::BitDistribution& bits =
      faulty::SharedBitDistribution(faulty::BitModel::kBimodal);
  const faulty::GeometricGapSampler& gaps = faulty::GeometricGapSampler::Shared(kRate);
  ASSERT_TRUE(gaps.uses_table());

  faulty::FaultInjector inj(kRate, bits, kSeed);
  faulty::Lfsr rng(kSeed ^ 0xA5A5A5A55A5A5A5Aull);  // the injector's stream seed
  std::uint64_t countdown = gaps.Sample(rng);
  ASSERT_EQ(countdown, inj.CleanRun()) << "not the injector's stream";
  std::uint64_t draws = 0, faults = 0;
  for (std::uint64_t left = 2 * m * n; countdown < left; ++faults) {
    left -= countdown + 1;
    const faulty::Lfsr before = rng;
    countdown = gaps.Sample(rng);
    draws += WordsBetween(before, rng);
    bits.sample(rng);
  }
  ASSERT_GT(draws, faults + 10) << "too few tail redraws to tell draws from faults";

  const Doubles a = Fill(m * n, 1), x = Fill(n, 2);
  Doubles y(m);
  telemetry::SetCountersEnabled(true);
  const telemetry::CounterSnapshot before = telemetry::SnapshotCounters();
  faulty::FaultInjector* prev = faulty::detail::ExchangeThreadInjector(&inj);
  blas::MatVecInto(m, n, a.data(), x.data(), y.data());
  faulty::detail::ExchangeThreadInjector(prev);
  const telemetry::CounterSnapshot after = telemetry::SnapshotCounters();

  EXPECT_EQ(inj.stats().faults_injected, faults);
  EXPECT_EQ(after.value(telemetry::Counter::kGapDrawsTable) -
                before.value(telemetry::Counter::kGapDrawsTable),
            draws);
#else
  GTEST_SKIP() << "telemetry compiled out";
#endif
}

}  // namespace
