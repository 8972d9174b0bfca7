// Allocation regression tests: the hot paths must not touch the heap.
//
// This TU replaces the global operator new/delete (every replaceable form)
// for the test binary with counting wrappers (test-only: nothing in the
// library depends on them).
// The counter is thread-local and only armed inside an AllocationProbe
// scope, so gtest's own bookkeeping outside the probe is never counted.
//
// The contract under test (see opt/workspace.h): after one warm-up solve
// on a workspace, a complete SGD or CGLS solve — engine loop plus every
// objective Value/Gradient evaluation, on the clean scalar and under the
// fault injector alike — performs zero heap allocations.  PR 2 measured
// 6.3M allocations per fig6_1 run from exactly these paths; this test is
// what keeps them from coming back.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "apps/configs.h"
#include "apps/least_squares.h"
#include "apps/sort_app.h"
#include "core/fault_env.h"
#include "opt/cg.h"
#include "opt/sgd.h"
#include "opt/workspace.h"
#include "oracle/per_scalar.h"

namespace {

thread_local std::int64_t tls_alloc_count = 0;
thread_local bool tls_alloc_armed = false;

// Arms the counter for its lifetime; read the tally after disarming.
class AllocationProbe {
 public:
  AllocationProbe() {
    tls_alloc_count = 0;
    tls_alloc_armed = true;
  }
  ~AllocationProbe() { tls_alloc_armed = false; }
  AllocationProbe(const AllocationProbe&) = delete;
  AllocationProbe& operator=(const AllocationProbe&) = delete;
};

std::int64_t ArmedAllocations() { return tls_alloc_count; }

// Counts an armed allocation; null when out of memory.  `align` 0 is the
// default alignment.
void* CountedMalloc(std::size_t size, std::size_t align) noexcept {
  if (tls_alloc_armed) ++tls_alloc_count;
  if (size == 0) size = 1;
  if (align == 0) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* CountingAlloc(std::size_t size, std::size_t align = 0) {
  void* p = CountedMalloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::size_t Align(std::align_val_t align) { return static_cast<std::size_t>(align); }

}  // namespace

// Every replaceable form, so no allocation bypasses the count and no block
// is freed by a different allocator than the one that made it (under ASan,
// an unreplaced nothrow `new` paired with the replaced `delete` aborts with
// alloc-dealloc-mismatch: std::stable_sort takes its buffer that way).
void* operator new(std::size_t size) { return CountingAlloc(size); }
void* operator new[](std::size_t size) { return CountingAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountingAlloc(size, Align(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountingAlloc(size, Align(align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedMalloc(size, Align(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedMalloc(size, Align(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace robustify;

// An SgdOptions that exercises every engine buffer: TMR gradient voting,
// momentum, adaptive accept/reject (Value calls), and Polyak averaging.
opt::SgdOptions EverythingOnSgd(int iterations) {
  opt::SgdOptions options;
  options.iterations = iterations;
  options.base_step = 0.05;
  options.scaling = opt::StepScaling::kSqrt;
  options.adaptive = true;
  options.gradient_votes = 3;
  options.momentum_beta = 0.5;
  options.average_tail = 0.25;
  options.phases = core::AnnealedPenalty(3, 4.0);
  return options;
}

TEST(AllocationFree, SortSgdInnerLoopAfterWarmup) {
  const std::vector<double> input{0.9, 0.1, 0.6, 0.3, 0.7};
  const std::size_t n = input.size();
  opt::Workspace<double> ws;
  apps::detail::SortObjective<double> objective(input, 10.0, &ws);
  const opt::SgdOptions options = EverythingOnSgd(40);

  linalg::Vector<double> warm(n * n, 1.0 / n);
  warm = opt::MinimizeSgd(objective, std::move(warm), options, &ws);

  linalg::Vector<double> x(n * n, 1.0 / n);
  std::int64_t allocations;
  {
    AllocationProbe probe;
    x = opt::MinimizeSgd(objective, std::move(x), options, &ws);
    allocations = ArmedAllocations();
  }
  EXPECT_EQ(allocations, 0) << "SGD sort solve allocated on a warmed workspace";
  EXPECT_TRUE(AllFinite(x));
}

TEST(AllocationFree, SortSgdInnerLoopUnderFaultInjection) {
  const std::vector<double> input{0.9, 0.1, 0.6, 0.3, 0.7};
  const std::size_t n = input.size();
  opt::Workspace<faulty::Real> ws;
  apps::detail::SortObjective<faulty::Real> objective(input, 10.0, &ws);
  const opt::SgdOptions options = EverythingOnSgd(40);

  core::FaultEnvironment env;
  env.fault_rate = 0.01;  // gap-table shared sampler is built on warm-up
  env.seed = 7;

  linalg::Vector<faulty::Real> warm(n * n, faulty::Real(1.0 / n));
  core::WithFaultyFpu(env, [&] {
    warm = opt::MinimizeSgd(objective, std::move(warm), options, &ws);
  });

  linalg::Vector<faulty::Real> x(n * n, faulty::Real(1.0 / n));
  std::int64_t allocations;
  {
    AllocationProbe probe;
    core::WithFaultyFpu(env, [&] {
      x = opt::MinimizeSgd(objective, std::move(x), options, &ws);
    });
    allocations = ArmedAllocations();
  }
  EXPECT_EQ(allocations, 0)
      << "faulty SGD sort solve allocated on a warmed workspace";
}

TEST(AllocationFree, LeastSquaresSgdInnerLoopAfterWarmup) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(40, 8, 17);
  opt::Workspace<double> ws;
  const linalg::Matrix<double>& a = problem.a;
  const linalg::Vector<double>& b = problem.b;
  apps::detail::LsqObjective<double> objective(a, b, &ws);
  const opt::SgdOptions options = EverythingOnSgd(40);

  linalg::Vector<double> warm(a.cols());
  warm = opt::MinimizeSgd(objective, std::move(warm), options, &ws);

  linalg::Vector<double> x(a.cols());
  std::int64_t allocations;
  {
    AllocationProbe probe;
    x = opt::MinimizeSgd(objective, std::move(x), options, &ws);
    allocations = ArmedAllocations();
  }
  EXPECT_EQ(allocations, 0)
      << "SGD least-squares solve allocated on a warmed workspace";
}

TEST(AllocationFree, CglsInnerLoopAfterWarmup) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(40, 8, 23);
  opt::Workspace<double> ws;
  const linalg::Matrix<double>& a = problem.a;
  const linalg::Vector<double>& b = problem.b;
  opt::CgOptions options;
  options.iterations = 12;
  options.restart_every = 4;

  opt::CgResult result;
  opt::SolveCglsInto(a, b, options, &ws, &result);  // warm-up sizes everything

  std::int64_t allocations;
  {
    AllocationProbe probe;
    opt::SolveCglsInto(a, b, options, &ws, &result);
    allocations = ArmedAllocations();
  }
  EXPECT_EQ(allocations, 0) << "CGLS solve allocated on a warmed workspace";
  // Sanity only (convergence has its own tests): the solve really ran.
  EXPECT_EQ(result.iterations, 12);
  EXPECT_LT(result.residual_norm, 1e-3);
}

TEST(AllocationFree, CglsUnderFaultInjection) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(40, 8, 29);
  opt::Workspace<faulty::Real> ws;
  const linalg::Matrix<faulty::Real> a = linalg::Cast<faulty::Real>(problem.a);
  const linalg::Vector<faulty::Real> b = linalg::Cast<faulty::Real>(problem.b);
  opt::CgOptions options;
  options.iterations = 12;
  options.restart_every = 4;

  core::FaultEnvironment env;
  env.fault_rate = 0.001;
  env.seed = 31;

  opt::CgResult result;
  core::WithFaultyFpu(env, [&] { opt::SolveCglsInto(a, b, options, &ws, &result); });

  std::int64_t allocations;
  {
    AllocationProbe probe;
    core::WithFaultyFpu(env,
                        [&] { opt::SolveCglsInto(a, b, options, &ws, &result); });
    allocations = ArmedAllocations();
  }
  EXPECT_EQ(allocations, 0) << "faulty CGLS solve allocated on a warmed workspace";
}

// The block kernels (linalg/faulty_blas.h) must uphold the same contract:
// bulk clean runs borrow no scratch, the fault-mask windows use per-thread
// pre-sized masks, and the kernel fork itself allocates nothing.  T is
// faulty::Real (block kernels) or the per-scalar oracle type.
template <class T>
void ExpectAllocationFree(double rate, std::uint64_t seed, const char* name) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(40, 8, 37);
  opt::Workspace<T> ws;
  const linalg::Matrix<T> a = linalg::Cast<T>(problem.a);
  const linalg::Vector<T> b = linalg::Cast<T>(problem.b);
  apps::detail::LsqObjective<T> objective(a, b, &ws);
  const opt::SgdOptions options = EverythingOnSgd(40);
  opt::CgOptions cg;
  cg.iterations = 12;
  cg.restart_every = 4;

  core::FaultEnvironment env;
  env.fault_rate = rate;
  env.seed = seed;

  linalg::Vector<T> warm(a.cols());
  opt::CgResult cg_result;
  core::WithFaultyFpu(env, [&] {
    warm = opt::MinimizeSgd(objective, std::move(warm), options, &ws);
    opt::SolveCglsInto(a, b, cg, &ws, &cg_result);
  });

  linalg::Vector<T> x(a.cols());
  std::int64_t allocations;
  {
    AllocationProbe probe;
    core::WithFaultyFpu(env, [&] {
      x = opt::MinimizeSgd(objective, std::move(x), options, &ws);
      opt::SolveCglsInto(a, b, cg, &ws, &cg_result);
    });
    allocations = ArmedAllocations();
  }
  EXPECT_EQ(allocations, 0) << name << " allocated on a warmed workspace at rate " << rate;
}

void ExpectEnginesAllocationFree(double rate, std::uint64_t seed) {
  ExpectAllocationFree<faulty::Real>(rate, seed, "faulty::Real (block kernels)");
  ExpectAllocationFree<oracle::ScalarReal>(rate, seed, "per-scalar oracle");
}

TEST(AllocationFree, BlockAndScalarEnginesAllocationFreeAfterWarmup) {
  ExpectEnginesAllocationFree(0.01, 43);  // bulk runs a few elements long
}

// At rate 0.1 every matvec spans several fault-mask windows.
TEST(AllocationFree, MaskedKernelsAllocationFreeAtHighRate) {
  ExpectEnginesAllocationFree(0.1, 47);
}

// The thread-local default workspace gives whole app kernels the same
// guarantee across trials without any caller plumbing: the second
// RobustSort on this thread reuses the first one's buffers.
TEST(AllocationFree, ThreadWorkspaceIsWarmAcrossKernelCalls) {
  const std::vector<double> input{0.9, 0.1, 0.6, 0.3, 0.7};
  apps::LpSolveConfig config = apps::SortSgdAsSqs();
  config.sgd.iterations = 40;

  const apps::RobustSortResult warm = apps::RobustSort<double>(input, config);
  ASSERT_TRUE(warm.valid);

  opt::Workspace<double>& ws = opt::ThreadWorkspace<double>();
  apps::detail::SortObjective<double> objective(input, config.penalty_weight, &ws);
  linalg::Vector<double> p(input.size() * input.size(),
                           1.0 / static_cast<double>(input.size()));
  std::int64_t allocations;
  {
    AllocationProbe probe;
    p = opt::MinimizeSgd(objective, std::move(p), config.sgd, &ws);
    allocations = ArmedAllocations();
  }
  EXPECT_EQ(allocations, 0);
}

}  // namespace
