// Parallel harness: thread-count resolution, the worker pool, and the
// determinism guarantee — sweep output is identical for every worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/fault_env.h"
#include "faulty/real.h"
#include "fixed_sweep.h"
#include "harness/parallel.h"
#include "harness/trial.h"

namespace {

using namespace robustify;

TEST(ResolveThreadCount, ExplicitRequestWins) {
  EXPECT_EQ(harness::ResolveThreadCount(3), 3);
  EXPECT_EQ(harness::ResolveThreadCount(1), 1);
}

TEST(ResolveThreadCount, UnspecifiedMeansHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int expected = hw > 0 ? static_cast<int>(hw) : 1;
  EXPECT_EQ(harness::ResolveThreadCount(0), expected);
  EXPECT_EQ(harness::ResolveThreadCount(-3), expected);
}

// A pool starts a thread only when a job first needs it and keeps it: jobs
// after the first start none.  A job that throws on a pool thread is
// rethrown by Run once every worker has returned, and the pool runs the
// next job on the same threads.
TEST(WorkerPool, KeepsItsThreadsAndRethrowsAJobsException) {
  const std::uint64_t before = harness::WorkerPool::ThreadsStarted();
  {
    harness::WorkerPool pool(3);
    std::atomic<int> runs{0};
    pool.Run(1, [&] { ++runs; });  // the calling thread
    EXPECT_EQ(harness::WorkerPool::ThreadsStarted(), before);
    pool.Run(2, [&] { ++runs; });
    pool.Run(8, [&] { ++runs; });  // capped at the pool's 3
    EXPECT_EQ(runs.load(), 1 + 2 + 3);
    EXPECT_EQ(harness::WorkerPool::ThreadsStarted(), before + 3);

    std::atomic<int> calls{0};
    EXPECT_THROW(pool.Run(3,
                          [&] {
                            if (calls.fetch_add(1) == 1) throw std::runtime_error("job failed");
                          }),
                 std::runtime_error);
    EXPECT_EQ(calls.load(), 3);
    pool.Run(3, [&] { ++runs; });
    EXPECT_EQ(runs.load(), 1 + 2 + 3 + 3);
  }
  EXPECT_EQ(harness::WorkerPool::ThreadsStarted(), before + 3);
}

// A trial that actually exercises the faulty FPU, so the determinism check
// covers injector seeding, not just the harness plumbing.
harness::TrialFn FaultyAccumulateTrial() {
  return [](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const double sum = core::WithFaultyFpu(
        env,
        [&] {
          faulty::Real acc(0);
          for (int i = 1; i <= 2000; ++i) acc += faulty::Real(1.0 / i);
          return acc.value();
        },
        &out.fpu_stats);
    out.metric = sum;
    out.success = std::isfinite(sum);
    return out;
  };
}

bool SummariesIdentical(const harness::TrialSummary& a, const harness::TrialSummary& b) {
  return a.trials == b.trials && a.successes == b.successes &&
         a.success_rate_pct == b.success_rate_pct &&
         a.median_metric == b.median_metric && a.mean_metric == b.mean_metric &&
         a.mean_faulty_flops == b.mean_faulty_flops &&
         a.mean_faults_injected == b.mean_faults_injected;
}

TEST(Sweep, ByteIdenticalResultsForEveryThreadCount) {
  const auto run = [](int threads) {
    campaign::CampaignSpec spec;
    spec.fault_rates = {0.0, 0.01, 0.3};  // spans skip-ahead and per-op
    spec.fixed_trials = 6;
    spec.base_seed = 17;
    return test::RunFixedSweep(
        spec, {{"a", FaultyAccumulateTrial()}, {"b", FaultyAccumulateTrial()}},
        threads);
  };
  const auto serial = run(1);
  for (const int threads : {2, 8}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
      ASSERT_EQ(parallel[s].points.size(), serial[s].points.size());
      for (std::size_t p = 0; p < serial[s].points.size(); ++p) {
        EXPECT_EQ(parallel[s].points[p].fault_rate, serial[s].points[p].fault_rate);
        EXPECT_TRUE(SummariesIdentical(parallel[s].points[p].summary,
                                       serial[s].points[p].summary))
            << "series " << s << " point " << p << " differs with " << threads
            << " threads";
      }
    }
  }
}

// One cell's trials spread over several workers still reduce to the serial
// summary.
TEST(Trials, ParallelMatchesSerial) {
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.02};
  spec.fixed_trials = 8;
  spec.base_seed = 5;
  const auto serial = test::RunFixedSweep(spec, {{"a", FaultyAccumulateTrial()}}, 1);
  const auto parallel = test::RunFixedSweep(spec, {{"a", FaultyAccumulateTrial()}}, 4);
  EXPECT_TRUE(SummariesIdentical(serial[0].points[0].summary,
                                 parallel[0].points[0].summary));
}

}  // namespace
