// Parallel harness: parallel-for, thread-count resolution, and the
// determinism guarantee — sweep output is identical for every worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
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

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v.store(0);
    harness::ParallelFor(static_cast<int>(visits.size()), threads,
                         [&](int i) { visits[static_cast<std::size_t>(i)].fetch_add(1); });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

// --- load balance under skewed per-item cost ---------------------------------
//
// ParallelFor's contract is dynamic claiming from one shared counter, which
// is what bounds idle imbalance when cells cost wildly different amounts
// (the adaptive campaign runner's exact shape: one transition cell can cost
// 20x a saturated one).  On this 1-CPU container wall-clock speedup is ~1.0
// by construction, so these tests pin the *scheduling* properties instead:
// a worker stuck on an arbitrarily expensive item must never strand queued
// items behind it, and results must not depend on the schedule.

// The most skewed cost distribution possible: item 0 cannot finish until
// every other item has run.  Static chunking would assign items 1..15 to
// the stuck worker and deadlock; dynamic claiming lets the other workers
// drain the whole queue, so this test terminating at all is the proof.
TEST(ParallelFor, StuckItemDoesNotStrandQueuedItems) {
  constexpr int kItems = 64;
  std::mutex mu;
  std::condition_variable done_cv;
  int done = 0;
  std::map<std::thread::id, std::vector<int>> claims;
  harness::ParallelFor(kItems, 4, [&](int i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      claims[std::this_thread::get_id()].push_back(i);
    }
    if (i == 0) {
      std::unique_lock<std::mutex> lock(mu);
      done_cv.wait(lock, [&] { return done == kItems - 1; });
      return;
    }
    std::unique_lock<std::mutex> lock(mu);
    ++done;
    if (done == kItems - 1) done_cv.notify_all();
  });

  // Idle-imbalance bound: while one worker was pinned to the expensive
  // item, the others drained everything — the stuck worker claimed item 0
  // and nothing else, and at least two workers participated.
  int total = 0;
  for (const auto& [id, items] : claims) {
    total += static_cast<int>(items.size());
    for (const int i : items) {
      if (i == 0) {
        EXPECT_EQ(items.size(), 1u) << "stuck worker claimed more work";
      }
    }
  }
  EXPECT_EQ(total, kItems);
  EXPECT_GE(claims.size(), 2u);
}

// Oversubscription (4x more workers than this container has cores) with a
// skewed busy-work distribution: every index still runs exactly once and
// the output is identical to the serial schedule.
TEST(ParallelFor, OversubscribedSkewedCostsStayDeterministic) {
  constexpr int kItems = 300;
  const auto cost = [](int i) { return (i % 97 == 0) ? 40000 : 400; };
  const auto work = [&](int i) {
    // Deterministic busy work proportional to the item's cost skew.
    std::uint64_t acc = static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull;
    for (int k = 0; k < cost(i); ++k) acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    return acc;
  };
  std::vector<std::uint64_t> serial(kItems);
  for (int i = 0; i < kItems; ++i) serial[static_cast<std::size_t>(i)] = work(i);

  for (const int threads : {4, 16}) {
    std::vector<std::uint64_t> parallel(kItems, 0);
    std::vector<std::atomic<int>> visits(kItems);
    for (auto& v : visits) v.store(0);
    harness::ParallelFor(kItems, threads, [&](int i) {
      visits[static_cast<std::size_t>(i)].fetch_add(1);
      parallel[static_cast<std::size_t>(i)] = work(i);
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      harness::ParallelFor(64, 4,
                           [](int i) {
                             if (i % 7 == 0) throw std::runtime_error("cell failed");
                           }),
      std::runtime_error);
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
