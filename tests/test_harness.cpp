// Harness: trials, sweeps, table extraction, CSV writing, and the
// golden-CSV determinism guarantees (thread-count and injector-strategy
// invariance of sweep output).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/configs.h"
#include "apps/sort_app.h"
#include "core/fault_env.h"
#include "harness/csv.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "harness/trial.h"

namespace {

using namespace robustify;

harness::TrialFn FailAboveRate(double cutoff) {
  return [cutoff](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    out.success = env.fault_rate <= cutoff;
    out.metric = env.fault_rate;
    return out;
  };
}

TEST(RunTrials, CountsSuccessesAndVariesSeeds) {
  std::vector<std::uint64_t> seeds;
  const harness::TrialFn fn = [&seeds](const core::FaultEnvironment& env) {
    seeds.push_back(env.seed);
    harness::TrialOutcome out;
    out.success = env.seed % 2 == 0;
    out.metric = static_cast<double>(env.seed);
    return out;
  };
  core::FaultEnvironment env;
  env.seed = 10;
  const harness::TrialSummary s = harness::RunTrials(fn, env, 4);
  EXPECT_EQ(s.trials, 4);
  EXPECT_EQ(s.successes, 2);
  EXPECT_DOUBLE_EQ(s.success_rate_pct, 50.0);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{10, 11, 12, 13}));
}

TEST(RunTrials, NonFiniteMetricsCountAsInfinityInMedian) {
  int call = 0;
  const harness::TrialFn fn = [&call](const core::FaultEnvironment&) {
    harness::TrialOutcome out;
    out.metric = (call++ % 2 == 0) ? std::nan("") : 1.0;
    return out;
  };
  core::FaultEnvironment env;
  const harness::TrialSummary s = harness::RunTrials(fn, env, 4);
  EXPECT_TRUE(std::isinf(s.median_metric));  // upper median of {1, 1, inf, inf}
  EXPECT_DOUBLE_EQ(s.mean_metric, 1.0);      // mean over finite metrics
}

TEST(Sweep, RunsEverySeriesAtEveryRate) {
  harness::SweepConfig config;
  config.fault_rates = {0.0, 0.1, 0.2};
  config.trials = 3;
  config.base_seed = 1;
  const auto series = harness::RunFaultRateSweep(
      config, {{"lenient", FailAboveRate(0.15)}, {"strict", FailAboveRate(0.05)}});
  ASSERT_EQ(series.size(), 2u);
  ASSERT_EQ(series[0].points.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].points[1].summary.success_rate_pct, 100.0);
  EXPECT_DOUBLE_EQ(series[1].points[1].summary.success_rate_pct, 0.0);
}

TEST(Table, PrintsOneRowPerRateAndOneColumnPerSeries) {
  harness::SweepConfig config;
  config.fault_rates = {0.0, 0.5};
  config.trials = 2;
  const auto series =
      harness::RunFaultRateSweep(config, {{"SGD+AS,LS", FailAboveRate(0.25)}});
  std::ostringstream os;
  harness::PrintSweepTable(os, "title", series, harness::TableValue::kSuccessRatePct,
                           "success (%)");
  const std::string text = os.str();
  EXPECT_NE(text.find("SGD+AS,LS"), std::string::npos);
  EXPECT_NE(text.find("fault_rate"), std::string::npos);
  EXPECT_NE(text.find("100.0"), std::string::npos);
  EXPECT_NE(text.find("0.5"), std::string::npos);
}

TEST(Csv, WritesQuotedHeadersAndThrowsOnBadPath) {
  harness::SweepConfig config;
  config.fault_rates = {0.0};
  config.trials = 1;
  const auto series =
      harness::RunFaultRateSweep(config, {{"SGD+AS,LS", FailAboveRate(1.0)}});
  const std::string path = ::testing::TempDir() + "/robustify_test_sweep.csv";
  harness::WriteSweepCsv(path, series);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("\"SGD+AS,LS success_pct\""), std::string::npos);
  std::remove(path.c_str());

  EXPECT_THROW(harness::WriteSweepCsv("/nonexistent_dir_zzz/x.csv", series),
               std::runtime_error);
}

// --- golden-CSV determinism -------------------------------------------------

// A real kernel under real fault injection, pinned to one injector
// strategy: robust sort on a seed-derived 4-element input.
harness::TrialFn SortTrial(faulty::FaultInjector::Strategy strategy) {
  return [strategy](const core::FaultEnvironment& base) {
    core::FaultEnvironment env = base;
    env.strategy = strategy;
    std::mt19937_64 rng(env.seed * 7919);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> input(4);
    for (double& v : input) v = dist(rng);
    apps::LpSolveConfig config = apps::SortSgdAsSqs();
    config.sgd.iterations = 150;  // full descent shape, test-sized budget
    harness::TrialOutcome out;
    const apps::RobustSortResult r = core::WithFaultyFpu(
        env, [&] { return apps::RobustSort<faulty::Real>(input, config); },
        &out.fpu_stats);
    out.success = r.valid && apps::IsSortedCopyOf(r.output, input);
    out.metric = static_cast<double>(out.fpu_stats.faults_injected);
    return out;
  };
}

std::string SweepCsvBytes(const harness::SweepConfig& config,
                          const std::vector<harness::NamedTrial>& trials,
                          const std::string& tag) {
  const auto series = harness::RunFaultRateSweep(config, trials);
  const std::string path = ::testing::TempDir() + "/robustify_golden_" + tag + ".csv";
  harness::WriteSweepCsv(path, series);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

// The sweep contract: output is a pure function of (config, trial fns) —
// never of the worker count.  Byte-identical CSVs for 1, 2, and 8 threads,
// at rate 0 and under heavy fault injection alike.
TEST(Sweep, GoldenCsvByteIdenticalAcrossThreadCounts) {
  using Strategy = faulty::FaultInjector::Strategy;
  harness::SweepConfig config;
  config.fault_rates = {0.0, 0.05};
  config.trials = 4;
  config.base_seed = 33;
  const std::vector<harness::NamedTrial> trials = {
      {"SGD+AS,SQS", SortTrial(Strategy::kSkipAhead)}};

  config.threads = 1;
  const std::string one = SweepCsvBytes(config, trials, "t1");
  config.threads = 2;
  const std::string two = SweepCsvBytes(config, trials, "t2");
  config.threads = 8;
  const std::string eight = SweepCsvBytes(config, trials, "t8");

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// At rate 0 no strategy ever samples a gap or flips a bit, so the injector
// implementation must be invisible: skip-ahead and the per-op oracle have
// to produce byte-identical sweep output.
TEST(Sweep, GoldenCsvByteIdenticalAcrossStrategiesAtRateZero) {
  using Strategy = faulty::FaultInjector::Strategy;
  harness::SweepConfig config;
  config.fault_rates = {0.0};
  config.trials = 3;
  config.base_seed = 44;
  config.threads = 1;

  const std::string skip = SweepCsvBytes(
      config, {{"SGD+AS,SQS", SortTrial(Strategy::kSkipAhead)}}, "skip");
  const std::string perop = SweepCsvBytes(
      config, {{"SGD+AS,SQS", SortTrial(Strategy::kPerOp)}}, "perop");

  EXPECT_FALSE(skip.empty());
  EXPECT_EQ(skip, perop);
}

}  // namespace
