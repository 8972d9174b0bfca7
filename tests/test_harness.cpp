// Harness: trials, fixed-budget sweeps, table extraction, CSV writing, and
// the golden-CSV determinism guarantees (thread-count invariance of sweep
// output, and skip-ahead/per-op oracle agreement at rate 0).
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
#include "fixed_sweep.h"
#include "harness/csv.h"
#include "harness/table.h"
#include "harness/trial.h"
#include "oracle/per_op.h"

namespace {

using namespace robustify;
using test::RunFixedSweep;

// The outcomes of trials 0 .. count-1 of `fn` at `env`, summarized in
// trial order.
harness::TrialSummary RunAndSummarize(const harness::TrialFn& fn,
                                      const core::FaultEnvironment& env, int count) {
  std::vector<harness::TrialOutcome> outcomes;
  for (int t = 0; t < count; ++t) outcomes.push_back(harness::RunSingleTrial(fn, env, t));
  return harness::SummarizeOutcomes(outcomes);
}

harness::TrialFn FailAboveRate(double cutoff) {
  return [cutoff](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    out.success = env.fault_rate <= cutoff;
    out.metric = env.fault_rate;
    return out;
  };
}

TEST(Trials, CountsSuccessesAndVariesSeeds) {
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
  const harness::TrialSummary s = RunAndSummarize(fn, env, 4);
  EXPECT_EQ(s.trials, 4);
  EXPECT_EQ(s.successes, 2);
  EXPECT_DOUBLE_EQ(s.success_rate_pct, 50.0);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{10, 11, 12, 13}));
}

TEST(Trials, NonFiniteMetricsCountAsInfinityInMedian) {
  int call = 0;
  const harness::TrialFn fn = [&call](const core::FaultEnvironment&) {
    harness::TrialOutcome out;
    out.metric = (call++ % 2 == 0) ? std::nan("") : 1.0;
    return out;
  };
  core::FaultEnvironment env;
  const harness::TrialSummary s = RunAndSummarize(fn, env, 4);
  EXPECT_TRUE(std::isinf(s.median_metric));  // upper median of {1, 1, inf, inf}
  EXPECT_DOUBLE_EQ(s.mean_metric, 1.0);      // mean over finite metrics
}

TEST(Sweep, RunsEverySeriesAtEveryRate) {
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0, 0.1, 0.2};
  spec.fixed_trials = 3;
  spec.base_seed = 1;
  const auto series = RunFixedSweep(
      spec, {{"lenient", FailAboveRate(0.15)}, {"strict", FailAboveRate(0.05)}});
  ASSERT_EQ(series.size(), 2u);
  ASSERT_EQ(series[0].points.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].points[1].summary.success_rate_pct, 100.0);
  EXPECT_DOUBLE_EQ(series[1].points[1].summary.success_rate_pct, 0.0);
}

TEST(Table, PrintsOneRowPerRateAndOneColumnPerSeries) {
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0, 0.5};
  spec.fixed_trials = 2;
  // The last two names share their first 14 characters: both must print
  // whole, in columns wide enough for the longer one.
  const auto series = RunFixedSweep(spec, {{"SGD+AS,LS", FailAboveRate(0.25)},
                                           {"sort/bimodal/transient", FailAboveRate(1.0)},
                                           {"sort/bimodal/stuck", FailAboveRate(1.0)}});
  std::ostringstream os;
  harness::PrintSweepTable(os, "title", series, harness::TableValue::kSuccessRatePct,
                           "success (%)");
  const std::string text = os.str();
  EXPECT_NE(text.find("SGD+AS,LS"), std::string::npos);
  EXPECT_NE(text.find("sort/bimodal/transient"), std::string::npos);
  EXPECT_NE(text.find("sort/bimodal/stuck"), std::string::npos);
  EXPECT_NE(text.find("fault_rate"), std::string::npos);
  EXPECT_NE(text.find("100.0"), std::string::npos);
  EXPECT_NE(text.find("0.5"), std::string::npos);
  // Header, rule and both rate rows: 4 columns of 24 characters each.
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // title
  std::getline(lines, line);  // value label
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.size(), 4u * 24u) << line;
  }
}

TEST(Csv, WritesQuotedHeadersAndThrowsOnBadPath) {
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0};
  spec.fixed_trials = 1;
  const auto series = RunFixedSweep(spec, {{"SGD+AS,LS", FailAboveRate(1.0)}});
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

// A real kernel under real fault injection: robust sort on a seed-derived
// 4-element input, on faulty::Real or the per-op oracle's scalar type.
template <class T>
harness::TrialFn SortTrial() {
  return [](const core::FaultEnvironment& env) {
    std::mt19937_64 rng(env.seed * 7919);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> input(4);
    for (double& v : input) v = dist(rng);
    apps::LpSolveConfig config = apps::SortSgdAsSqs();
    config.sgd.iterations = 150;  // full descent shape, test-sized budget
    harness::TrialOutcome out;
    const apps::RobustSortResult r = oracle::WithFpu<T>(
        env, [&] { return apps::RobustSort<T>(input, config); }, &out.fpu_stats);
    out.success = r.valid && apps::IsSortedCopyOf(r.output, input);
    out.metric = static_cast<double>(out.fpu_stats.faults_injected);
    return out;
  };
}

std::string SweepCsvBytes(const campaign::CampaignSpec& spec,
                          const std::vector<harness::NamedTrial>& trials,
                          int threads, const std::string& tag) {
  const auto series = RunFixedSweep(spec, trials, threads);
  const std::string path = ::testing::TempDir() + "/robustify_golden_" + tag + ".csv";
  harness::WriteSweepCsv(path, series);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

// The sweep contract: output is a pure function of (spec, trial fns) —
// never of the worker count.  Byte-identical CSVs for 1, 2, and 8 threads,
// at rate 0 and under heavy fault injection alike.
TEST(Sweep, GoldenCsvByteIdenticalAcrossThreadCounts) {
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0, 0.05};
  spec.fixed_trials = 4;
  spec.base_seed = 33;
  const std::vector<harness::NamedTrial> trials = {
      {"SGD+AS,SQS", SortTrial<faulty::Real>()}};

  const std::string one = SweepCsvBytes(spec, trials, 1, "t1");
  const std::string two = SweepCsvBytes(spec, trials, 2, "t2");
  const std::string eight = SweepCsvBytes(spec, trials, 8, "t8");

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// At rate 0 neither injector ever samples a gap or flips a bit, so the
// injector implementation must be invisible: skip-ahead and the per-op
// oracle have to produce byte-identical sweep output.
TEST(Sweep, GoldenCsvByteIdenticalAcrossStrategiesAtRateZero) {
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0};
  spec.fixed_trials = 3;
  spec.base_seed = 44;

  const std::string skip = SweepCsvBytes(
      spec, {{"SGD+AS,SQS", SortTrial<faulty::Real>()}}, 1, "skip");
  const std::string perop = SweepCsvBytes(
      spec, {{"SGD+AS,SQS", SortTrial<oracle::PerOpReal>()}}, 1, "perop");

  EXPECT_FALSE(skip.empty());
  EXPECT_EQ(skip, perop);
}

}  // namespace
