// Campaign subsystem: spec parsing/registry, the Wilson stopping rule, the
// adaptive runner's determinism contract (thread-count, batch-size, and
// kill/resume invariance, byte-for-byte), and the golden adaptive-vs-fixed
// comparison on the real figure scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/adaptive.h"
#include "campaign/checkpoint.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "harness/csv.h"
#include "harness/trial.h"

namespace {

using namespace robustify;

// ---- spec format ------------------------------------------------------------

campaign::CampaignSpec SampleSpec() {
  campaign::CampaignSpec spec;
  spec.name = "sample";
  spec.app = "fig6_1";
  spec.series = {"Base", "SGD+AS,SQS"};
  spec.fault_rates = {0.0, 1e-4, 0.25};
  spec.fixed_trials = 7;
  spec.max_trials = 40;
  spec.min_trials = 5;
  spec.batch = 9;
  spec.ci_half_width = 0.08;
  spec.base_seed = 123;
  spec.bit_model = faulty::BitModel::kUniform;
  return spec;
}

TEST(CampaignSpec, FormatParseRoundTrip) {
  const campaign::CampaignSpec spec = SampleSpec();
  const std::string text = campaign::FormatSpec(spec);
  std::istringstream is(text);
  const campaign::CampaignSpec parsed = campaign::ParseSpec(is);
  EXPECT_EQ(campaign::FormatSpec(parsed), text);
  EXPECT_EQ(parsed.series, spec.series);
  EXPECT_EQ(parsed.fault_rates, spec.fault_rates);
  EXPECT_EQ(parsed.max_trials, spec.max_trials);
  EXPECT_EQ(campaign::SpecFingerprint(parsed), campaign::SpecFingerprint(spec));
}

// Batch size schedules speculation only — accepted tallies are invariant
// to it (CsvByteIdenticalAcrossThreadsAndBatches) — so a journal written
// under one batch size must resume under another.
TEST(CampaignSpec, FingerprintIgnoresBatch) {
  const campaign::CampaignSpec base = SampleSpec();
  campaign::CampaignSpec changed = base;
  changed.batch = base.batch + 7;
  EXPECT_EQ(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
}

TEST(CampaignSpec, ParseRateAxisSharedWithCli) {
  EXPECT_EQ(campaign::ParseRateAxis("0, 1e-4 ,0.25"),
            (std::vector<double>{0.0, 1e-4, 0.25}));
  EXPECT_EQ(campaign::ParseRateAxis("0,1"), (std::vector<double>{0.0, 1.0}));
  EXPECT_THROW(campaign::ParseRateAxis("0.1,"), std::runtime_error);
  EXPECT_THROW(campaign::ParseRateAxis(""), std::runtime_error);
  EXPECT_THROW(campaign::ParseRateAxis("0.1,x"), std::runtime_error);
  // A rate is a per-op probability: NaN (which the injector cannot scale to
  // its threshold) and rates outside [0, 1] (which it would clamp) are
  // refused, not run.
  for (const char* axis : {"nan", "0,nan", "-nan", "inf", "-inf", "-0.5,2", "-0.5",
                           "2", "0,1.0000001", "1e-3,-1e-9"}) {
    EXPECT_THROW(campaign::ParseRateAxis(axis), std::runtime_error) << axis;
  }
}

TEST(CampaignSpec, FingerprintSeesEveryOutcomeField) {
  const campaign::CampaignSpec base = SampleSpec();
  campaign::CampaignSpec changed = base;
  changed.fault_rates.push_back(0.5);
  EXPECT_NE(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
  changed = base;
  changed.base_seed += 1;
  EXPECT_NE(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
  changed = base;
  changed.series = {"Base"};
  EXPECT_NE(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
  changed = base;
  changed.guard.max_flops = 12345;
  EXPECT_NE(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
}

// Trial allocation decides how far each cell's deterministic outcome
// sequence gets sampled, never what the outcomes are — every run journals
// a prefix of the same sequences — so none of the allocation knobs may
// fragment the fingerprint (store cells cached at one ci must serve
// queries at another).
TEST(CampaignSpec, FingerprintIgnoresTrialAllocation) {
  const campaign::CampaignSpec base = SampleSpec();
  campaign::CampaignSpec changed = base;
  changed.ci_half_width = 0.0801;
  changed.min_trials += 3;
  changed.max_trials += 50;
  changed.fixed_trials += 2;
  EXPECT_EQ(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
}

TEST(CampaignSpec, FingerprintIgnoresShard) {
  const campaign::CampaignSpec base = SampleSpec();
  campaign::CampaignSpec changed = base;
  changed.shard_index = 2;
  changed.shard_count = 5;
  EXPECT_EQ(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
}

TEST(CampaignSpec, ShardRoundTripsThroughSpecText) {
  campaign::CampaignSpec spec = SampleSpec();
  spec.shard_index = 1;
  spec.shard_count = 3;
  const std::string text = campaign::FormatSpec(spec);
  EXPECT_NE(text.find("shard = 1/3"), std::string::npos);
  std::istringstream is(text);
  const campaign::CampaignSpec parsed = campaign::ParseSpec(is);
  EXPECT_EQ(parsed.shard_index, 1);
  EXPECT_EQ(parsed.shard_count, 3);
}

TEST(CampaignSpec, ParseShardRejectsMalformedSelections) {
  EXPECT_EQ(campaign::ParseShard("0/1"), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(campaign::ParseShard("2/3"), (std::pair<int, int>{2, 3}));
  // i >= N or N == 0 would silently own zero cells — must be loud.
  EXPECT_THROW(campaign::ParseShard("3/3"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("0/0"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("-1/3"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("x/2"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("1"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("1/"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("/3"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard(""), std::runtime_error);
  // A count past int range must not wrap into a plausible small one.
  EXPECT_THROW(campaign::ParseShard("0/4294967298"), std::runtime_error);
}

// The integer parsers the spec keys and the CLI/bench flags share: a value
// that does not fit its field is an error, never a wrapped or saturated one.
TEST(CampaignSpec, IntegerParsersRejectWrapAndRange) {
  EXPECT_EQ(campaign::ParseInt("--trials", "2147483647"), 2147483647);
  EXPECT_EQ(campaign::ParseInt("--trials", "-3"), -3);
  EXPECT_EQ(campaign::ParseInt("--threads", "0", 0), 0);
  EXPECT_THROW(campaign::ParseInt("--trials", "4294967298"), std::runtime_error);
  EXPECT_THROW(campaign::ParseInt("--trials", "2147483648"), std::runtime_error);
  EXPECT_THROW(campaign::ParseInt("--trials", "99999999999999999999"),
               std::runtime_error);
  EXPECT_THROW(campaign::ParseInt("--threads", "-7", 0), std::runtime_error);
  EXPECT_THROW(campaign::ParseInt("--rounds", "0", 1), std::runtime_error);
  EXPECT_THROW(campaign::ParseInt("--trials", "12x"), std::runtime_error);
  EXPECT_THROW(campaign::ParseInt("--trials", ""), std::runtime_error);

  EXPECT_EQ(campaign::ParseU64("--seed", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_THROW(campaign::ParseU64("--seed", "-1"), std::runtime_error);
  EXPECT_THROW(campaign::ParseU64("--seed", "18446744073709551616"),
               std::runtime_error);
  EXPECT_THROW(campaign::ParseU64("--seed", ""), std::runtime_error);
}

TEST(CampaignSpec, ParseRejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return campaign::ParseSpec(is);
  };
  EXPECT_THROW(parse("rates = 0,0.1\n"), std::runtime_error);  // missing app
  EXPECT_THROW(parse("app = fig6_1\n"), std::runtime_error);   // missing rates
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nbogus_key = 1\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0,zzz\n"), std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nmin_trials = 9\nbudget = 3\n"),
               std::runtime_error);
  // Shard selections that would own zero cells, and malformed i/N strings.
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nshard = 3/3\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nshard = 0/0\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nshard = x/2\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nshard = 1\n"),
               std::runtime_error);
  // Duplicate keys are an error, not last-wins; only series repeats.
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nseed = 1\nseed = 2\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nrates = 0.1\n"), std::runtime_error);
  // Integers that would wrap or saturate, so FormatSpec could not round-trip
  // them (found by ParserFuzz).
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nseed = -5\n"), std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nseed = 18446744073709551616\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\ntrials = 4294967297\n"),
               std::runtime_error);
  EXPECT_EQ(parse("app = fig6_1\nrates = 0\nseed = 18446744073709551615\n").base_seed,
            ~std::uint64_t{0});
  // A rate outside [0, 1] names its line.
  try {
    parse("app = fig6_6\n# rates next\nrates = 0, nan\n");
    ADD_FAILURE() << "a NaN rate parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("spec line 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[0, 1]"), std::string::npos) << e.what();
  }
}

TEST(CampaignSpec, ParseAcceptsCommentsAndSeriesLines) {
  std::istringstream is(
      "# a campaign\n"
      "app = fig6_1   # scenario key\n"
      "rates = 0, 0.1\n"
      "series = SGD+AS,SQS\n"
      "series = Base\n");
  const campaign::CampaignSpec spec = campaign::ParseSpec(is);
  EXPECT_EQ(spec.name, "fig6_1");  // defaults to the app
  ASSERT_EQ(spec.series.size(), 2u);
  EXPECT_EQ(spec.series[0], "SGD+AS,SQS");  // order preserved
  EXPECT_EQ(spec.fault_rates, (std::vector<double>{0.0, 0.1}));
}

TEST(CampaignRegistry, EveryEntryBuildsItsScenario) {
  ASSERT_FALSE(campaign::RegistryNames().empty());
  for (const std::string& name : campaign::RegistryNames()) {
    const campaign::CampaignSpec& spec = campaign::RegistrySpec(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.fault_rates.empty()) << name;
    const campaign::Scenario scenario = campaign::BuildScenario(spec);
    EXPECT_GE(scenario.series.size(), 2u) << name;
  }
  EXPECT_EQ(campaign::FindRegistrySpec("no_such_campaign"), nullptr);
  EXPECT_THROW(campaign::RegistrySpec("no_such_campaign"), std::runtime_error);
}

// Every registry campaign is a paper figure with its own robustify_cli_fig_*
// ctest: ROBUSTIFY_FIGURES is the CMake list those ctests are made from.
TEST(CampaignRegistry, NamesAreExactlyTheFigures) {
  std::vector<std::string> figures;
  std::istringstream list(ROBUSTIFY_FIGURES);
  for (std::string name; std::getline(list, name, ',');) figures.push_back(name);
  EXPECT_EQ(campaign::RegistryNames(), figures);
}

TEST(CampaignScenario, SeriesSubsetSelectsAndReorders) {
  campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_1");
  spec.series = {"SGD+AS,SQS", "Base"};
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  ASSERT_EQ(scenario.series.size(), 2u);
  EXPECT_EQ(scenario.series[0].name, "SGD+AS,SQS");
  EXPECT_EQ(scenario.series[1].name, "Base");
  spec.series = {"NoSuchSeries"};
  EXPECT_THROW(campaign::BuildScenario(spec), std::runtime_error);
}

// ---- the stopping rule ------------------------------------------------------

TEST(WilsonHalfWidth, MatchesClosedForm) {
  EXPECT_TRUE(std::isinf(campaign::WilsonHalfWidth(0, 0)));
  // p-hat = 1: half-width = z^2 / (2 (n + z^2)) with z = 1.96.
  EXPECT_NEAR(campaign::WilsonHalfWidth(8, 8), 0.16222, 1e-4);
  EXPECT_NEAR(campaign::WilsonHalfWidth(40, 40), 0.04381, 1e-4);
  // Symmetric in successes/failures.
  EXPECT_DOUBLE_EQ(campaign::WilsonHalfWidth(3, 10), campaign::WilsonHalfWidth(7, 10));
  // Tightens with n at fixed p-hat.
  EXPECT_LT(campaign::WilsonHalfWidth(50, 100), campaign::WilsonHalfWidth(5, 10));
}

TEST(CellController, StopsAtTheFirstQualifyingTrial) {
  campaign::AdaptiveConfig config;
  config.min_trials = 4;
  config.max_trials = 100;
  config.ci_half_width = 0.17;
  // All successes: half-width at p-hat = 1 crosses 0.17 at n = 8.
  campaign::CellController ctl(config);
  int n = 0;
  while (!ctl.done()) {
    ctl.Record(true);
    ++n;
  }
  EXPECT_EQ(n, 8);
  EXPECT_TRUE(ctl.settled());
  EXPECT_EQ(ctl.trials(), 8);
  EXPECT_EQ(ctl.successes(), 8);
}

TEST(CellController, RespectsFloorAndBudget) {
  campaign::AdaptiveConfig config;
  config.min_trials = 12;
  config.max_trials = 20;
  config.ci_half_width = 0.9;  // trivially met — but not before the floor
  campaign::CellController floor_ctl(config);
  int n = 0;
  while (!floor_ctl.done()) {
    floor_ctl.Record(true);
    ++n;
  }
  EXPECT_EQ(n, 12);
  EXPECT_TRUE(floor_ctl.settled());

  config.ci_half_width = 1e-6;  // unreachable: budget must cap the cell
  campaign::CellController cap_ctl(config);
  n = 0;
  while (!cap_ctl.done()) {
    cap_ctl.Record(n % 2 == 0);
    ++n;
  }
  EXPECT_EQ(n, 20);
  EXPECT_FALSE(cap_ctl.settled());
}

// The certain horizon against brute force: over every outcome sequence of
// up to 12 trials, trial t (t >= the accepted count) is below the horizon
// of a prefix exactly when every continuation of that prefix runs it —
// i.e. the horizon is the earliest stopping point among the continuations.
// The horizon is read after every Record() on one controller (exercising
// its resumed scan) and on a fresh one replaying the prefix; both must
// agree, and it must never decrease along a sequence.
TEST(CellControllerHorizon, MatchesExhaustiveEnumeration) {
  constexpr int kMaxN = 12;
  for (const int min_trials : {1, 3, 5, 12}) {
    for (const int max_trials : {3, 7, 12}) {
      if (max_trials < min_trials) continue;
      for (const double ci : {0.0, 0.1, 0.2, 0.3, 0.45, 0.9}) {
        campaign::AdaptiveConfig config;
        config.min_trials = min_trials;
        config.max_trials = max_trials;
        config.ci_half_width = ci;
        const std::string where = "min " + std::to_string(min_trials) + ", max " +
                                  std::to_string(max_trials) + ", ci " + std::to_string(ci);
        // earliest[m][bits]: the earliest stopping point over every
        // sequence whose first m outcomes are `bits` (bit i = trial i).
        std::vector<std::vector<int>> earliest(kMaxN + 1);
        for (int m = 0; m <= kMaxN; ++m) earliest[m].assign(1u << m, kMaxN + 1);
        for (unsigned seq = 0; seq < (1u << max_trials); ++seq) {
          campaign::CellController ctl(config);
          while (!ctl.done()) ctl.Record(((seq >> ctl.trials()) & 1u) != 0);
          const int stop = ctl.trials();
          for (int m = 0; m < stop; ++m) {
            int& e = earliest[m][seq & ((1u << m) - 1)];
            e = std::min(e, stop);
          }
        }
        for (unsigned seq = 0; seq < (1u << max_trials); ++seq) {
          campaign::CellController running(config);
          int last = 0;
          while (true) {
            const int m = running.trials();
            const int horizon = running.CertainHorizon();
            ASSERT_GE(horizon, last) << where;
            last = horizon;
            if (running.done()) {
              ASSERT_EQ(horizon, m) << where;
              break;
            }
            const unsigned bits = seq & ((1u << m) - 1);
            ASSERT_EQ(horizon, earliest[m][bits]) << where << ", prefix of " << m;
            campaign::CellController replayed(config);
            for (int t = 0; t < m; ++t) replayed.Record(((bits >> t) & 1u) != 0);
            ASSERT_EQ(replayed.CertainHorizon(), horizon) << where << ", prefix of " << m;
            running.Record(((seq >> m) & 1u) != 0);
          }
        }
      }
    }
  }
}

// ---- the runner: determinism contract ---------------------------------------

// A cheap deterministic stand-in for a real kernel: outcome is a pure
// function of (seed, fault_rate), success probability falling with rate.
harness::TrialFn SyntheticTrial() {
  return [](const core::FaultEnvironment& env) {
    std::uint64_t h = env.seed * 0x9E3779B97F4A7C15ull;
    std::uint64_t rate_bits = 0;
    std::memcpy(&rate_bits, &env.fault_rate, sizeof(rate_bits));
    h ^= rate_bits + 0xBF58476D1CE4E5B9ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    harness::TrialOutcome out;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    out.success = u > env.fault_rate * 1.6;
    out.metric = u;
    out.fpu_stats.faulty_flops = 100 + (h % 41);
    out.fpu_stats.faults_injected = h % 5;
    return out;
  };
}

campaign::CampaignSpec SyntheticSpec() {
  campaign::CampaignSpec spec;
  spec.name = "synthetic";
  spec.app = "synthetic";
  spec.fault_rates = {0.0, 0.3, 0.62};
  spec.fixed_trials = 30;
  spec.max_trials = 30;
  spec.min_trials = 4;
  spec.batch = 8;
  spec.ci_half_width = 0.2;
  spec.base_seed = 977;
  return spec;
}

campaign::Scenario SyntheticScenario() {
  campaign::Scenario scenario;
  scenario.app = "synthetic";
  scenario.title = "synthetic";
  scenario.value = harness::TableValue::kSuccessRatePct;
  scenario.value_label = "success rate (%)";
  scenario.series = {{"A", SyntheticTrial()}, {"B", SyntheticTrial()}};
  return scenario;
}

std::string CampaignCsvBytes(const campaign::CampaignResult& result,
                             const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/robustify_campaign_" + tag + ".csv";
  harness::WriteSweepCsv(path, result.series);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

// The adaptive run of a cell is an exact prefix of the fixed run: same
// seeds, same outcomes, stopped at the deterministic point.
TEST(Campaign, AdaptiveCellsArePrefixesOfTheFixedSweep) {
  const campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario scenario = SyntheticScenario();

  campaign::RunnerOptions fixed;
  fixed.threads = 1;
  fixed.adaptive = false;
  const campaign::CampaignResult full =
      campaign::RunCampaign(spec, scenario, fixed);

  campaign::RunnerOptions adaptive;
  adaptive.threads = 1;
  const campaign::CampaignResult adaptive_result =
      campaign::RunCampaign(spec, scenario, adaptive);

  ASSERT_EQ(adaptive_result.series.size(), full.series.size());
  for (std::size_t s = 0; s < full.series.size(); ++s) {
    for (std::size_t r = 0; r < full.series[s].points.size(); ++r) {
      const harness::TrialSummary& a = adaptive_result.series[s].points[r].summary;
      const harness::TrialSummary& f = full.series[s].points[r].summary;
      ASSERT_LE(a.trials, f.trials);
      // Re-run the prefix directly to confirm outcome-level identity.
      std::vector<harness::TrialOutcome> prefix;
      core::FaultEnvironment env;
      env.fault_rate = spec.fault_rates[r];
      env.seed = spec.base_seed;
      for (int t = 0; t < a.trials; ++t) {
        prefix.push_back(harness::RunSingleTrial(scenario.series[s].fn, env, t));
      }
      const harness::TrialSummary expect = harness::SummarizeOutcomes(prefix);
      EXPECT_EQ(a.successes, expect.successes);
      EXPECT_EQ(a.median_metric, expect.median_metric);
      EXPECT_EQ(a.mean_metric, expect.mean_metric);
      EXPECT_EQ(a.mean_faulty_flops, expect.mean_faulty_flops);
    }
  }
  EXPECT_LT(adaptive_result.total_trials, full.total_trials);
}

TEST(Campaign, CsvByteIdenticalAcrossThreadsAndBatches) {
  campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario scenario = SyntheticScenario();

  campaign::RunnerOptions options;
  options.threads = 1;
  spec.batch = 8;
  const std::string reference =
      CampaignCsvBytes(campaign::RunCampaign(spec, scenario, options), "ref");
  EXPECT_FALSE(reference.empty());

  for (const int threads : {2, 8}) {
    for (const int batch : {1, 3, 32}) {
      options.threads = threads;
      spec.batch = batch;
      const std::string got = CampaignCsvBytes(
          campaign::RunCampaign(spec, scenario, options),
          "t" + std::to_string(threads) + "b" + std::to_string(batch));
      EXPECT_EQ(got, reference) << threads << " threads, batch " << batch;
    }
  }
}

// The runner claims (cell, batch) units, so one cell's trials spread over
// several workers: 16 sleeping trials of a single cell at 4 threads must
// not all land on one thread.
TEST(Campaign, OneCellRunsOnSeveralWorkers) {
  std::mutex mu;
  std::set<std::thread::id> workers;
  campaign::Scenario scenario;
  scenario.series = {{"sleepy", [&](const core::FaultEnvironment&) {
                        std::this_thread::sleep_for(std::chrono::milliseconds(5));
                        std::lock_guard<std::mutex> lock(mu);
                        workers.insert(std::this_thread::get_id());
                        return harness::TrialOutcome{};
                      }}};
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0};
  spec.fixed_trials = 16;
  campaign::RunnerOptions options;
  options.threads = 4;
  options.adaptive = false;
  const campaign::CampaignResult result = campaign::RunCampaign(spec, scenario, options);
  EXPECT_EQ(result.total_trials, 16);
  EXPECT_GT(workers.size(), 1u);
}

// Speculation is bounded the same way at every thread count: a batch runs
// early only while its first trial is below the cell's certain horizon,
// and otherwise only once the horizon passes it, so the number of trials
// *executed* (accepted or discarded) is the per-cell sequential
// schedule's — run batch after batch until the stopping rule fires — at 1,
// 2 and 8 threads.  The tight-ci spec keeps cells open far past
// min_trials, where the horizon, not the floor, decides what runs early.
TEST(Campaign, ExecutedTrialsAreThreadInvariant) {
  campaign::CampaignSpec wide = SyntheticSpec();
  wide.batch = 3;
  campaign::CampaignSpec tight = SyntheticSpec();
  tight.max_trials = 120;
  tight.ci_half_width = 0.09;
  for (const campaign::CampaignSpec& base : {wide, tight}) {
    for (const int batch : {base.batch, 2}) {
      campaign::CampaignSpec spec = base;
      spec.batch = batch;
      campaign::Scenario scenario = SyntheticScenario();
      const std::string where =
          "ci " + std::to_string(spec.ci_half_width) + ", batch " + std::to_string(batch);

      // The sequential schedule: each cell runs whole batches until its
      // controller is done.
      long expected = 0;
      for (const harness::NamedTrial& series : scenario.series) {
        for (std::size_t r = 0; r < spec.fault_rates.size(); ++r) {
          const core::FaultEnvironment env =
              campaign::SpecEnvironment(spec, static_cast<int>(r));
          campaign::CellController controller(campaign::SpecAdaptiveConfig(spec, true));
          for (int base_trial = 0; !controller.done(); base_trial += spec.batch) {
            const int end = std::min(base_trial + spec.batch, spec.max_trials);
            expected += end - base_trial;
            for (int t = base_trial; t < end && !controller.done(); ++t) {
              controller.Record(harness::RunSingleTrial(series.fn, env, t).success);
            }
          }
        }
      }
      ASSERT_LT(expected, static_cast<long>(spec.max_trials) * 6) << where;  // fires early

      std::atomic<long> executed{0};
      for (harness::NamedTrial& series : scenario.series) {
        series.fn = [&executed, fn = series.fn](const core::FaultEnvironment& env) {
          executed.fetch_add(1);
          return fn(env);
        };
      }
      for (const int threads : {1, 2, 8}) {
        executed.store(0);
        campaign::RunnerOptions options;
        options.threads = threads;
        campaign::RunCampaign(spec, scenario, options);
        EXPECT_EQ(executed.load(), expected) << where << ", " << threads << " threads";
      }
    }
  }
}

// Two trials of one cell past min_trials are in flight at once when the
// horizon allows it: with every trial succeeding and ci 0.15, the rule
// cannot fire before 9 trials, so trials 4 and 5 are both certain.  Each
// of them waits (bounded) for the other at a latch; a runner that ran the
// trials past min_trials one at a time would time out here, not hang.
TEST(Campaign, TrialsBelowTheHorizonRunConcurrentlyPastMinTrials) {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> met{0};
  constexpr std::uint64_t kSeed = 500;
  campaign::Scenario scenario;
  scenario.series = {{"latch", [&](const core::FaultEnvironment& env) {
                        const std::uint64_t t = env.seed - kSeed;
                        if (t == 4 || t == 5) {
                          std::unique_lock<std::mutex> lock(mu);
                          ++arrived;
                          cv.notify_all();
                          if (cv.wait_for(lock, std::chrono::seconds(5),
                                          [&] { return arrived >= 2; })) {
                            met.fetch_add(1);
                          }
                        }
                        harness::TrialOutcome out;
                        out.success = true;
                        return out;
                      }}};
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0};
  spec.min_trials = 4;
  spec.max_trials = 40;
  spec.ci_half_width = 0.15;
  spec.base_seed = kSeed;
  campaign::CellController probe(campaign::SpecAdaptiveConfig(spec, true));
  ASSERT_EQ(probe.CertainHorizon(), 9);

  campaign::RunnerOptions options;
  options.threads = 4;
  const campaign::CampaignResult result = campaign::RunCampaign(spec, scenario, options);
  EXPECT_EQ(result.total_trials, 9);
  EXPECT_EQ(met.load(), 2) << "trials 4 and 5 never ran at the same time";
}

// A trial that throws fails the run instead of stranding the workers that
// wait for the batches deferred behind it: RunCampaign rethrows and every
// worker returns.
TEST(Campaign, ThrowingTrialFailsTheRunWithoutHanging) {
  campaign::CampaignSpec spec = SyntheticSpec();
  spec.max_trials = 200;
  spec.ci_half_width = 0.01;  // every cell stays open, with batches deferred
  spec.batch = 1;
  campaign::Scenario scenario = SyntheticScenario();
  scenario.series[1].fn = [fn = scenario.series[1].fn](const core::FaultEnvironment& env) {
    if (env.seed - 977 == 40) throw std::runtime_error("trial 40 failed");
    return fn(env);
  };
  for (const int threads : {1, 4}) {
    campaign::RunnerOptions options;
    options.threads = threads;
    EXPECT_THROW(campaign::RunCampaign(spec, scenario, options), std::runtime_error)
        << threads << " threads";
  }
}

// ---- the runner: kill/resume contract ---------------------------------------

// Simulates a kill by truncating the journal to a prefix (including a torn
// final line) and resuming: the final CSV must be byte-identical to the
// uninterrupted run's.
TEST(Campaign, ResumeFromTruncatedJournalIsByteIdentical) {
  const campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario scenario = SyntheticScenario();
  const std::string journal = ::testing::TempDir() + "/robustify_resume.journal";

  campaign::RunnerOptions options;
  options.threads = 2;
  options.journal_path = journal;
  const std::string uninterrupted =
      CampaignCsvBytes(campaign::RunCampaign(spec, scenario, options), "full");

  // Read the completed journal once; replay increasingly short prefixes.
  std::ifstream in(journal);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 20u);

  for (const std::size_t keep : {lines.size() / 4, lines.size() / 2, 1ul}) {
    {
      std::ofstream out(journal, std::ios::trunc);
      for (std::size_t i = 0; i < keep; ++i) out << lines[i] << "\n";
      out << "t 1 2 9 1 0x1.8p+1 12";  // torn mid-write: no trailing fields
    }
    campaign::RunnerOptions resume = options;
    resume.resume = true;
    const campaign::CampaignResult result =
        campaign::RunCampaign(spec, scenario, resume);
    EXPECT_EQ(CampaignCsvBytes(result, "resume" + std::to_string(keep)),
              uninterrupted)
        << "resumed from " << keep << " journal lines";
    if (keep > 1) {
      EXPECT_GT(result.resumed_trials, 0);
    }
  }
  std::remove(journal.c_str());
}

TEST(Campaign, ResumeRejectsMismatchedSpec) {
  campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario scenario = SyntheticScenario();
  const std::string journal = ::testing::TempDir() + "/robustify_mismatch.journal";

  campaign::RunnerOptions options;
  options.threads = 1;
  options.journal_path = journal;
  campaign::RunCampaign(spec, scenario, options);

  spec.fault_rates.push_back(0.9);  // different axis, same journal
  options.resume = true;
  EXPECT_THROW(campaign::RunCampaign(spec, scenario, options), std::runtime_error);

  options.journal_path = ::testing::TempDir() + "/robustify_absent.journal";
  EXPECT_THROW(campaign::RunCampaign(spec, scenario, options), std::runtime_error);
  std::remove(journal.c_str());
}

// ---- golden comparison on the real figures ----------------------------------
//
// Acceptance contract: an adaptive campaign reproduces the fixed-budget
// success rate of every cell within the statistical tolerance of the two
// estimates (their Wilson half-widths; the adaptive tallies are an exact
// prefix of the fixed ones, so this is the whole discrepancy bound).  Axes
// and series are reduced to keep the suite fast; the full-axis version of
// the same comparison is what the committed perf JSONs measure.

void GoldenCompare(const std::string& fig, std::vector<double> rates,
                   std::vector<std::string> series, int budget, double ci) {
  campaign::CampaignSpec spec = campaign::RegistrySpec(fig);
  spec.fault_rates = std::move(rates);
  spec.series = std::move(series);
  spec.fixed_trials = budget;
  spec.max_trials = budget;
  spec.ci_half_width = ci;
  const campaign::Scenario scenario = campaign::BuildScenario(spec);

  campaign::RunnerOptions fixed;
  fixed.adaptive = false;
  const campaign::CampaignResult full = campaign::RunCampaign(spec, scenario, fixed);

  campaign::RunnerOptions adaptive;
  const campaign::CampaignResult adapt = campaign::RunCampaign(spec, scenario, adaptive);

  for (std::size_t s = 0; s < full.series.size(); ++s) {
    for (std::size_t r = 0; r < full.series[s].points.size(); ++r) {
      const harness::TrialSummary& f = full.series[s].points[r].summary;
      const harness::TrialSummary& a = adapt.series[s].points[r].summary;
      const double tolerance =
          campaign::WilsonHalfWidth(a.successes, a.trials) +
          campaign::WilsonHalfWidth(f.successes, f.trials);
      EXPECT_LE(std::abs(a.success_rate_pct - f.success_rate_pct) / 100.0,
                tolerance)
          << fig << " series " << full.series[s].name << " rate "
          << full.series[s].points[r].fault_rate << ": adaptive "
          << a.success_rate_pct << "% over " << a.trials << " trials vs fixed "
          << f.success_rate_pct << "% over " << f.trials;
    }
  }
  EXPECT_LE(adapt.total_trials, full.total_trials);
}

TEST(CampaignGolden, Fig61AdaptiveMatchesFixedWithinCi) {
  GoldenCompare("fig6_1", {0.0, 0.05, 0.3}, {"Base", "SGD+AS,SQS"}, 16, 0.2);
}

TEST(CampaignGolden, Fig62AdaptiveMatchesFixedWithinCi) {
  GoldenCompare("fig6_2", {0.0, 1e-3, 0.05}, {}, 16, 0.2);
}

TEST(CampaignGolden, Fig66AdaptiveMatchesFixedWithinCi) {
  GoldenCompare("fig6_6", {0.0, 1e-3, 1e-1}, {}, 16, 0.2);
}

}  // namespace
