// Campaign subsystem: spec parsing/registry, the Wilson stopping rule, the
// adaptive runner's determinism contract (thread-count, batch-size, and
// kill/resume invariance, byte-for-byte), and the golden adaptive-vs-fixed
// comparison on the real figure scenarios.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
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
  EXPECT_THROW(campaign::ParseRateAxis("0.1,"), std::runtime_error);
  EXPECT_THROW(campaign::ParseRateAxis(""), std::runtime_error);
  EXPECT_THROW(campaign::ParseRateAxis("0.1,x"), std::runtime_error);
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
    EXPECT_FALSE(scenario.csv_name.empty()) << name;
  }
  EXPECT_EQ(campaign::FindRegistrySpec("no_such_campaign"), nullptr);
  EXPECT_THROW(campaign::RegistrySpec("no_such_campaign"), std::runtime_error);
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
  scenario.csv_name = "synthetic.csv";
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
    if (keep > 1) EXPECT_GT(result.resumed_trials, 0);
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
