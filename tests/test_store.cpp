// Result store + query service: the serving tier over the trial engine.
//
// The load-bearing guarantees:
//   * N shard runs of one spec merge into the store and reduce to a CSV
//     byte-identical to the single-process run (N ∈ {2, 3}, including a
//     shard interrupted mid-run and resumed, and a shard journal with a
//     torn tail);
//   * merge is deterministic and idempotent — duplicate cells resolve to
//     the higher trial count, re-ingestion is a no-op, and a journal from
//     a different spec (fingerprint mismatch) is rejected;
//   * a query served from cache at equal-or-looser precision returns the
//     identical interval and runs zero trials; a miss runs fresh trials
//     that extend the cell's deterministic sequence and writes them back;
//   * the logistic cliff surrogate agrees with every stored on-grid cell
//     to within that cell's Wilson half-width, and off-grid queries inside
//     its support are answered without touching the trial engine;
//   * the resident index parses a journal once, sees another instance's
//     appends and compactions on its next call, and stays consistent under
//     concurrent reads and writes; a delta write appends, a torn delta is
//     dropped on load and forces the next write to compact, and a
//     compacted journal is byte-identical to a full rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "campaign/adaptive.h"
#include "campaign/checkpoint.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "core/fault_env.h"
#include "harness/csv.h"
#include "harness/trial.h"
#include "service/query_service.h"
#include "service/surrogate.h"
#include "store/result_store.h"
#include "telemetry/telemetry.h"

namespace {

using namespace robustify;

// Deterministic synthetic trial with an exactly-logistic cliff in log-rate:
// p(success) = 1 / (1 + (rate / 0.1)^2), so the surrogate's model class
// contains the truth and on-grid agreement is a sharp test of the fit.
harness::TrialFn CliffTrial() {
  return [](const core::FaultEnvironment& env) {
    std::uint64_t h = env.seed * 0x9E3779B97F4A7C15ull;
    std::uint64_t rate_bits = 0;
    std::memcpy(&rate_bits, &env.fault_rate, sizeof(rate_bits));
    h ^= rate_bits + 0xBF58476D1CE4E5B9ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const double ratio = env.fault_rate / 0.1;
    const double p = 1.0 / (1.0 + ratio * ratio);
    harness::TrialOutcome out;
    out.success = u < p;
    out.metric = u;
    out.fpu_stats.faulty_flops = 50 + (h % 17);
    out.fpu_stats.faults_injected = h % 3;
    return out;
  };
}

campaign::CampaignSpec StoreSpec() {
  campaign::CampaignSpec spec;
  spec.name = "store_synth";
  spec.app = "store_synth";
  spec.fault_rates = {0.02, 0.05, 0.1, 0.2, 0.4};
  spec.min_trials = 6;
  spec.max_trials = 40;
  spec.ci_half_width = 0.12;
  spec.fixed_trials = 40;
  spec.base_seed = 31337;
  return spec;
}

campaign::Scenario StoreScenario() {
  campaign::Scenario scenario;
  scenario.app = "store_synth";
  scenario.title = "store_synth";
  scenario.value = harness::TableValue::kSuccessRatePct;
  scenario.value_label = "success rate (%)";
  scenario.series = {{"A", CliffTrial()}, {"B", CliffTrial()}};
  return scenario;
}

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/robustify_store_" + tag;
}

std::string CsvBytes(const std::vector<harness::Series>& series,
                     const std::string& tag) {
  const std::string path = TempPath(tag) + ".csv";
  harness::WriteSweepCsv(path, series);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

// Runs the spec unsharded (journal-free) and returns its CSV bytes.
std::string GoldenCsv(const campaign::CampaignSpec& spec,
                      const campaign::Scenario& scenario,
                      const std::string& tag) {
  campaign::RunnerOptions options;
  options.threads = 2;
  const campaign::CampaignResult result =
      campaign::RunCampaign(spec, scenario, options);
  return CsvBytes(result.series, tag);
}

// Runs shard i/N with a journal, returning the journal path.
std::string RunShard(const campaign::CampaignSpec& base,
                     const campaign::Scenario& scenario, int index, int count,
                     const std::string& tag) {
  campaign::CampaignSpec spec = base;
  spec.shard_index = index;
  spec.shard_count = count;
  campaign::RunnerOptions options;
  options.threads = 2;
  options.journal_path = TempPath(tag) + ".shard" + std::to_string(index) +
                         "of" + std::to_string(count) + ".journal";
  campaign::RunCampaign(spec, scenario, options);
  return options.journal_path;
}

std::string MergedCsv(store::ResultStore* rs,
                      const campaign::CampaignSpec& spec,
                      const campaign::Scenario& scenario,
                      const std::string& tag) {
  const store::StoredCells stored = rs->Load(spec);
  const campaign::CampaignResult result =
      campaign::ReduceRecords(spec, scenario, stored.records, /*adaptive=*/true);
  return CsvBytes(result.series, tag);
}

TEST(ResultStore, ShardedMergeIsByteIdenticalToSingleProcessRun) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  const std::string golden = GoldenCsv(spec, scenario, "golden");
  ASSERT_FALSE(golden.empty());

  for (const int shards : {2, 3}) {
    const std::string tag = "merge_n" + std::to_string(shards);
    std::filesystem::remove_all(TempPath(tag) + ".store");
    store::ResultStore rs(TempPath(tag) + ".store");
    for (int i = 0; i < shards; ++i) {
      const std::string journal = RunShard(spec, scenario, i, shards, tag);
      rs.IngestJournal(spec, journal);
      std::remove(journal.c_str());
    }
    EXPECT_EQ(MergedCsv(&rs, spec, scenario, tag), golden) << shards;
  }
}

// A shard killed mid-run leaves a journal holding a prefix (possibly with a
// torn final line); resuming completes it and the merge is still exact.
TEST(ResultStore, InterruptedShardResumesAndMergesExactly) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  const std::string golden = GoldenCsv(spec, scenario, "golden_resume");

  std::filesystem::remove_all(TempPath("resume") + ".store");
  store::ResultStore rs(TempPath("resume") + ".store");

  // Shard 0 runs fully; shard 1's journal is truncated mid-record to model
  // a SIGKILL between flushes, then resumed.
  rs.IngestJournal(spec, RunShard(spec, scenario, 0, 2, "resume"));
  const std::string shard1 = RunShard(spec, scenario, 1, 2, "resume");
  {
    std::ifstream in(shard1, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    ASSERT_GT(bytes.size(), 120u);
    bytes.resize(bytes.size() * 2 / 3);  // torn tail: mid-line truncation
    std::ofstream out(shard1, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  campaign::CampaignSpec shard_spec = spec;
  shard_spec.shard_index = 1;
  shard_spec.shard_count = 2;
  campaign::RunnerOptions resume;
  resume.threads = 2;
  resume.journal_path = shard1;
  resume.resume = true;
  campaign::RunCampaign(shard_spec, scenario, resume);
  rs.IngestJournal(spec, shard1);
  std::remove(shard1.c_str());

  EXPECT_EQ(MergedCsv(&rs, spec, scenario, "resume"), golden);
}

// A torn tail in an ingested journal is dropped, never merged: ingesting
// the truncated journal plus the intact one still reproduces the golden.
TEST(ResultStore, TornTailDoesNotPoisonMerge) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  const std::string golden = GoldenCsv(spec, scenario, "golden_torn");

  std::filesystem::remove_all(TempPath("torn") + ".store");
  store::ResultStore rs(TempPath("torn") + ".store");
  const std::string shard0 = RunShard(spec, scenario, 0, 2, "torn");
  const std::string shard1 = RunShard(spec, scenario, 1, 2, "torn");
  {
    // Tear the tail of shard 0's journal, then ingest BOTH the torn copy
    // and the intact original: the torn records must be re-supplied by the
    // intact ingest, and nothing malformed may survive.
    std::ifstream in(shard0, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    const std::string torn = shard0 + ".torn";
    std::ofstream out(torn, std::ios::binary);
    out << bytes.substr(0, bytes.size() - 7) << std::flush;
    rs.IngestJournal(spec, torn);
    std::remove(torn.c_str());
  }
  rs.IngestJournal(spec, shard0);
  rs.IngestJournal(spec, shard1);
  std::remove(shard0.c_str());
  std::remove(shard1.c_str());
  EXPECT_EQ(MergedCsv(&rs, spec, scenario, "torn"), golden);
}

TEST(ResultStore, DuplicateCellHigherTrialCountWinsAndIngestIsIdempotent) {
  const campaign::CampaignSpec spec = StoreSpec();
  std::filesystem::remove_all(TempPath("dup") + ".store");
  store::ResultStore rs(TempPath("dup") + ".store");

  const auto record = [](int trial, bool success) {
    campaign::TrialRecord r;
    r.series = 0;
    r.rate = 1;
    r.trial = trial;
    r.success = success;
    r.verdict = success ? 0 : 1;  // journal lines must be verdict-consistent
    r.metric = 0.5;
    return r;
  };
  std::vector<campaign::TrialRecord> shorter, longer;
  for (int t = 0; t < 5; ++t) shorter.push_back(record(t, t % 2 == 0));
  for (int t = 0; t < 9; ++t) longer.push_back(record(t, t % 2 == 0));

  store::ResultStore::IngestStats stats = rs.IngestRecords(spec, shorter);
  EXPECT_EQ(stats.cells_updated, 1);
  EXPECT_EQ(stats.records_added, 5);
  // The same cell from a second shard run with more trials: longer wins.
  stats = rs.IngestRecords(spec, longer);
  EXPECT_EQ(stats.cells_updated, 1);
  EXPECT_EQ(stats.records_added, 4);
  EXPECT_EQ(rs.Load(spec).records.size(), 9u);
  // Re-ingesting the shorter duplicate is a no-op, in either order.
  stats = rs.IngestRecords(spec, shorter);
  EXPECT_EQ(stats.cells_updated, 0);
  EXPECT_EQ(stats.records_added, 0);
  stats = rs.IngestRecords(spec, longer);
  EXPECT_EQ(stats.cells_updated, 0);
  EXPECT_EQ(rs.Load(spec).records.size(), 9u);
}

TEST(ResultStore, NonContiguousRecordsTruncateAtTheGap) {
  const campaign::CampaignSpec spec = StoreSpec();
  std::filesystem::remove_all(TempPath("gap") + ".store");
  store::ResultStore rs(TempPath("gap") + ".store");
  std::vector<campaign::TrialRecord> records;
  for (const int t : {0, 1, 3, 4}) {  // trial 2 missing
    campaign::TrialRecord r;
    r.series = 1;
    r.rate = 0;
    r.trial = t;
    r.verdict = 1;  // success == false
    records.push_back(r);
  }
  const store::ResultStore::IngestStats stats = rs.IngestRecords(spec, records);
  EXPECT_EQ(stats.records_added, 2);  // only the contiguous prefix {0, 1}
  EXPECT_EQ(rs.Load(spec).records.size(), 2u);
}

TEST(ResultStore, MismatchedFingerprintIsRejected) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  const std::string journal = RunShard(spec, scenario, 0, 2, "fpr");

  campaign::CampaignSpec other = spec;
  other.base_seed += 1;  // a different campaign's outcome sequences
  std::filesystem::remove_all(TempPath("fpr") + ".store");
  store::ResultStore rs(TempPath("fpr") + ".store");
  EXPECT_THROW(rs.IngestJournal(other, journal), std::runtime_error);
  // Allocation knobs do NOT refingerprint: the same journal ingests under a
  // tighter ci / larger budget.
  campaign::CampaignSpec tighter = spec;
  tighter.ci_half_width = 0.01;
  tighter.max_trials = 500;
  EXPECT_GT(rs.IngestJournal(tighter, journal).records_added, 0);
  std::remove(journal.c_str());
}

// ---- query service ----------------------------------------------------------

struct ServiceFixture {
  campaign::CampaignSpec spec = StoreSpec();
  campaign::Scenario scenario = StoreScenario();
  std::unique_ptr<store::ResultStore> rs;
  std::unique_ptr<service::QueryService> qs;

  explicit ServiceFixture(const std::string& tag, bool prefill = true) {
    const std::string root = TempPath(tag) + ".store";
    std::filesystem::remove_all(root);
    rs = std::make_unique<store::ResultStore>(root);
    qs = std::make_unique<service::QueryService>(rs.get());
    qs->RegisterSpec(spec, StoreScenario());
    if (prefill) {
      const std::string journal = RunShard(spec, scenario, 0, 1, tag);
      rs->IngestJournal(spec, journal);
      std::remove(journal.c_str());
    }
  }

  service::Query Q(const std::string& series, double rate, double ci) const {
    service::Query q;
    q.app = spec.app;
    q.series = series;
    q.rate = rate;
    q.ci = ci;
    return q;
  }
};

TEST(QueryService, CachedCellServedAtEqualOrLooserPrecision) {
  ServiceFixture f("hit");
  // The campaign ran at ci=0.12; a looser request must be a pure cache hit.
  const service::Answer a = f.qs->Handle(f.Q("A", 0.1, 0.3));
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.source, "cache");
  EXPECT_EQ(a.fresh_trials, 0);
  EXPECT_TRUE(a.on_grid);
  EXPECT_TRUE(a.settled);
  EXPECT_LE(a.half_width, 0.3);
  EXPECT_GE(a.trials, f.spec.min_trials);
  // Asking again — and again at a looser ci — returns the same interval.
  const service::Answer b = f.qs->Handle(f.Q("A", 0.1, 0.3));
  const service::Answer c = f.qs->Handle(f.Q("A", 0.1, 0.45));
  for (const service::Answer* r : {&b, &c}) {
    EXPECT_EQ(r->source, "cache");
    EXPECT_EQ(r->fresh_trials, 0);
    EXPECT_EQ(r->success_rate, a.success_rate);
    EXPECT_EQ(r->half_width, a.half_width);
    EXPECT_EQ(r->trials, a.trials);
  }
}

TEST(QueryService, TighterPrecisionRunsFreshTrialsOnceThenCaches) {
  ServiceFixture f("tighten");
  campaign::CampaignSpec wide = f.spec;
  wide.max_trials = 400;  // allocation knob: same fingerprint, deeper budget
  f.qs->RegisterSpec(wide, StoreScenario());

  const int before = static_cast<int>(f.rs->Load(f.spec).records.size());
  service::Query tight = f.Q("A", 0.1, 0.05);
  const service::Answer fresh = f.qs->Handle(tight);
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_EQ(fresh.source, "fresh-trials");
  EXPECT_GT(fresh.fresh_trials, 0);
  EXPECT_TRUE(fresh.settled);
  EXPECT_LE(fresh.half_width, 0.05);
  // The extension was written back.
  EXPECT_GT(static_cast<int>(f.rs->Load(f.spec).records.size()), before);

  // Repeat at the same ci: zero trials, identical interval.
  const service::Answer again = f.qs->Handle(tight);
  EXPECT_EQ(again.source, "cache");
  EXPECT_EQ(again.fresh_trials, 0);
  EXPECT_EQ(again.success_rate, fresh.success_rate);
  EXPECT_EQ(again.half_width, fresh.half_width);
  EXPECT_EQ(again.trials, fresh.trials);

  // And the campaign's own CSV is unaffected by the deeper store cell:
  // reduction truncates at the spec's stopping point.
  const std::string golden = GoldenCsv(f.spec, f.scenario, "tighten_golden");
  EXPECT_EQ(MergedCsv(f.rs.get(), f.spec, f.scenario, "tighten_after"), golden);
}

// Fresh trials extend the SAME deterministic sequence the campaign would
// run: a cell answered fresh from an empty store matches the campaign's
// tally for the same (cell, trial count).
TEST(QueryService, FreshTrialsExtendTheDeterministicSequence) {
  ServiceFixture f("det", /*prefill=*/false);
  const service::Answer a = f.qs->Handle(f.Q("B", 0.2, 0.12));
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.source, "fresh-trials");

  campaign::RunnerOptions options;
  options.threads = 1;
  const campaign::CampaignResult campaign_run =
      campaign::RunCampaign(f.spec, f.scenario, options);
  // Series B is index 1; rate 0.2 is index 3.
  const harness::TrialSummary& cell = campaign_run.series[1].points[3].summary;
  EXPECT_EQ(a.trials, cell.trials);
  EXPECT_EQ(a.successes, cell.successes);
}

TEST(QueryService, MissWithFreshDisallowedFailsLoudly) {
  ServiceFixture f("nofresh", /*prefill=*/false);
  service::Query q = f.Q("A", 0.1, 0.12);
  q.allow_fresh = false;
  q.allow_surrogate = false;
  const service::Answer a = f.qs->Handle(q);
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.error.find("fresh trials disallowed"), std::string::npos);
  // Unknown series and apps are errors, not crashes.
  EXPECT_FALSE(f.qs->Handle(f.Q("NoSuchSeries", 0.1, 0.1)).ok);
  service::Query bad = f.Q("A", 0.1, 0.1);
  bad.app = "no_such_app";
  EXPECT_FALSE(f.qs->Handle(bad).ok);
}

// Rates are probabilities: a query outside [0, 1] (NaN included) is an
// error, never a fresh campaign at a rate the injector would clamp.
TEST(QueryService, RejectsRatesOutsideTheUnitInterval) {
  ServiceFixture f("badrate", /*prefill=*/false);
  for (const double rate : {2.0, 1.0000001, -0.5, std::nan(""),
                            std::numeric_limits<double>::infinity()}) {
    const service::Answer a = f.qs->Handle(f.Q("A", rate, 0.2));
    EXPECT_FALSE(a.ok) << "rate " << rate;
    EXPECT_NE(a.error.find("[0, 1]"), std::string::npos) << a.error;
  }
}

TEST(QueryService, SurrogateAgreesWithStoredCellsWithinWilsonHalfWidths) {
  ServiceFixture f("surr");
  // Build the surrogate exactly as the service does and check every stored
  // on-grid cell of series A.
  const store::StoredCells stored = f.rs->Load(f.spec);
  std::vector<service::CellTally> tallies;
  for (std::size_t r = 0; r < f.spec.fault_rates.size(); ++r) {
    int trials = 0, successes = 0;
    for (const campaign::TrialRecord& rec : stored.records) {
      if (rec.series != 0 || rec.rate != static_cast<int>(r)) continue;
      ++trials;
      if (rec.success) ++successes;
    }
    ASSERT_GT(trials, 0) << "rate index " << r;
    tallies.push_back({f.spec.fault_rates[r], successes, trials});
  }
  const service::CliffSurrogate fit = service::FitCliffSurrogate(tallies);
  ASSERT_TRUE(fit.valid);
  for (const service::CellTally& cell : tallies) {
    const double observed =
        static_cast<double>(cell.successes) / cell.trials;
    const double hw = campaign::WilsonHalfWidth(cell.successes, cell.trials);
    EXPECT_NEAR(fit.Predict(cell.rate), observed, hw)
        << "rate " << cell.rate;
  }

  // Off-grid inside the support: answered by the surrogate, zero trials.
  const service::Answer off = f.qs->Handle(f.Q("A", 0.07, 0.3));
  ASSERT_TRUE(off.ok) << off.error;
  EXPECT_EQ(off.source, "surrogate");
  EXPECT_EQ(off.fresh_trials, 0);
  EXPECT_FALSE(off.on_grid);
  EXPECT_GT(off.success_rate, 0.0);
  EXPECT_LT(off.success_rate, 1.0);
  // Outside the support it refuses to extrapolate; with fresh trials also
  // disallowed that is a hard error.
  service::Query beyond = f.Q("A", 0.9, 0.3);
  beyond.allow_fresh = false;
  const service::Answer out = f.qs->Handle(beyond);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("support"), std::string::npos);
}

TEST(Surrogate, RefusesDegenerateFits) {
  // Fewer than three usable cells, or all cells at one rate: invalid.
  EXPECT_FALSE(service::FitCliffSurrogate({}).valid);
  EXPECT_FALSE(
      service::FitCliffSurrogate({{0.1, 5, 10}, {0.2, 3, 10}}).valid);
  EXPECT_FALSE(service::FitCliffSurrogate(
                   {{0.1, 5, 10}, {0.1, 6, 10}, {0.1, 4, 10}})
                   .valid);
  // Rate-0 cells cannot enter a log-rate fit and must be skipped.
  EXPECT_FALSE(
      service::FitCliffSurrogate({{0.0, 9, 10}, {0.1, 5, 10}, {0.2, 2, 10}})
          .valid);
}

TEST(QueryService, NdjsonQueryRoundTrip) {
  service::Query q;
  std::string error;
  ASSERT_TRUE(service::QueryService::ParseQueryJson(
      R"({"app":"store_synth","series":"A","rate":0.1,"ci":0.05,)"
      R"("fresh":false,"surrogate":true})",
      &q, &error))
      << error;
  EXPECT_EQ(q.app, "store_synth");
  EXPECT_EQ(q.series, "A");
  EXPECT_DOUBLE_EQ(q.rate, 0.1);
  EXPECT_DOUBLE_EQ(q.ci, 0.05);
  EXPECT_FALSE(q.allow_fresh);
  EXPECT_TRUE(q.allow_surrogate);

  // Escapes in series names (they contain commas and may quote).
  ASSERT_TRUE(service::QueryService::ParseQueryJson(
      R"({"app":"fig6_1","series":"SGD+AS,\"SQS\"","rate":1e-3})", &q, &error));
  EXPECT_EQ(q.series, "SGD+AS,\"SQS\"");
  EXPECT_DOUBLE_EQ(q.rate, 1e-3);
  EXPECT_TRUE(q.allow_fresh);  // defaults

  for (const char* bad : {
           "",                                           // not an object
           "[]",                                         // wrong type
           "{}",                                         // empty
           R"({"app":"x","series":"A"})",                // missing rate
           R"({"app":"x","rate":1})",                    // missing series
           R"({"app":"x","series":"A","rate":"fast"})",  // wrong value type
           R"({"app":"x","series":"A","rate":1,"nope":2})",  // unknown key
           R"({"app":"x","series":"A","rate":1)",        // unterminated
           R"({"app":"x","series":"A","rate":1,"rate":2})",  // duplicate key
       }) {
    EXPECT_FALSE(service::QueryService::ParseQueryJson(bad, &q, &error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(QueryService, AnswerJsonShapes) {
  service::Answer a;
  a.ok = true;
  a.source = "cache";
  a.success_rate = 0.625;
  a.half_width = 0.0859375;
  a.trials = 64;
  a.successes = 40;
  a.on_grid = true;
  a.settled = true;
  const std::string json = service::QueryService::AnswerJson(a);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"source\":\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"success_rate\":0.625"), std::string::npos);
  EXPECT_NE(json.find("\"trials\":64"), std::string::npos);
  EXPECT_NE(json.find("\"settled\":true"), std::string::npos);

  service::Answer err;
  err.error = "bad \"quote\"";
  EXPECT_EQ(service::QueryService::AnswerJson(err),
            "{\"ok\":false,\"error\":\"bad \\\"quote\\\"\"}");
}

TEST(QueryService, ServeLoopAnswersOnePerLine) {
  ServiceFixture f("serve");
  std::istringstream in(
      "{\"app\":\"store_synth\",\"series\":\"A\",\"rate\":0.1,\"ci\":0.3}\n"
      "\n"  // blank keep-alive line: skipped, no output
      "not json\n"
      "{\"app\":\"store_synth\",\"series\":\"A\",\"rate\":0.07,\"ci\":0.3}\n");
  std::ostringstream out;
  f.qs->Serve(in, out);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"source\":\"cache\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("\"source\":\"surrogate\""), std::string::npos);
}

// ---- stats + manifest -------------------------------------------------------

TEST(ResultStore, ManifestListsCampaignsAndAchievedCells) {
  ServiceFixture empty("manifest_empty", /*prefill=*/false);
  EXPECT_TRUE(empty.rs->Manifest().empty());

  ServiceFixture f("manifest");
  const auto manifest = f.rs->Manifest();
  ASSERT_EQ(manifest.size(), 1u);
  const store::ResultStore::ManifestEntry& entry = manifest[0];
  EXPECT_EQ(entry.fingerprint.size(), 16u);
  EXPECT_EQ(entry.fingerprint.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_EQ(entry.app, "store_synth");
  // 2 series x 5 rates, all owned by the single prefill shard.
  ASSERT_EQ(entry.cells.size(), 10u);
  for (const store::ResultStore::ManifestCell& cell : entry.cells) {
    EXPECT_GE(cell.series, 0);
    EXPECT_LT(cell.series, 2);
    EXPECT_GE(cell.rate, 0);
    EXPECT_LT(cell.rate, 5);
    EXPECT_GE(cell.trials, f.spec.min_trials);
    EXPECT_LE(cell.trials, f.spec.max_trials);
    EXPECT_GE(cell.successes, 0);
    EXPECT_LE(cell.successes, cell.trials);
    // The achieved half-width is the Wilson interval of the tally.
    EXPECT_DOUBLE_EQ(cell.half_width,
                     campaign::WilsonHalfWidth(cell.successes, cell.trials));
  }
}

TEST(QueryService, ParseQueryJsonStatsCmd) {
  service::Query q;
  std::string error;
  // A stats command needs no app/series/rate.
  ASSERT_TRUE(
      service::QueryService::ParseQueryJson(R"({"cmd":"stats"})", &q, &error))
      << error;
  EXPECT_EQ(q.cmd, "stats");

  EXPECT_FALSE(
      service::QueryService::ParseQueryJson(R"({"cmd":"bogus"})", &q, &error));
  EXPECT_NE(error.find("unknown cmd"), std::string::npos);
}

TEST(QueryService, StatsJsonReportsLatencyAndManifest) {
  ServiceFixture f("stats");
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  ASSERT_TRUE(f.qs->Handle(f.Q("A", 0.1, 0.3)).ok);  // one cache answer

  const std::string json = f.qs->StatsJson();
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cmd\":\"stats\""), std::string::npos);
  // All three per-source latency summaries are always present.
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"fresh_trials\":{\"count\":"), std::string::npos);
  EXPECT_NE(json.find("\"surrogate\":{\"count\":0"), std::string::npos);
#if ROBUSTIFY_TELEMETRY_ENABLED
  EXPECT_NE(json.find("\"cache\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"store.hits\":1"), std::string::npos);
#else
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos);
#endif
  // The store manifest rides along: the campaign and its cell tallies.
  EXPECT_NE(json.find("\"campaigns\":[{\"fingerprint\":\""),
            std::string::npos);
  const auto manifest = f.rs->Manifest();
  ASSERT_EQ(manifest.size(), 1u);
  EXPECT_NE(json.find(manifest[0].fingerprint), std::string::npos);
  EXPECT_NE(json.find("\"app\":\"store_synth\""), std::string::npos);
  EXPECT_NE(json.find("\"half_width\":"), std::string::npos);
}

TEST(QueryService, ServeLoopAnswersStatsCmd) {
  ServiceFixture f("serve_stats");
  std::istringstream in(
      "{\"app\":\"store_synth\",\"series\":\"A\",\"rate\":0.1,\"ci\":0.3}\n"
      "{\"cmd\":\"stats\"}\n"
      "{\"cmd\":\"bogus\"}\n");
  std::ostringstream out;
  f.qs->Serve(in, out);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"source\":\"cache\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cmd\":\"stats\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"campaigns\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("unknown cmd"), std::string::npos);
}

// Reduction of stored records replays the spec's own stopping rule, so the
// runner and ReduceRecords agree exactly on a round-tripped journal.
TEST(ReduceRecords, MatchesRunnerOnItsOwnJournal) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  campaign::RunnerOptions options;
  options.threads = 2;
  options.journal_path = TempPath("reduce") + ".journal";
  const campaign::CampaignResult direct =
      campaign::RunCampaign(spec, scenario, options);
  const campaign::CampaignJournal::Loaded loaded =
      campaign::CampaignJournal::Load(options.journal_path);
  ASSERT_TRUE(loaded.exists);
  const campaign::CampaignResult reduced = campaign::ReduceRecords(
      spec, scenario, loaded.records, /*adaptive=*/true);
  std::remove(options.journal_path.c_str());
  EXPECT_EQ(CsvBytes(reduced.series, "reduce_a"),
            CsvBytes(direct.series, "reduce_b"));
  EXPECT_EQ(reduced.total_trials, direct.total_trials);
  EXPECT_EQ(reduced.settled_cells, direct.settled_cells);
}

// ---- resident index + delta writes -----------------------------------------

// Trials [0, n) of one cell, with trial-dependent fields so a record that
// lands in the wrong place changes the bytes.
std::vector<campaign::TrialRecord> CellPrefix(int series, int rate, int n) {
  std::vector<campaign::TrialRecord> records;
  for (int t = 0; t < n; ++t) {
    campaign::TrialRecord r;
    r.series = series;
    r.rate = rate;
    r.trial = t;
    r.success = (t * 7 + rate) % 3 != 0;
    r.verdict = r.success ? 0 : 1;
    r.metric = 0.25 * t + series;
    r.faulty_flops = 100u + static_cast<std::uint64_t>(t);
    r.faults_injected = static_cast<std::uint64_t>(t % 4);
    records.push_back(r);
  }
  return records;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string JournalOf(const store::ResultStore& rs,
                      const campaign::CampaignSpec& spec) {
  return rs.CampaignDir(spec) + "/cells.journal";
}

// The journal a full rewrite of `records` produces, written by the
// journal's own writer rather than by the store.
std::string FullRewriteBytes(const campaign::CampaignSpec& spec,
                             std::vector<campaign::TrialRecord> records,
                             const std::string& tag) {
  std::sort(records.begin(), records.end(),
            [](const campaign::TrialRecord& a, const campaign::TrialRecord& b) {
              return std::make_tuple(a.series, a.rate, a.trial) <
                     std::make_tuple(b.series, b.rate, b.trial);
            });
  const std::string path = TempPath(tag) + ".rewrite.journal";
  campaign::CampaignJournal(path).RewriteAndOpen(campaign::SpecFingerprint(spec),
                                                 records);
  std::string bytes = FileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

std::vector<int> TrialIndices(const std::vector<campaign::TrialRecord>& records) {
  std::vector<int> trials;
  for (const campaign::TrialRecord& r : records) trials.push_back(r.trial);
  return trials;
}

TEST(ResultStore, DuplicateTrialIndicesKeepTheFirst) {
  const campaign::CampaignSpec spec = StoreSpec();
  const std::string root = TempPath("dupidx") + ".store";
  std::filesystem::remove_all(root);
  // A journal that repeats trial 2 of one cell, the repeat with another
  // metric: the cell keeps all 5 trials and the record written first.
  std::vector<campaign::TrialRecord> records = CellPrefix(0, 1, 5);
  campaign::TrialRecord repeat = records[2];
  repeat.metric = -1.0;
  records.insert(records.begin() + 3, repeat);
  const std::string journal = TempPath("dupidx") + ".journal";
  {
    campaign::CampaignJournal writer(journal);
    writer.Start(campaign::SpecFingerprint(spec));
    writer.Append(records.data(), records.size());
  }
  store::ResultStore rs(root);
  EXPECT_EQ(rs.IngestJournal(spec, journal).records_added, 5);
  std::remove(journal.c_str());
  const store::StoredCells stored = rs.Load(spec);
  EXPECT_EQ(TrialIndices(stored.records), (std::vector<int>{0, 1, 2, 3, 4}));
  ASSERT_EQ(stored.records.size(), 5u);
  EXPECT_EQ(stored.records[2].metric, records[2].metric);
  // The same through IngestRecords.
  std::filesystem::remove_all(root);
  store::ResultStore direct(root);
  EXPECT_EQ(direct.IngestRecords(spec, records).records_added, 5);
  EXPECT_EQ(direct.LoadCell(spec, 0, 1).records[2].metric, records[2].metric);
}

TEST(ResultStore, TornDeltaIsDroppedAndTheNextWriteCompacts) {
  const campaign::CampaignSpec spec = StoreSpec();
  const std::string root = TempPath("torndelta") + ".store";
  std::filesystem::remove_all(root);
  store::ResultStore rs(root);
  rs.IngestRecords(spec, CellPrefix(0, 0, 10));  // a new entry: compacts
  const std::string path = JournalOf(rs, spec);
  const std::string head = FileBytes(path);
  rs.IngestRecords(spec, CellPrefix(0, 0, 14));  // 4 <= 10 head records: appends
  std::string bytes = FileBytes(path);
  ASSERT_GT(bytes.size(), head.size());
  EXPECT_EQ(bytes.compare(0, head.size(), head), 0) << "the head was rewritten";

  // A SIGKILL inside the append tears the last delta record mid-line.
  bytes.resize(bytes.size() - 6);
  WriteBytes(path, bytes);
  const std::vector<campaign::TrialRecord> valid = CellPrefix(0, 0, 13);
  EXPECT_EQ(TrialIndices(rs.Load(spec).records), TrialIndices(valid));
  EXPECT_EQ(FullRewriteBytes(spec, rs.Load(spec).records, "torndelta_load"),
            FullRewriteBytes(spec, valid, "torndelta_valid"));

  // Appending after the torn line would corrupt the next record: the next
  // write compacts to the longest valid prefix plus the new records.
#if ROBUSTIFY_TELEMETRY_ENABLED
  telemetry::SetCountersEnabled(true);
  const std::uint64_t compactions = telemetry::SnapshotCounters().value(
      telemetry::Counter::kStoreCompactions);
#endif
  const store::ResultStore::IngestStats stats =
      rs.IngestRecords(spec, CellPrefix(0, 0, 16));
  EXPECT_EQ(stats.records_added, 3);
  EXPECT_EQ(FileBytes(path),
            FullRewriteBytes(spec, CellPrefix(0, 0, 16), "torndelta_after"));
#if ROBUSTIFY_TELEMETRY_ENABLED
  EXPECT_EQ(telemetry::SnapshotCounters().value(
                telemetry::Counter::kStoreCompactions),
            compactions + 1);
#endif
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(ResultStore, CompactionAfterDeltasIsByteIdenticalToAFullRewrite) {
  const campaign::CampaignSpec spec = StoreSpec();
  const std::string root = TempPath("deltas") + ".store";
  std::filesystem::remove_all(root);
  store::ResultStore rs(root);
  std::vector<int> depth(5, 6);  // cell (r % 2, r) holds depth[r] trials
  const auto all = [&] {
    std::vector<campaign::TrialRecord> records;
    for (int r = 0; r < 5; ++r) {
      const std::vector<campaign::TrialRecord> cell = CellPrefix(r % 2, r, depth[r]);
      records.insert(records.end(), cell.begin(), cell.end());
    }
    return records;
  };
  rs.IngestRecords(spec, all());  // 30 head records
  const std::string path = JournalOf(rs, spec);
  EXPECT_EQ(FileBytes(path), FullRewriteBytes(spec, all(), "deltas_head"));

  // Write-backs of one cell each: 5 + 7 + 9 = 21 appended records.
  for (const auto& [r, added] : {std::pair<int, int>{0, 5}, {3, 7}, {0, 9}}) {
    const std::size_t before = FileBytes(path).size();
    depth[r] += added;
    rs.IngestRecords(spec, CellPrefix(r % 2, r, depth[r]));
    EXPECT_GT(FileBytes(path).size(), before);
    EXPECT_NE(FileBytes(path), FullRewriteBytes(spec, all(), "deltas_mid"))
        << "a delta write rewrote the journal";
    // Another reader normalizes the appended deltas to the same records.
    EXPECT_EQ(TrialIndices(store::ResultStore(root).Load(spec).records),
              TrialIndices(rs.Load(spec).records));
  }
  // 21 + 10 > 30 head records: this write compacts.
  depth[1] += 10;
  rs.IngestRecords(spec, CellPrefix(1, 1, depth[1]));
  EXPECT_EQ(FileBytes(path), FullRewriteBytes(spec, all(), "deltas_final"));
  EXPECT_EQ(FullRewriteBytes(spec, rs.Load(spec).records, "deltas_load"),
            FullRewriteBytes(spec, all(), "deltas_all"));
}

// Every manifest field as text, so two manifests compare with one EXPECT_EQ.
std::string ManifestText(const std::vector<store::ResultStore::ManifestEntry>& manifest) {
  std::ostringstream out;
  out.precision(17);
  for (const store::ResultStore::ManifestEntry& entry : manifest) {
    out << entry.fingerprint << ' ' << entry.app << '\n';
    for (const store::ResultStore::ManifestCell& cell : entry.cells) {
      out << cell.series << ' ' << cell.rate << ' ' << cell.trials << ' '
          << cell.successes << ' ' << cell.half_width << '\n';
    }
  }
  return out.str();
}

// The manifest reads the resident index: a fresh instance parses each
// journal once and a repeat on an unchanged store parses nothing, an
// appended write-back shows exactly as a fresh instance reads it, and a
// journal filed under the wrong fingerprint is skipped.
TEST(ResultStore, ManifestReadsTheResidentIndex) {
  ServiceFixture f("manifest_resident");
  const std::string before = ManifestText(f.rs->Manifest());
#if ROBUSTIFY_TELEMETRY_ENABLED
  telemetry::SetCountersEnabled(true);
  const auto parses = [] {
    return telemetry::SnapshotCounters().value(
        telemetry::Counter::kStoreJournalParses);
  };
  store::ResultStore fresh(f.rs->root());
  const std::uint64_t parsed = parses();
  EXPECT_EQ(ManifestText(fresh.Manifest()), before);
  EXPECT_EQ(parses(), parsed + 1);
  EXPECT_EQ(ManifestText(fresh.Manifest()), before);
  EXPECT_EQ(parses(), parsed + 1);
#endif

  const std::size_t stored = f.rs->LoadCell(f.spec, 1, 2).records.size();
  const std::string path = JournalOf(*f.rs, f.spec);
  const std::string head = FileBytes(path);
  f.rs->IngestRecords(f.spec, CellPrefix(1, 2, static_cast<int>(stored) + 3));
  const std::string appended = FileBytes(path);
  ASSERT_GT(appended.size(), head.size());
  ASSERT_EQ(appended.substr(0, head.size()), head);  // a delta, not a rewrite
  const std::string after = ManifestText(f.rs->Manifest());
  EXPECT_NE(after, before);
  EXPECT_EQ(after, ManifestText(store::ResultStore(f.rs->root()).Manifest()));

  const std::string misfiled = f.rs->root() + "/0123456789abcdef";
  std::filesystem::create_directories(misfiled);
  std::filesystem::copy_file(path, misfiled + "/cells.journal");
  EXPECT_EQ(ManifestText(f.rs->Manifest()), after);
  EXPECT_EQ(ManifestText(store::ResultStore(f.rs->root()).Manifest()), after);
}

// One store instance serves while a second on the same root writes, by
// append and by compaction: the server sees each write on its next query.
TEST(ResultStore, ServingInstanceSeesAnotherInstancesWrites) {
  const campaign::CampaignSpec spec = StoreSpec();
  const std::string root = TempPath("twoinst") + ".store";
  std::filesystem::remove_all(root);
  store::ResultStore writer(root);
  store::ResultStore server(root);
  service::QueryService qs(&server);
  qs.RegisterSpec(spec, StoreScenario());
  service::Query q;
  q.app = spec.app;
  q.series = "A";
  q.rate = spec.fault_rates[0];
  q.ci = 1.0;
  q.allow_fresh = false;
  q.allow_surrogate = false;

  for (const int trials : {10, 14, 40}) {  // compact, append, compact
    writer.IngestRecords(spec, CellPrefix(0, 0, trials));
    const service::Answer a = qs.Handle(q);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.source, "cache");
    EXPECT_EQ(a.trials, trials);
    EXPECT_EQ(server.LoadCell(spec, 0, 0).records.size(),
              static_cast<std::size_t>(trials));
  }
}

TEST(ResultStore, ConcurrentLoadsAndIngestsStayConsistent) {
  const campaign::CampaignSpec spec = StoreSpec();
  const std::string root = TempPath("threads") + ".store";
  std::filesystem::remove_all(root);
  store::ResultStore rs(root);
  constexpr int kSteps = 40;
  std::atomic<int> writers_done{0};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {  // writer w extends cell (w, w) one trial a step
    threads.emplace_back([&, w] {
      for (int n = 1; n <= kSteps; ++n) rs.IngestRecords(spec, CellPrefix(w, w, n));
      ++writers_done;
    });
  }
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&] {
      std::size_t last[2] = {0, 0};
      do {
        const store::StoredCells stored = rs.Load(spec);
        int trial = 0, cell_series = -1;
        for (const campaign::TrialRecord& r : stored.records) {
          if (r.series != cell_series) trial = 0;
          cell_series = r.series;
          if (r.trial != trial++) ++bad_reads;  // not a contiguous prefix
        }
        for (int w = 0; w < 2; ++w) {
          const store::StoredCell cell = rs.LoadCell(spec, w, w);
          if (cell.records.size() < last[w]) ++bad_reads;  // went backwards
          last[w] = cell.records.size();
          const std::vector<store::CellTally> tallies = rs.SeriesTallies(spec, w);
          if (tallies[static_cast<std::size_t>(w)].trials <
              static_cast<int>(last[w])) {
            ++bad_reads;
          }
        }
      } while (writers_done.load() < 2);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad_reads.load(), 0);
  std::vector<campaign::TrialRecord> expected = CellPrefix(0, 0, kSteps);
  const std::vector<campaign::TrialRecord> second = CellPrefix(1, 1, kSteps);
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(TrialIndices(store::ResultStore(root).Load(spec).records),
            TrialIndices(expected));
  EXPECT_EQ(FullRewriteBytes(spec, store::ResultStore(root).Load(spec).records,
                             "threads_got"),
            FullRewriteBytes(spec, expected, "threads_want"));
}

// Fresh trials run on the campaign executor across the service's threads,
// yet nothing depends on how many: a fig6_6 cell seeded with 3 stored
// trials and asked for a tighter ci gets the same answer, the same store
// journal bytes and the same counters (store.fresh_trials, injector ops
// and faults, solver work) at 1, 2 and 8 threads — and they equal the
// serial reference: RunSingleTrial for trial next_trial() until the
// controller is done, then one write-back.
TEST(QueryService, FreshTrialsAreThreadInvariant) {
  campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_6");
  spec.fault_rates = {1e-3, 1e-1};
  spec.fixed_trials = 3;
  spec.min_trials = 4;
  spec.max_trials = 40;
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const int series = 1;
  const int rate = 1;
  const double ci = 0.1;
  const std::string seed_journal = TempPath("fresh_threads") + ".journal";
  campaign::RunnerOptions fixed;
  fixed.threads = 2;
  fixed.adaptive = false;
  fixed.journal_path = seed_journal;
  campaign::RunCampaign(spec, scenario, fixed);
  const auto seeded_store = [&](const std::string& tag) {
    const std::string root = TempPath(tag) + ".store";
    std::filesystem::remove_all(root);
    auto rs = std::make_unique<store::ResultStore>(root);
    rs->IngestJournal(spec, seed_journal);
    return rs;
  };
  telemetry::SetCountersEnabled(true);
  const auto counters = [] {
    const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
    return std::vector<std::uint64_t>(snap.counters, snap.counters + telemetry::kNumCounters);
  };

  // The serial reference.
  std::unique_ptr<store::ResultStore> reference = seeded_store("fresh_threads_ref");
  std::vector<campaign::TrialRecord> prefix = reference->LoadCell(spec, series, rate).records;
  ASSERT_EQ(prefix.size(), 3u);
  campaign::AdaptiveConfig config;
  config.min_trials = spec.min_trials;
  config.max_trials = spec.max_trials;
  config.ci_half_width = ci;
  campaign::CellController controller(config);
  for (const campaign::TrialRecord& r : prefix) controller.Record(r.success);
  const core::FaultEnvironment env = campaign::SpecEnvironment(spec, rate);
  telemetry::ResetCounters();
  while (!controller.done()) {
    const int t = controller.next_trial();
    const harness::TrialOutcome out =
        harness::RunSingleTrial(scenario.series[series].fn, env, t);
    controller.Record(out.success);
    prefix.push_back(campaign::ToRecord(out, series, rate, t));
  }
  const std::vector<std::uint64_t> reference_counters = counters();
  const int fresh_trials = controller.trials() - 3;
  ASSERT_GT(fresh_trials, spec.min_trials);  // runs well past the floor
  reference->IngestRecords(spec, prefix);
  const std::string reference_journal = FileBytes(JournalOf(*reference, spec));

  service::Query query;
  query.app = spec.app;
  query.series = scenario.series[series].name;
  query.rate = spec.fault_rates[rate];
  query.ci = ci;
  std::string one_thread_json;
  std::vector<std::uint64_t> one_thread_counters;
  for (const int threads : {1, 2, 8}) {
    std::unique_ptr<store::ResultStore> rs =
        seeded_store("fresh_threads_" + std::to_string(threads));
    service::QueryService qs(rs.get(), threads);
    qs.RegisterSpec(spec, scenario);
    telemetry::ResetCounters();
    const service::Answer a = qs.Handle(query);
    const std::vector<std::uint64_t> got = counters();
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.source, "fresh-trials");
    EXPECT_EQ(a.fresh_trials, fresh_trials) << threads << " threads";
    EXPECT_EQ(a.trials, controller.trials()) << threads << " threads";
    EXPECT_EQ(a.successes, controller.successes()) << threads << " threads";
    EXPECT_EQ(a.half_width,
              campaign::WilsonHalfWidth(controller.successes(), controller.trials()));
    if (threads == 1) {
      one_thread_json = service::QueryService::AnswerJson(a);
      one_thread_counters = got;
    }
    EXPECT_EQ(service::QueryService::AnswerJson(a), one_thread_json) << threads << " threads";
    EXPECT_EQ(got, one_thread_counters) << threads << " threads";
    EXPECT_EQ(FileBytes(JournalOf(*rs, spec)), reference_journal) << threads << " threads";
#if ROBUSTIFY_TELEMETRY_ENABLED
    EXPECT_EQ(got[static_cast<int>(telemetry::Counter::kStoreFreshTrials)],
              static_cast<std::uint64_t>(fresh_trials));
    for (const telemetry::Counter c :
         {telemetry::Counter::kInjectorScopes, telemetry::Counter::kInjectorFaults,
          telemetry::Counter::kInjectorFlops, telemetry::Counter::kSgdIterations,
          telemetry::Counter::kCglsIterations}) {
      EXPECT_EQ(got[static_cast<int>(c)], reference_counters[static_cast<int>(c)])
          << telemetry::CounterName(c) << ", " << threads << " threads";
    }
    EXPECT_GT(got[static_cast<int>(telemetry::Counter::kInjectorFlops)], 0u);
#endif
    std::filesystem::remove_all(rs->root());
  }
  std::filesystem::remove_all(reference->root());
  std::remove(seed_journal.c_str());
}

#if ROBUSTIFY_TELEMETRY_ENABLED
TEST(QueryService, ResidentIndexParsesEachJournalOnce) {
  ServiceFixture f("parses");
  telemetry::SetCountersEnabled(true);
  const auto parses = [] {
    return telemetry::SnapshotCounters().value(
        telemetry::Counter::kStoreJournalParses);
  };
  const service::Query cached = f.Q("A", 0.1, 0.3);
  const service::Query surrogate = f.Q("A", 0.07, 0.3);
  ASSERT_TRUE(f.qs->Handle(cached).ok);
  const std::uint64_t after_first = parses();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(f.qs->Handle(cached).source, "cache");
    ASSERT_EQ(f.qs->Handle(surrogate).source, "surrogate");
  }
  EXPECT_EQ(parses(), after_first);

  // An external rewrite — a rename over the journal, as another process's
  // merge does — costs exactly one re-parse.
  const std::string path = JournalOf(*f.rs, f.spec);
  WriteBytes(path + ".external", FileBytes(path));
  std::filesystem::rename(path + ".external", path);
  for (int i = 0; i < 4; ++i) ASSERT_EQ(f.qs->Handle(cached).source, "cache");
  EXPECT_EQ(parses(), after_first + 1);
  EXPECT_NE(f.qs->StatsJson().find("\"store.journal_parses\":" +
                                   std::to_string(after_first + 1)),
            std::string::npos);
}
#endif

}  // namespace
