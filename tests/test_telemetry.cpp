// Flight-recorder telemetry: the observe-only contract and the registry.
//
// The load-bearing guarantees:
//   * sweep and campaign CSVs are byte-identical with counters disabled,
//     enabled, and with full tracing on, at any thread count — telemetry
//     never consumes simulation RNG or reorders a fault stream;
//   * counter totals are a pure function of the work performed, so they are
//     thread-count independent (shards merge losslessly across the pool
//     workers' exits);
//   * the injector counters agree exactly with the ContextStats that feed
//     the published CSVs;
//   * WriteTrace emits well-formed Chrome trace JSON (balanced B/E pairs —
//     tools/trace_validate.py enforces the same invariants in CI).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/configs.h"
#include "apps/sort_app.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "core/fault_env.h"
#include "fixed_sweep.h"
#include "harness/csv.h"
#include "harness/trial.h"
#include "linalg/scalar.h"
#include "service/query_service.h"
#include "store/result_store.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace {

using namespace robustify;

harness::TrialFn SortTrial() {
  return [](const core::FaultEnvironment& base) {
    core::FaultEnvironment env = base;
    std::mt19937_64 rng(env.seed * 7919);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> input(4);
    for (double& v : input) v = dist(rng);
    apps::LpSolveConfig config = apps::SortSgdAsSqs();
    config.sgd.iterations = 150;
    harness::TrialOutcome out;
    const apps::RobustSortResult r = core::WithFaultyFpu(
        env, [&] { return apps::RobustSort<faulty::Real>(input, config); },
        &out.fpu_stats);
    out.success = r.valid && apps::IsSortedCopyOf(r.output, input);
    out.metric = static_cast<double>(out.fpu_stats.faults_injected);
    return out;
  };
}

campaign::CampaignSpec SmallSweep() {
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0, 0.05};
  spec.fixed_trials = 4;
  spec.base_seed = 77;
  return spec;
}

std::string CsvBytes(const std::vector<harness::Series>& series,
                     const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/robustify_telemetry_" + tag + ".csv";
  harness::WriteSweepCsv(path, series);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

std::string SweepCsvBytes(int threads, const std::string& tag) {
  const auto series =
      test::RunFixedSweep(SmallSweep(), {{"SGD+AS,SQS", SortTrial()}}, threads);
  return CsvBytes(series, tag);
}

// Small adaptive campaign (the cli-smoke shape): fig6_6 on a reduced axis.
std::string CampaignCsvBytes(int threads, const std::string& tag) {
  campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_6");
  spec.fault_rates = {0.0, 1e-3};
  spec.max_trials = 6;
  spec.min_trials = 2;
  spec.ci_half_width = 0.2;
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  campaign::RunnerOptions options;
  options.threads = threads;
  const campaign::CampaignResult result =
      campaign::RunCampaign(spec, scenario, options);
  return CsvBytes(result.series, tag);
}

// Telemetry must be observe-only: identical CSV bytes with counters off,
// counters on, and full span tracing, across thread counts.
TEST(Telemetry, SweepCsvInvariantUnderTelemetryStateAndThreads) {
  telemetry::SetCountersEnabled(false);
  const std::string off_t1 = SweepCsvBytes(1, "off_t1");
  telemetry::SetCountersEnabled(true);
  const std::string on_t1 = SweepCsvBytes(1, "on_t1");
  const std::string on_t2 = SweepCsvBytes(2, "on_t2");
  const std::string on_t8 = SweepCsvBytes(8, "on_t8");
#if ROBUSTIFY_TELEMETRY_ENABLED
  telemetry::StartTracing();
  const std::string traced_t8 = SweepCsvBytes(8, "traced_t8");
  telemetry::StopTracing();
  EXPECT_EQ(off_t1, traced_t8);
#endif
  EXPECT_FALSE(off_t1.empty());
  EXPECT_EQ(off_t1, on_t1);
  EXPECT_EQ(off_t1, on_t2);
  EXPECT_EQ(off_t1, on_t8);
}

TEST(Telemetry, CampaignCsvInvariantUnderTelemetryStateAndThreads) {
  telemetry::SetCountersEnabled(false);
  const std::string off_t1 = CampaignCsvBytes(1, "c_off_t1");
  telemetry::SetCountersEnabled(true);
  const std::string on_t1 = CampaignCsvBytes(1, "c_on_t1");
  const std::string on_t8 = CampaignCsvBytes(8, "c_on_t8");
#if ROBUSTIFY_TELEMETRY_ENABLED
  telemetry::StartTracing();
  const std::string traced_t8 = CampaignCsvBytes(8, "c_traced_t8");
  telemetry::StopTracing();
  EXPECT_EQ(off_t1, traced_t8);
#endif
  EXPECT_FALSE(off_t1.empty());
  EXPECT_EQ(off_t1, on_t1);
  EXPECT_EQ(off_t1, on_t8);
}

// Shards of exited threads fold into the retired totals: counts made on
// short-lived workers must survive the workers.  Defined in both builds:
// CI's TSan filter names it.
TEST(Telemetry, RegistryMergesRetiredWorkerShards) {
#if !ROBUSTIFY_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out";
#endif
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  constexpr int kWorkers = 4;
  constexpr int kCountsEach = 16;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([] {
      for (int i = 0; i < kCountsEach; ++i) {
        telemetry::Count(telemetry::Counter::kCampaignTrials, 3);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  // Every worker has exited, so every worker shard has retired by now.
  const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
  EXPECT_EQ(snap.value(telemetry::Counter::kCampaignTrials),
            static_cast<std::uint64_t>(kWorkers * kCountsEach) * 3u);
}

#if ROBUSTIFY_TELEMETRY_ENABLED

// Counter totals must not depend on how the grid was fanned out: the
// per-thread shards (including those of exited pool workers) merge to the
// same totals for 1 and 8 threads.
TEST(Telemetry, CounterTotalsThreadCountInvariant) {
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  SweepCsvBytes(1, "inv_t1");
  const telemetry::CounterSnapshot one = telemetry::SnapshotCounters();

  telemetry::ResetCounters();
  SweepCsvBytes(8, "inv_t8");
  const telemetry::CounterSnapshot eight = telemetry::SnapshotCounters();

  EXPECT_GT(one.value(telemetry::Counter::kInjectorScopes), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kInjectorFlops), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kSgdSolves), 0u);
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(one.counters[c], eight.counters[c])
        << "counter " << telemetry::CounterName(static_cast<telemetry::Counter>(c));
  }
  for (int h = 0; h < telemetry::kNumHistograms; ++h) {
    for (int b = 0; b < telemetry::kHistogramBuckets; ++b) {
      EXPECT_EQ(one.histograms[h][b], eight.histograms[h][b])
          << telemetry::HistogramName(static_cast<telemetry::Histogram>(h))
          << " bucket " << b;
    }
  }
}

// The fault-model and guard counters (faults by op class, windows opened,
// guard-trip verdicts) obey the same shard-merge contract as the rest: a
// sticky-model sweep under tight guard budgets produces identical totals at
// every thread count, and actually exercises each new counter.
TEST(Telemetry, ModelAndGuardCountersThreadCountInvariant) {
  telemetry::SetCountersEnabled(true);
  const auto run = [](int threads) {
    campaign::CampaignSpec spec = SmallSweep();
    spec.fault_rates = {0.05, 0.25};
    spec.fixed_trials = 8;
    spec.model.temporal = faulty::Temporal::kStuckAt;
    spec.guard.max_iterations = 5;  // trips long before SGD converges
    spec.guard.nonfinite_bailout = true;
    telemetry::ResetCounters();
    test::RunFixedSweep(spec, {{"SGD+AS,SQS", SortTrial()}}, threads);
    return telemetry::SnapshotCounters();
  };
  const telemetry::CounterSnapshot one = run(1);
  const telemetry::CounterSnapshot eight = run(8);
  EXPECT_GT(one.value(telemetry::Counter::kInjectorFaultsArith), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kInjectorWindows), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kTrialsBudgetExhausted), 0u);
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(one.counters[c], eight.counters[c])
        << "counter " << telemetry::CounterName(static_cast<telemetry::Counter>(c));
  }
}

// The injector counters are fed from the same ContextStats that the CSVs
// publish — they must agree exactly.
TEST(Telemetry, InjectorCountersMatchContextStats) {
  telemetry::SetCountersEnabled(true);
  // The closing histogram assertion is a law of the default skip-ahead
  // transient path specifically (the per-op oracle draws no gaps to
  // observe, and a sticky window counts many forced faults per sampled gap).
  // Rate 1 is an ordinary sampler rate (every gap is 0), so it obeys it too.
  for (const double rate : {0.01, 1.0}) {
    telemetry::ResetCounters();
    core::FaultEnvironment env;
    env.fault_rate = rate;
    env.seed = 123;
    faulty::ContextStats stats;
    core::WithFaultyFpu(
        env,
        [] {
          faulty::Real acc(0.0);
          for (int i = 0; i < 50000; ++i) acc = acc + faulty::Real(1.0);
          return linalg::AsDouble(acc);
        },
        &stats);
    const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
    EXPECT_EQ(snap.value(telemetry::Counter::kInjectorScopes), 1u) << rate;
    EXPECT_EQ(snap.value(telemetry::Counter::kInjectorFlops), stats.faulty_flops) << rate;
    EXPECT_EQ(snap.value(telemetry::Counter::kInjectorFaults), stats.faults_injected)
        << rate;
    EXPECT_GT(stats.faults_injected, 0u) << rate;
    // Every sampled gap lands one clean-run observation, so faults and gap
    // observations track each other 1:1.
    EXPECT_EQ(snap.histogram_total(telemetry::Histogram::kInjectorCleanRun),
              stats.faults_injected)
        << rate;
  }
}

TEST(Telemetry, HistogramBucketsAreLog2) {
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  const auto h = telemetry::Histogram::kCampaignTrialsToStop;
  telemetry::Observe(h, 0);    // bucket 0
  telemetry::Observe(h, 1);    // bucket 1: [1, 2)
  telemetry::Observe(h, 2);    // bucket 2: [2, 4)
  telemetry::Observe(h, 3);    // bucket 2
  telemetry::Observe(h, 4);    // bucket 3: [4, 8)
  telemetry::Observe(h, 255);  // bucket 8: [128, 256)
  telemetry::Observe(h, 256);  // bucket 9: [256, 512)
  const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
  const int hi = static_cast<int>(h);
  EXPECT_EQ(snap.histograms[hi][0], 1u);
  EXPECT_EQ(snap.histograms[hi][1], 1u);
  EXPECT_EQ(snap.histograms[hi][2], 2u);
  EXPECT_EQ(snap.histograms[hi][3], 1u);
  EXPECT_EQ(snap.histograms[hi][8], 1u);
  EXPECT_EQ(snap.histograms[hi][9], 1u);
  EXPECT_EQ(snap.histogram_total(h), 7u);
  EXPECT_EQ(telemetry::HistogramBucketLowerBound(0), 0u);
  EXPECT_EQ(telemetry::HistogramBucketLowerBound(1), 1u);
  EXPECT_EQ(telemetry::HistogramBucketLowerBound(9), 256u);
}

// The result-store counters obey the same contracts as the rest: every one
// of store.{hits,misses,fresh_trials,ingested_cells} fires on the
// run → ingest → query pipeline, and the totals are identical whether the
// store-filling campaign ran on 1 worker or 8.
TEST(Telemetry, StoreCountersNonzeroAndThreadCountInvariant) {
  telemetry::SetCountersEnabled(true);
  const auto trial = [](const core::FaultEnvironment& env) {
    std::uint64_t h = env.seed * 0x9E3779B97F4A7C15ull;
    std::uint64_t rate_bits = 0;
    std::memcpy(&rate_bits, &env.fault_rate, sizeof(rate_bits));
    h ^= rate_bits + 0xBF58476D1CE4E5B9ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
    harness::TrialOutcome out;
    out.success = static_cast<double>(h >> 11) * 0x1.0p-53 > env.fault_rate;
    out.metric = 0.0;
    return out;
  };
  const auto run = [&](int threads) {
    const std::string base = ::testing::TempDir() + "/robustify_store_counters_t" +
                             std::to_string(threads);
    std::filesystem::remove_all(base);
    campaign::CampaignSpec spec;
    spec.name = spec.app = "store_counters";
    spec.fault_rates = {0.2, 0.45, 0.7};
    spec.min_trials = 4;
    spec.max_trials = 12;
    spec.ci_half_width = 0.3;
    spec.base_seed = 4242;
    campaign::Scenario scenario;
    scenario.app = "store_counters";
    scenario.series = {{"A", trial}, {"B", trial}};

    telemetry::ResetCounters();
    campaign::RunnerOptions options;
    options.threads = threads;
    options.journal_path = base + ".journal";
    campaign::RunCampaign(spec, scenario, options);

    store::ResultStore result_store(base + ".store");
    result_store.IngestJournal(spec, base + ".journal");

    service::QueryService service_engine(&result_store);
    service_engine.RegisterSpec(spec, scenario);
    service::Query query;
    query.app = "store_counters";
    query.series = "A";
    query.rate = 0.45;
    query.ci = 0.4;  // looser than stored — a hit
    EXPECT_EQ(service_engine.Handle(query).source, "cache");
    query.ci = 0.18;  // tighter than stored — miss, fresh trials, write-back
    const service::Answer fresh = service_engine.Handle(query);
    EXPECT_EQ(fresh.source, "fresh-trials");
    EXPECT_GT(fresh.fresh_trials, 0);
    // Repeat at the same ci: served from the extended cell, zero trials.
    const service::Answer repeat = service_engine.Handle(query);
    EXPECT_EQ(repeat.source, "cache");
    EXPECT_EQ(repeat.fresh_trials, 0);
    EXPECT_EQ(repeat.success_rate, fresh.success_rate);
    EXPECT_EQ(repeat.half_width, fresh.half_width);

    const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
    std::filesystem::remove_all(base + ".store");
    std::filesystem::remove((base + ".journal").c_str());
    return snap;
  };

  const telemetry::CounterSnapshot one = run(1);
  const telemetry::CounterSnapshot eight = run(8);
  EXPECT_GT(one.value(telemetry::Counter::kStoreHits), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kStoreMisses), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kStoreFreshTrials), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kStoreIngestedCells), 0u);
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(one.counters[c], eight.counters[c])
        << "counter " << telemetry::CounterName(static_cast<telemetry::Counter>(c));
  }
}

TEST(Telemetry, WriteTraceEmitsBalancedChromeJson) {
  telemetry::SetCountersEnabled(true);
  telemetry::StartTracing();
  SweepCsvBytes(2, "trace");
  {
    // One query against an empty store: Handle() opens the `query` span on
    // every path, so even this error answer must appear in the trace.
    store::ResultStore result_store(::testing::TempDir() +
                                    "/robustify_trace_store");
    service::QueryService service_engine(&result_store);
    service::Query query;
    query.app = "no_such_app";
    query.series = "A";
    query.rate = 0.1;
    EXPECT_FALSE(service_engine.Handle(query).ok);
  }
  const std::string path = ::testing::TempDir() + "/robustify_trace_test.json";
  ASSERT_TRUE(telemetry::WriteTrace(path));
  EXPECT_FALSE(telemetry::TracingActive());  // the writer stops collection

  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  const std::string json = buffer.str();
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"trial\""), std::string::npos);
  EXPECT_NE(json.find("\"solve.sgd\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"query\""), std::string::npos);

  // Balanced B/E pairs: the writer's repair pass guarantees it even when a
  // ring overwrote its oldest events.
  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = json.find("\"ph\": \"B\"", pos)) != std::string::npos) {
    ++begins;
    pos += 1;
  }
  pos = 0;
  while ((pos = json.find("\"ph\": \"E\"", pos)) != std::string::npos) {
    ++ends;
    pos += 1;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
}

// Exited threads keep right-sized copies of their events, bounded by
// bytes: 256 short-lived threads that each emit one span (2 events) retain
// about a kilobyte each, not a 768 KiB ring each; 24 threads that each
// fill their ring still leave the retained copies under the bound; and
// the trace written afterwards passes tools/trace_validate.py.
TEST(Telemetry, RetiredTraceRingsAreRightSizedAndBoundedByBytes) {
  telemetry::StartTracing();
  const auto run_threads = [](int count, int spans_each) {
    for (int started = 0; started < count; started += 8) {
      std::vector<std::thread> batch;
      for (int i = 0; i < 8; ++i) {
        batch.emplace_back([spans_each] {
          for (int s = 0; s < spans_each; ++s) telemetry::SpanScope span("trial");
        });
      }
      for (std::thread& t : batch) t.join();
    }
  };
  const std::size_t before = telemetry::detail::RetiredTraceBytes();
  run_threads(256, 1);
  const std::size_t after = telemetry::detail::RetiredTraceBytes();
  EXPECT_LE(after, telemetry::detail::kMaxRetiredTraceBytes);
  EXPECT_LE(after, before + 256 * 1024);

  run_threads(24, 1 << 14);  // 2^15 events each: every ring full
  EXPECT_LE(telemetry::detail::RetiredTraceBytes(), telemetry::detail::kMaxRetiredTraceBytes);
  EXPECT_GT(telemetry::detail::RetiredTraceBytes(),
            telemetry::detail::kMaxRetiredTraceBytes / 2);

  const std::string path = ::testing::TempDir() + "/robustify_retired_trace.json";
  ASSERT_TRUE(telemetry::WriteTrace(path));
  if (std::system("python3 -c pass > /dev/null 2>&1") != 0) {
    std::remove(path.c_str());
    GTEST_SKIP() << "python3 unavailable: trace written, not validated";
  }
  const std::string validate = std::string("python3 ") + ROBUSTIFY_SOURCE_DIR +
                               "/tools/trace_validate.py " + path + " > /dev/null";
  EXPECT_EQ(std::system(validate.c_str()), 0) << validate;
  std::remove(path.c_str());
}

#else  // telemetry compiled out: the API must still compile and no-op

TEST(Telemetry, CompiledOutApiIsInert) {
  telemetry::Count(telemetry::Counter::kInjectorFaults, 5);
  telemetry::Observe(telemetry::Histogram::kInjectorCleanRun, 42);
  telemetry::SpanScope span("trial");
  EXPECT_FALSE(telemetry::TracingActive());
  EXPECT_FALSE(telemetry::CountersEnabled());
  const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(snap.counters[c], 0u);
  }
}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

}  // namespace
