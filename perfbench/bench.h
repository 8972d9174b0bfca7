// Shared plumbing of the benchmark driver: run options, the metric report,
// the pass/fail tally behind the result line, and the entry points of the
// three layer drivers (campaign, store/service, kernel probe).
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "service/query_service.h"
#include "spans.h"
#include "store/result_store.h"
#include "telemetry/telemetry.h"

namespace perfbench {

namespace service = robustify::service;
namespace store = robustify::store;
namespace telemetry = robustify::telemetry;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;       // campaign worker threads: every hardware thread
  std::string out_dir;   // scratch files and the trace output
};

class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Operations attempted and failed.  An operation is a measured trial or
// query, or one whole-run output check; a failed check fails every
// operation it covers.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;

  void Ops(long n) { attempted += n; }
  void Fail(long n, const std::string& why) {
    failed += n;
    errors.push_back(why);
  }
  // A whole-run check counts as one operation of its own.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(1, what);
  }
};

double PeakRssMb();

// The bit pattern of a double, for bit-for-bit comparisons.
inline std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Replaces anything outside [A-Za-z0-9_.-] with '_'.
std::string SanitizeName(const std::string& name);

// Delta of the library's telemetry counters between two snapshots.
std::uint64_t CounterDelta(const telemetry::CounterSnapshot& before,
                           const telemetry::CounterSnapshot& after,
                           telemetry::Counter counter);

// ---- campaign layer (campaign_bench.cpp) ------------------------------------

// One RunCampaign call over a wrapped scenario, with what the benchmark
// observed around it.
struct CampaignPass {
  double wall_s = 0.0;
  int threads = 1;
  campaign::CampaignResult result;
  std::vector<TrialSample> trials;
  std::vector<campaign::TrialRecord> records;  // the journal, read back
  telemetry::CounterSnapshot before, after;
  std::uint64_t journal_bytes = 0;
};

class CampaignBench {
 public:
  // Builds the scenario of `spec` and wraps its trial functions.
  CampaignBench(const campaign::CampaignSpec& spec, std::string work_dir);

  const campaign::CampaignSpec& spec() const { return spec_; }
  const campaign::Scenario& scenario() const { return scenario_; }
  const std::string& journal() const { return journal_; }
  std::shared_ptr<TrialLog> log() const { return log_; }

  // Runs the campaign at fixed trials, journaled, at `threads` workers.
  // With a recorder, the call is a "campaign" span and trials become
  // spans under it.
  CampaignPass Run(int threads, SpanRecorder* spans) const;

  // The warm-up pass: the first trial of every cell, unjournaled, so
  // process-wide lazy set-up (bit tables, gap samplers) is paid before any
  // timed pass.  It runs on one thread: worker threads live for one
  // RunCampaign call, so nothing per-thread outlasts a warm-up, and the
  // time of a sequential pass is a sum over its trials rather than the
  // slowest of several threads, which keeps setup_s steady.
  void Warm() const;

  // Output checks of one pass: the journal reduces to the run's CSV bytes,
  // the CSV equals `reference_csv` when that is non-empty, and rate-0 cells
  // of the SGD series all succeed.  Returns the run's CSV bytes.
  std::string CheckPass(const CampaignPass& pass, const std::string& reference_csv,
                        Tally* tally) const;

  // Runs the first `trials` trials of every cell at one thread, journaled
  // to a separate file, and compares them bit for bit with the records of
  // `full`.
  void CheckOneThreadPrefix(int trials, const CampaignPass& full, Tally* tally) const;

 private:
  campaign::CampaignSpec spec_;
  std::string work_dir_;
  std::string journal_;
  std::shared_ptr<TrialLog> log_;
  campaign::Scenario scenario_;
};

// Per-layer metrics of a traced nproc pass plus its 1-thread twin.
void ReportCampaignLayers(const CampaignBench& bench,
                          const std::vector<CampaignPass>& traced,
                          const CampaignPass& one_thread, Report* report,
                          Tally* tally);

// ---- store + service layers (store_bench.cpp) -------------------------------

struct StoreConfig {
  int stored_trials = 300;   // fixed trials per cell of the seed campaign
  int fresh_trials = 16;     // trials one fresh query runs
};

// One closed-loop pass of the query sequence.
struct QueryPass {
  double wall_s = 0.0;
  std::vector<double> latency_ms;  // per query, in sequence order
  std::vector<service::Answer> answers;
  std::vector<TrialSample> trials;  // fresh trials run inside Handle
  long fresh_trials = 0;
};

// A result store seeded from a fixed fig6_6 campaign, the query service
// over it, and a seeded query sequence with one query of each of three
// kinds per cell: fresh queries first (a tight ci: fresh trials plus a
// write-back), then a shuffled mix of on-grid cache hits and off-grid
// surrogate answers.  Fresh queries come first so that every later answer
// reads the store the pass leaves behind.
class StoreBench {
 public:
  StoreBench(std::uint64_t seed, const StoreConfig& config, int threads,
             const std::string& work_dir);
  StoreBench(const StoreBench&) = delete;
  StoreBench& operator=(const StoreBench&) = delete;

  const CampaignBench& seed_campaign() const { return campaign_; }
  std::size_t queries_per_pass() const { return queries_.size(); }

  // Restores the store directory to the bytes it held after seeding.
  void Reset() const;

  // Runs the query sequence once against the current store.  With a
  // recorder, each query is a "service.query" span.
  QueryPass Run(SpanRecorder* spans);

  // Every answer is ok and comes from its kind's source; on-grid tallies
  // equal the store's after the pass; answers for one (series, rate) carry
  // identical intervals; the pass equals `reference` (when given) answer
  // for answer.
  void CheckPass(const QueryPass& pass, const QueryPass* reference, Tally* tally) const;

  // store.* from direct Load / IngestJournal calls and service.* from the
  // traced passes.
  void ReportLayers(const std::vector<QueryPass>& traced, SpanRecorder* spans,
                    Report* report) const;

 private:
  enum class QueryKind { kFresh, kCache, kSurrogate };
  struct PlannedQuery {
    std::string line;  // NDJSON request
    QueryKind kind = QueryKind::kCache;
    int series = 0;
    int rate = -1;     // axis index, -1 off-grid
    double rate_value = 0.0;
  };
  void PlanQueries(std::uint64_t seed);

  StoreConfig config_;
  std::string work_dir_;
  std::string root_;
  CampaignBench campaign_;
  std::map<std::string, std::string> snapshot_;  // relative path -> bytes
  store::ResultStore store_;
  service::QueryService service_;
  std::vector<PlannedQuery> queries_;
};

// ---- kernel probe (probe.cpp) ----------------------------------------------

// Clean-vs-injected ns per call of the faulty-BLAS families at the lsq
// shapes (m x n), and ns per injected fault, at `rate`.
void ReportKernelProbe(std::size_t m, std::size_t n, double rate,
                       std::uint64_t seed, SpanRecorder* spans, Report* report);

}  // namespace perfbench
