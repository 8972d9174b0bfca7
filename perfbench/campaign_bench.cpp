// Campaign layer driver: RunCampaign over a wrapped scenario, the output
// checks of each pass, and the executor accounting of a traced pass.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "campaign/checkpoint.h"
#include "harness/csv.h"

namespace perfbench {

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// True when every record of `subset` has a bit-identical twin in `full`.
bool SameRecords(const std::vector<campaign::TrialRecord>& full,
                 const std::vector<campaign::TrialRecord>& subset) {
  using Key = std::tuple<int, int, int>;
  std::map<Key, const campaign::TrialRecord*> index;
  for (const campaign::TrialRecord& r : full) index[{r.series, r.rate, r.trial}] = &r;
  for (const campaign::TrialRecord& r : subset) {
    const auto it = index.find({r.series, r.rate, r.trial});
    if (it == index.end()) return false;
    const campaign::TrialRecord& f = *it->second;
    if (f.success != r.success || DoubleBits(f.metric) != DoubleBits(r.metric) ||
        f.faulty_flops != r.faulty_flops || f.faults_injected != r.faults_injected ||
        f.verdict != r.verdict) {
      return false;
    }
  }
  return true;
}

// The exact counts a pass must reproduce at any thread count.
struct PassCounts {
  std::uint64_t trials = 0, flops = 0, faults = 0;
  std::uint64_t sgd_iterations = 0, sgd_accepts = 0, sgd_rejects = 0;
  std::uint64_t cgls_iterations = 0, checkpoint_records = 0;

  bool operator==(const PassCounts& o) const {
    return trials == o.trials && flops == o.flops && faults == o.faults &&
           sgd_iterations == o.sgd_iterations && sgd_accepts == o.sgd_accepts &&
           sgd_rejects == o.sgd_rejects && cgls_iterations == o.cgls_iterations &&
           checkpoint_records == o.checkpoint_records;
  }
};

PassCounts CountPass(const CampaignPass& pass) {
  PassCounts c;
  c.trials = pass.trials.size();
  for (const TrialSample& t : pass.trials) {
    c.flops += t.flops;
    c.faults += t.faults;
  }
  using telemetry::Counter;
  c.sgd_iterations = CounterDelta(pass.before, pass.after, Counter::kSgdIterations);
  c.sgd_accepts = CounterDelta(pass.before, pass.after, Counter::kSgdAccepts);
  c.sgd_rejects = CounterDelta(pass.before, pass.after, Counter::kSgdRejects);
  c.cgls_iterations = CounterDelta(pass.before, pass.after, Counter::kCglsIterations);
  c.checkpoint_records =
      CounterDelta(pass.before, pass.after, Counter::kCheckpointRecords);
  return c;
}

// Executor accounting of one pass, from its wrapped-trial samples.
struct ExecutorTimes {
  double busy_s = 0.0;
  double idle_frac = 0.0;
  double critical_cell_s = 0.0;
  double trial_p50_ms = 0.0;
  double trial_max_ms = 0.0;
  std::vector<double> series_busy_s;
};

ExecutorTimes Account(const CampaignPass& pass, std::size_t series_count) {
  ExecutorTimes e;
  e.series_busy_s.assign(series_count, 0.0);
  std::map<std::pair<int, int>, double> cell_busy;
  std::vector<double> trial_ms;
  for (const TrialSample& t : pass.trials) {
    e.busy_s += t.seconds();
    e.series_busy_s[static_cast<std::size_t>(t.series)] += t.seconds();
    cell_busy[{t.series, t.rate}] += t.seconds();
    trial_ms.push_back(t.seconds() * 1e3);
  }
  for (const auto& [cell, busy] : cell_busy) {
    e.critical_cell_s = std::max(e.critical_cell_s, busy);
  }
  e.idle_frac = 1.0 - e.busy_s / (pass.threads * pass.wall_s);
  e.trial_p50_ms = Median(trial_ms);
  e.trial_max_ms = trial_ms.empty() ? 0.0 : *std::max_element(trial_ms.begin(), trial_ms.end());
  return e;
}

}  // namespace

CampaignBench::CampaignBench(const campaign::CampaignSpec& spec, std::string work_dir)
    : spec_(spec),
      work_dir_(std::move(work_dir)),
      journal_(work_dir_ + "/" + spec.name + ".journal"),
      log_(std::make_shared<TrialLog>()),
      scenario_(WrapScenario(campaign::BuildScenario(spec), spec.fault_rates, log_)) {}

CampaignPass CampaignBench::Run(int threads, SpanRecorder* spans) const {
  CampaignPass pass;
  pass.threads = threads;
  campaign::RunnerOptions options;
  options.threads = threads;
  options.journal_path = journal_;
  options.adaptive = false;
  log_->set_recorder(spans);
  pass.before = telemetry::SnapshotCounters();
  const std::int64_t begin = NowNs();
  {
    ScopedSpan span(spans, "campaign");
    pass.result = campaign::RunCampaign(spec_, scenario_, options);
  }
  pass.wall_s = (NowNs() - begin) * 1e-9;
  pass.after = telemetry::SnapshotCounters();
  pass.trials = log_->Take();
  log_->set_recorder(nullptr);
  pass.records = campaign::CampaignJournal::Load(journal_).records;
  pass.journal_bytes = std::filesystem::file_size(journal_);
  return pass;
}

void CampaignBench::Warm() const {
  campaign::CampaignSpec warm = spec_;
  warm.fixed_trials = 1;
  campaign::RunnerOptions options;
  options.threads = 1;
  options.adaptive = false;
  campaign::RunCampaign(warm, scenario_, options);
  log_->Take();
}

std::string CampaignBench::CheckPass(const CampaignPass& pass,
                                     const std::string& reference_csv,
                                     Tally* tally) const {
  const long ops = pass.result.total_trials;
  tally->Ops(ops);
  const bool outcome_columns = spec_.guard.Active();
  const std::string run_path = work_dir_ + "/" + spec_.name + ".run.csv";
  const std::string reduced_path = work_dir_ + "/" + spec_.name + ".reduced.csv";
  harness::WriteSweepCsv(run_path, pass.result.series, outcome_columns);
  const campaign::CampaignResult reduced =
      campaign::ReduceRecords(spec_, scenario_, pass.records, /*adaptive=*/false);
  harness::WriteSweepCsv(reduced_path, reduced.series, outcome_columns);
  const std::string run_csv = ReadFile(run_path);

  std::string problem;
  const long expected = static_cast<long>(spec_.fixed_trials) *
                        static_cast<long>(scenario_.series.size() * spec_.fault_rates.size());
  if (ops != expected || static_cast<long>(pass.records.size()) != expected) {
    problem = "pass ran " + std::to_string(ops) + " trials, journaled " +
              std::to_string(pass.records.size()) + ", expected " +
              std::to_string(expected);
  } else if (run_csv.empty() || ReadFile(reduced_path) != run_csv) {
    problem = "journal does not reduce to the run's CSV bytes";
  } else if (!reference_csv.empty() && run_csv != reference_csv) {
    problem = "CSV differs from the first pass of the same seed";
  }
  for (std::size_t s = 0; s < pass.result.series.size() && problem.empty(); ++s) {
    const harness::Series& series = pass.result.series[s];
    if (series.name.rfind("SGD", 0) != 0) continue;
    for (const harness::SeriesPoint& point : series.points) {
      if (point.fault_rate == 0.0 && point.summary.successes != point.summary.trials) {
        problem = "rate-0 cell of " + series.name + " has failed trials";
      }
    }
  }
  if (!problem.empty()) tally->Fail(ops, spec_.name + ": " + problem);
  return run_csv;
}

void CampaignBench::CheckOneThreadPrefix(int trials, const CampaignPass& full,
                                         Tally* tally) const {
  campaign::CampaignSpec prefix = spec_;
  prefix.fixed_trials = trials;
  campaign::RunnerOptions options;
  options.threads = 1;
  options.journal_path = work_dir_ + "/" + spec_.name + ".prefix.journal";
  options.adaptive = false;
  campaign::RunCampaign(prefix, scenario_, options);
  log_->Take();
  const std::vector<campaign::TrialRecord> records =
      campaign::CampaignJournal::Load(options.journal_path).records;
  const std::size_t expected = static_cast<std::size_t>(trials) *
                               scenario_.series.size() * spec_.fault_rates.size();
  tally->Check(records.size() == expected && SameRecords(full.records, records),
               spec_.name + ": 1-thread prefix run differs from the " +
                   std::to_string(full.threads) + "-thread journal");
}

void ReportCampaignLayers(const CampaignBench& bench,
                          const std::vector<CampaignPass>& traced,
                          const CampaignPass& one_thread, Report* report,
                          Tally* tally) {
  const CampaignPass& first = traced.front();
  const PassCounts counts = CountPass(first);
  for (const CampaignPass& pass : traced) {
    tally->Check(CountPass(pass) == counts,
                 bench.spec().name + ": exact counts differ between traced passes");
  }
  tally->Check(CountPass(one_thread) == counts,
               bench.spec().name + ": exact counts differ between 1 and " +
                   std::to_string(first.threads) + " threads");
  tally->Check(one_thread.records.size() == first.records.size() &&
                   SameRecords(first.records, one_thread.records),
               bench.spec().name + ": 1-thread journal differs from the " +
                   std::to_string(first.threads) + "-thread journal");

  const std::size_t series_count = bench.scenario().series.size();
  std::vector<double> wall, busy, idle, critical, p50, max_ms;
  std::vector<std::vector<double>> series_busy(series_count);
  for (const CampaignPass& pass : traced) {
    const ExecutorTimes e = Account(pass, series_count);
    wall.push_back(pass.wall_s);
    busy.push_back(e.busy_s);
    idle.push_back(e.idle_frac);
    critical.push_back(e.critical_cell_s);
    p50.push_back(e.trial_p50_ms);
    max_ms.push_back(e.trial_max_ms);
    for (std::size_t s = 0; s < series_count; ++s) {
      series_busy[s].push_back(e.series_busy_s[s]);
    }
  }

  report->Add("campaign.run_s", Median(wall), "s");
  report->Add("campaign.checkpoint.records",
              static_cast<double>(counts.checkpoint_records), "count");
  report->Add("campaign.checkpoint.bytes", static_cast<double>(first.journal_bytes),
              "bytes");
  report->Add("harness.trial.count", static_cast<double>(counts.trials), "count");
  report->Add("harness.trial.busy_s", Median(busy), "s");
  report->Add("harness.trial.p50_ms", Median(p50), "ms");
  report->Add("harness.trial.max_ms", Median(max_ms), "ms");
  for (std::size_t s = 0; s < series_count; ++s) {
    // Positional names keep the metric set identical across workloads whose
    // scenarios name their series differently; the named twin is printed
    // alongside for readers.
    const double value = Median(series_busy[s]);
    report->Add("harness.trial.busy_s.series" + std::to_string(s), value, "s");
    report->Add("harness.trial.busy_s." +
                    SanitizeName(bench.scenario().series[s].name),
                value, "s");
  }
  report->Add("harness.executor.idle_frac", Median(idle), "frac");
  report->Add("harness.executor.critical_cell_s", Median(critical), "s");
  report->Add("harness.executor.speedup", one_thread.wall_s / Median(wall), "x");
  report->Add("faulty.injector.ops", static_cast<double>(counts.flops), "count");
  report->Add("faulty.injector.faults", static_cast<double>(counts.faults), "count");
  report->Add("opt.sgd.iterations", static_cast<double>(counts.sgd_iterations), "count");
  const std::uint64_t decisions = counts.sgd_accepts + counts.sgd_rejects;
  report->Add("opt.sgd.accept_frac",
              decisions == 0 ? 0.0
                             : static_cast<double>(counts.sgd_accepts) /
                                   static_cast<double>(decisions),
              "frac");
  report->Add("opt.cgls.iterations", static_cast<double>(counts.cgls_iterations),
              "count");
}

}  // namespace perfbench
