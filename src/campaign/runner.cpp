#include "campaign/runner.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "campaign/adaptive.h"
#include "core/fault_env.h"
#include "harness/parallel.h"
#include "harness/trial.h"
#include "telemetry/progress.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace robustify::campaign {

namespace {

harness::TrialOutcome ToOutcome(const TrialRecord& r) {
  harness::TrialOutcome out;
  out.success = r.success;
  out.metric = r.metric;
  out.fpu_stats.faulty_flops = r.faulty_flops;
  out.fpu_stats.faults_injected = r.faults_injected;
  out.verdict = static_cast<core::TrialVerdict>(r.verdict);
  return out;
}

// One cell's accepted trials: the controller that accepted them, and their
// outcomes in trial order.  Only the first controller.trials() outcomes are
// accepted; the runner sizes `outcomes` to the budget up front, so entries
// past that are unaccepted (speculative or never run).
struct CellTrials {
  explicit CellTrials(const AdaptiveConfig& config) : controller(config) {}
  CellController controller;
  std::vector<harness::TrialOutcome> outcomes;
};

// The contiguous-prefix rule shared by resume and ReduceRecords: bucket the
// records by cell (dropping out-of-range cells), sort each bucket by trial
// index, and accept trials 0, 1, 2, ... through the cell's controller until
// it is done or the next index is missing.  Only one record of a repeated
// index is accepted; everything after a gap is dropped.
std::vector<CellTrials> AcceptPrefixes(const std::vector<TrialRecord>& records,
                                       int series_count, int rate_count,
                                       const AdaptiveConfig& config) {
  const std::size_t cell_count = static_cast<std::size_t>(series_count * rate_count);
  std::vector<std::vector<TrialRecord>> by_cell(cell_count);
  for (const TrialRecord& r : records) {
    if (r.series < 0 || r.series >= series_count || r.rate < 0 ||
        r.rate >= rate_count) {
      continue;
    }
    by_cell[static_cast<std::size_t>(r.series * rate_count + r.rate)].push_back(r);
  }
  std::vector<CellTrials> cells(cell_count, CellTrials(config));
  for (std::size_t cell = 0; cell < cell_count; ++cell) {
    std::vector<TrialRecord>& bucket = by_cell[cell];
    std::sort(bucket.begin(), bucket.end(),
              [](const TrialRecord& a, const TrialRecord& b) {
                return a.trial < b.trial;
              });
    CellTrials& accepted = cells[cell];
    for (const TrialRecord& r : bucket) {
      if (accepted.controller.done()) break;
      if (r.trial < accepted.controller.next_trial()) continue;  // repeat
      if (r.trial != accepted.controller.next_trial()) break;    // gap
      accepted.controller.Record(r.success);
      accepted.outcomes.push_back(ToOutcome(r));
    }
  }
  return cells;
}

// Serial in-order reduction shared by RunCampaign and ReduceRecords: the
// accumulation order is fixed by cell order, never by execution schedule.
CampaignResult BuildResult(const CampaignSpec& spec, const Scenario& scenario,
                           const std::vector<CellTrials>& cells) {
  const int series_count = static_cast<int>(scenario.series.size());
  const int rate_count = static_cast<int>(spec.fault_rates.size());
  CampaignResult result;
  result.cell_count = series_count * rate_count;
  result.series.reserve(static_cast<std::size_t>(series_count));
  result.cells.resize(static_cast<std::size_t>(series_count));
  for (int s = 0; s < series_count; ++s) {
    harness::Series series;
    series.name = scenario.series[static_cast<std::size_t>(s)].name;
    for (int r = 0; r < rate_count; ++r) {
      const CellTrials& cell = cells[static_cast<std::size_t>(s * rate_count + r)];
      const int trials = cell.controller.trials();
      harness::SeriesPoint point;
      point.fault_rate = spec.fault_rates[static_cast<std::size_t>(r)];
      point.summary = harness::SummarizeOutcomes(cell.outcomes.data(), trials);
      series.points.push_back(point);
      result.cells[static_cast<std::size_t>(s)].push_back(
          {trials, cell.controller.settled()});
      result.total_trials += trials;
      if (cell.controller.settled()) ++result.settled_cells;
      for (int t = 0; t < trials; ++t) {
        result.faulty_flops += static_cast<double>(
            cell.outcomes[static_cast<std::size_t>(t)].fpu_stats.faulty_flops);
      }
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

// Per-cell telemetry, from the same controller state that feeds the result
// (counter totals are thread-count independent by construction).
void CountFinishedCell(const CellController& controller, int resumed) {
  telemetry::Count(telemetry::Counter::kCampaignCells);
  if (controller.settled()) {
    telemetry::Count(telemetry::Counter::kCampaignCellsSettled);
  }
  telemetry::Count(telemetry::Counter::kCampaignTrials,
                   static_cast<std::uint64_t>(controller.trials()));
  telemetry::Count(telemetry::Counter::kCampaignTrialsResumed,
                   static_cast<std::uint64_t>(resumed));
  telemetry::Observe(telemetry::Histogram::kCampaignTrialsToStop,
                     static_cast<std::uint64_t>(controller.trials()));
  const double half_width =
      WilsonHalfWidth(controller.successes(), controller.trials());
  telemetry::Observe(telemetry::Histogram::kCampaignStopHalfWidthPpm,
                     static_cast<std::uint64_t>(half_width * 1e6));
  telemetry::ProgressUnitDone(controller.trials() - resumed);
}

// Where one batch of a cell stands.  A deferred batch has been claimed but
// must not run before its predecessor is accepted; whichever worker accepts
// that predecessor runs it.
enum class BatchState : char { kOpen, kDeferred, kRunning, kDone };

// The batch bookkeeping of one cell.  `mu` guards it together with the
// cell's controller; batch outcomes are written outside the lock, each
// batch into its own slice of the cell's outcome storage.
struct CellSchedule {
  std::mutex mu;
  int first = 0;     // first trial the batches cover (= resumed prefix)
  int batches = 0;   // batches covering [first, budget)
  int resolved = 0;  // batches accepted (or skipped) so far, in order
  std::vector<BatchState> state;
  std::vector<TrialRecord> journal_batch;
};

}  // namespace

TrialRecord ToRecord(const harness::TrialOutcome& out, int series, int rate,
                     int trial) {
  TrialRecord r;
  r.series = series;
  r.rate = rate;
  r.trial = trial;
  r.success = out.success;
  r.metric = out.metric;
  r.faulty_flops = out.fpu_stats.faulty_flops;
  r.faults_injected = out.fpu_stats.faults_injected;
  r.verdict = static_cast<int>(out.verdict);
  return r;
}

AdaptiveConfig SpecAdaptiveConfig(const CampaignSpec& spec, bool adaptive) {
  AdaptiveConfig config;
  if (adaptive) {
    config.min_trials = spec.min_trials;
    config.max_trials = spec.max_trials;
    config.ci_half_width = spec.ci_half_width;
  } else {
    // Fixed budget: the stopping rule can never fire early, so every cell
    // runs exactly spec.fixed_trials.
    config.min_trials = spec.fixed_trials;
    config.max_trials = spec.fixed_trials;
    config.ci_half_width = 0.0;
  }
  return config;
}

CampaignResult ReduceRecords(const CampaignSpec& spec, const Scenario& scenario,
                             const std::vector<TrialRecord>& records,
                             bool adaptive) {
  const int series_count = static_cast<int>(scenario.series.size());
  const int rate_count = static_cast<int>(spec.fault_rates.size());
  const AdaptiveConfig config = SpecAdaptiveConfig(spec, adaptive);
  CampaignResult result = BuildResult(
      spec, scenario, AcceptPrefixes(records, series_count, rate_count, config));
  result.budget_trials =
      static_cast<long>(config.max_trials) * series_count * rate_count;
  result.resumed_trials = result.total_trials;  // everything came from records
  return result;
}

CampaignResult RunCampaign(const CampaignSpec& spec, const Scenario& scenario,
                           const RunnerOptions& options) {
  telemetry::SpanScope campaign_span("campaign");
  const int series_count = static_cast<int>(scenario.series.size());
  const int rate_count = static_cast<int>(spec.fault_rates.size());
  const int cell_count = series_count * rate_count;

  if (spec.shard_count < 1 || spec.shard_index < 0 ||
      spec.shard_index >= spec.shard_count) {
    throw std::runtime_error("invalid shard selection " +
                             std::to_string(spec.shard_index) + "/" +
                             std::to_string(spec.shard_count));
  }
  const auto owns = [&](int cell) {
    return cell % spec.shard_count == spec.shard_index;
  };
  int owned_cells = 0;
  for (int cell = 0; cell < cell_count; ++cell) {
    if (owns(cell)) ++owned_cells;
  }

  const AdaptiveConfig adaptive = SpecAdaptiveConfig(spec, options.adaptive);
  std::vector<CellTrials> cells(static_cast<std::size_t>(cell_count),
                                CellTrials(adaptive));

  // ---- checkpoint plumbing --------------------------------------------------
  std::unique_ptr<CampaignJournal> journal;
  long resumed_trials = 0;
  if (!options.journal_path.empty()) {
    journal = std::make_unique<CampaignJournal>(options.journal_path);
    const std::uint64_t fingerprint = SpecFingerprint(spec);
    if (options.resume) {
      CampaignJournal::Loaded loaded = CampaignJournal::Load(options.journal_path);
      if (!loaded.exists) {
        throw std::runtime_error("cannot resume: no readable journal at " +
                                 options.journal_path);
      }
      if (loaded.fingerprint != fingerprint) {
        throw std::runtime_error(
            "cannot resume: journal " + options.journal_path +
            " was written by a different campaign spec (fingerprint mismatch)");
      }
      cells = AcceptPrefixes(loaded.records, series_count, rate_count, adaptive);
      // Rewrite the accepted prefixes of this shard's cells, healing any
      // torn tail before new appends land after it.
      std::vector<TrialRecord> kept;
      for (int cell = 0; cell < cell_count; ++cell) {
        CellTrials& accepted = cells[static_cast<std::size_t>(cell)];
        if (!owns(cell)) {  // re-sharded journal
          accepted = CellTrials(adaptive);
          continue;
        }
        for (int t = 0; t < accepted.controller.trials(); ++t) {
          kept.push_back(ToRecord(accepted.outcomes[static_cast<std::size_t>(t)],
                                  cell / rate_count, cell % rate_count, t));
        }
      }
      resumed_trials = static_cast<long>(kept.size());
      journal->RewriteAndOpen(fingerprint, kept);
    } else {
      journal->Start(fingerprint);
    }
  } else if (options.resume) {
    throw std::runtime_error("cannot resume without a journal path");
  }

  // ---- batch schedule, sized once on this thread ----------------------------
  const AdaptiveConfig clamped = CellController(adaptive).config();
  const int min_trials = clamped.min_trials;
  const int budget = clamped.max_trials;
  const int batch = std::max(1, spec.batch);
  const int max_batches = (budget + batch - 1) / batch;
  std::vector<CellSchedule> schedule(static_cast<std::size_t>(cell_count));
  telemetry::ProgressBegin("campaign", owned_cells);
  for (int cell = 0; cell < cell_count; ++cell) {
    if (!owns(cell)) continue;  // another shard's cell — not even journaled
    CellTrials& trials = cells[static_cast<std::size_t>(cell)];
    CellSchedule& sched = schedule[static_cast<std::size_t>(cell)];
    sched.first = trials.controller.trials();
    if (trials.controller.done()) {
      CountFinishedCell(trials.controller, sched.first);
      continue;
    }
    sched.batches = (budget - sched.first + batch - 1) / batch;
    sched.state.assign(static_cast<std::size_t>(sched.batches), BatchState::kOpen);
    // Capacity for the whole budget is reserved here, so no batch ever
    // reallocates; the size (the pages actually touched) covers the certain
    // batches now and grows by one uncertain batch at a time in drive().
    const int certain = std::max(0, (min_trials - sched.first + batch - 1) / batch);
    trials.outcomes.reserve(static_cast<std::size_t>(budget));
    trials.outcomes.resize(
        static_cast<std::size_t>(std::min(budget, sched.first + certain * batch)));
    if (journal) sched.journal_batch.reserve(static_cast<std::size_t>(batch));
  }

  // Runs batch k of `cell` into its slice of the cell's outcome storage.
  const auto run_batch = [&](int cell, int k) {
    telemetry::SpanScope unit_span("cell");
    CellTrials& trials = cells[static_cast<std::size_t>(cell)];
    const harness::TrialFn& fn =
        scenario.series[static_cast<std::size_t>(cell / rate_count)].fn;
    const core::FaultEnvironment env = SpecEnvironment(spec, cell % rate_count);
    const int base = schedule[static_cast<std::size_t>(cell)].first + k * batch;
    const int end = std::min(base + batch, budget);
    for (int t = base; t < end; ++t) {
      trials.outcomes[static_cast<std::size_t>(t)] = harness::RunSingleTrial(fn, env, t);
    }
  };

  // Accepts the cell's finished batches in trial order through its
  // controller, journaling what the controller takes.  A deferred batch
  // whose predecessor is now accepted runs here — on this worker, with the
  // lock dropped — unless the cell is already done.  Called and returns
  // with `lock` held on the cell.
  const auto drive = [&](int cell, std::unique_lock<std::mutex>& lock) {
    CellTrials& trials = cells[static_cast<std::size_t>(cell)];
    CellSchedule& sched = schedule[static_cast<std::size_t>(cell)];
    CellController& controller = trials.controller;
    while (sched.resolved < sched.batches) {
      const int k = sched.resolved;
      BatchState& state = sched.state[static_cast<std::size_t>(k)];
      if (state == BatchState::kDeferred) {
        if (!controller.done()) {
          state = BatchState::kRunning;
          // Every earlier batch is accepted and no later one runs before
          // this one is, so nothing else touches the storage now.
          trials.outcomes.resize(static_cast<std::size_t>(
              std::min(budget, sched.first + (k + 1) * batch)));
          lock.unlock();
          run_batch(cell, k);
          lock.lock();
        }
        state = BatchState::kDone;
      }
      if (state != BatchState::kDone) return;  // still running elsewhere
      if (!controller.done()) {
        const int base = sched.first + k * batch;
        const int end = std::min(base + batch, budget);
        sched.journal_batch.clear();
        for (int t = base; t < end && !controller.done(); ++t) {
          const harness::TrialOutcome& out = trials.outcomes[static_cast<std::size_t>(t)];
          controller.Record(out.success);
          if (journal) {
            sched.journal_batch.push_back(
                ToRecord(out, cell / rate_count, cell % rate_count, t));
          }
        }
        if (journal) {
          journal->Append(sched.journal_batch.data(), sched.journal_batch.size());
        }
        if (controller.done()) CountFinishedCell(controller, sched.first);
      }
      ++sched.resolved;
    }
  };

  // ---- (cell, batch) units, claimed batch-major -----------------------------
  harness::ParallelFor(cell_count * max_batches, options.threads, [&](int unit) {
    const int cell = unit % cell_count;
    const int k = unit / cell_count;
    CellSchedule& sched = schedule[static_cast<std::size_t>(cell)];
    if (k >= sched.batches) return;  // not owned, done on resume, or past the cap
    if (sched.first + k * batch < min_trials) {
      // Certain: the stopping rule cannot fire before this batch.
      run_batch(cell, k);
      std::unique_lock<std::mutex> lock(sched.mu);
      sched.state[static_cast<std::size_t>(k)] = BatchState::kDone;
      drive(cell, lock);
    } else {
      // Uncertain: it runs once its predecessor is accepted, and only if
      // the cell is still open.  drive() runs it now if that is already so.
      std::unique_lock<std::mutex> lock(sched.mu);
      sched.state[static_cast<std::size_t>(k)] = BatchState::kDeferred;
      drive(cell, lock);
    }
  });
  telemetry::ProgressEnd();

  // ---- serial in-order reduction --------------------------------------------
  telemetry::SpanScope reduce_span("reduce");
  CampaignResult result = BuildResult(spec, scenario, cells);
  result.budget_trials = static_cast<long>(adaptive.max_trials) * owned_cells;
  result.resumed_trials = resumed_trials;
  return result;
}

}  // namespace robustify::campaign
