#include "campaign/runner.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

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

// Accepts `records` (one cell's, sorted by trial index) through the cell's
// controller: trials next_trial(), next_trial() + 1, ... until it is done
// or the next index is missing.  Only one record of a repeated index is
// accepted; everything after a gap is dropped.
void AcceptPrefix(const std::vector<TrialRecord>& records, CellTrials* cell) {
  for (const TrialRecord& r : records) {
    if (cell->controller.done()) break;
    if (r.trial < cell->controller.next_trial()) continue;  // repeat
    if (r.trial != cell->controller.next_trial()) break;    // gap
    cell->controller.Record(r.success);
    cell->outcomes.push_back(ToOutcome(r));
  }
}

// The contiguous-prefix rule shared by resume and ReduceRecords: bucket the
// records by cell (dropping out-of-range cells), sort each bucket by trial
// index, and accept each bucket from trial 0 (AcceptPrefix).
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
    AcceptPrefix(bucket, &cells[cell]);
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

// Where one batch of a cell stands.  A deferred batch has been claimed
// while above the cell's certain horizon; it runs once the horizon passes
// it, and is skipped if the cell stops first.
enum class BatchState : char { kOpen, kDeferred, kDone };

// The batch bookkeeping of one cell.  `mu` guards it together with the
// cell's controller; batch outcomes are written outside the lock, each
// batch into its own slice of the cell's outcome storage.
struct CellSchedule {
  std::mutex mu;
  int first = 0;     // first trial the batches cover (= accepted prefix)
  int batches = 0;   // batches covering [first, budget)
  int accepted = 0;  // batches accepted (or skipped) so far, in order
  // Leading batches whose first trial is below the certain horizon: they
  // run as soon as they are claimed.  Written under `mu`, only ever
  // raised, and read without the lock by claims (a stale value is smaller,
  // which only sends a claim to the locked re-check).
  std::atomic<int> released{0};
  std::vector<BatchState> state;
  std::vector<TrialRecord> journal_batch;
};

// One cell handed to the executor.
struct ExecCell {
  CellTrials* trials;  // accepted prefix in, every accepted trial out
  const harness::TrialFn* fn;
  core::FaultEnvironment env;
  int series = 0;  // record coordinates
  int rate = 0;
};

struct ExecOptions {
  int threads = 0;
  int batch = 1;
  CampaignJournal* journal = nullptr;  // null = no checkpointing
  bool count_cells = false;  // book campaign.* counters and progress per cell
};

// The one trial executor (the contract is in runner.h): runs each cell's
// trials from its accepted prefix until its controller is done.  Units are
// (cell, batch) pairs claimed from one counter in batch-major order (unit
// u is batch u / cells of cell u % cells).  A claimed batch below its
// cell's released count runs at once; any other is deferred.  Accepting
// outcomes moves the horizon, and the worker that moves it past deferred
// batches puts them on the ready queue; a cell that stops skips its
// deferred batches.  A batch whose predecessors are all accepted is always
// below the horizon (it exceeds the accepted count until the cell is
// done), so some batch is always runnable.  Workers that run out of units
// take batches from the ready queue and wait for it only while batches are
// still deferred; no lock is held across a trial, so nothing can deadlock.
void ExecuteCells(const std::vector<ExecCell>& cells, const ExecOptions& options) {
  const int cell_count = static_cast<int>(cells.size());
  if (cell_count == 0) return;
  const int batch = std::max(1, options.batch);

  // ---- batch schedule, sized once on this thread ----------------------------
  std::vector<CellSchedule> schedule(static_cast<std::size_t>(cell_count));
  int max_batches = 0;
  // Raises the cell's released count to the batches below its horizon,
  // sizing the outcome storage to cover them first.  Returns the old count.
  const auto release = [&](int cell) {
    CellTrials& trials = *cells[static_cast<std::size_t>(cell)].trials;
    CellSchedule& sched = schedule[static_cast<std::size_t>(cell)];
    const int budget = trials.controller.config().max_trials;
    const int horizon = trials.controller.CertainHorizon();
    const int old = sched.released.load(std::memory_order_relaxed);
    const int now = std::min(sched.batches,
                             std::max(old, (horizon - sched.first + batch - 1) / batch));
    if (now > old) {
      // Capacity for the whole budget is reserved up front, so no batch
      // ever reallocates; the size (the pages actually touched) covers the
      // released batches.
      trials.outcomes.resize(
          static_cast<std::size_t>(std::min(budget, sched.first + now * batch)));
      sched.released.store(now, std::memory_order_release);
    }
    return old;
  };
  for (int cell = 0; cell < cell_count; ++cell) {
    CellTrials& trials = *cells[static_cast<std::size_t>(cell)].trials;
    CellSchedule& sched = schedule[static_cast<std::size_t>(cell)];
    const int budget = trials.controller.config().max_trials;
    sched.first = trials.controller.trials();
    if (trials.controller.done()) continue;
    sched.batches = (budget - sched.first + batch - 1) / batch;
    max_batches = std::max(max_batches, sched.batches);
    sched.state.assign(static_cast<std::size_t>(sched.batches), BatchState::kOpen);
    trials.outcomes.reserve(static_cast<std::size_t>(budget));
    release(cell);
    if (options.journal != nullptr) {
      sched.journal_batch.reserve(static_cast<std::size_t>(batch));
    }
  }
  const int units = cell_count * max_batches;
  if (units == 0) return;

  // ---- shared claim state ---------------------------------------------------
  std::atomic<int> next_unit{0};
  std::mutex ready_mu;  // taken after a cell's lock, never before
  std::condition_variable ready_cv;
  std::deque<std::pair<int, int>> ready;  // released deferred (cell, batch)
  std::atomic<int> ready_size{0};         // ready.size(), readable lock-free
  int deferred = 0;                       // claimed, neither released nor skipped
  bool failed = false;
  std::exception_ptr first_error;

  // Runs batch k of `cell` into its slice of the cell's outcome storage.
  const auto run_batch = [&](int cell, int k) {
    telemetry::SpanScope unit_span("cell");
    const ExecCell& exec = cells[static_cast<std::size_t>(cell)];
    const int first = schedule[static_cast<std::size_t>(cell)].first;
    const int budget = exec.trials->controller.config().max_trials;
    const int end = std::min(first + (k + 1) * batch, budget);
    for (int t = first + k * batch; t < end; ++t) {
      exec.trials->outcomes[static_cast<std::size_t>(t)] =
          harness::RunSingleTrial(*exec.fn, exec.env, t);
    }
  };

  // Marks batch k done and accepts the cell's finished batches in trial
  // order through its controller, journaling what the controller takes;
  // then releases the deferred batches the horizon has passed, or skips
  // them all once the cell is done.
  const auto finish = [&](int cell, int k) {
    const ExecCell& exec = cells[static_cast<std::size_t>(cell)];
    CellTrials& trials = *exec.trials;
    CellSchedule& sched = schedule[static_cast<std::size_t>(cell)];
    CellController& controller = trials.controller;
    const int budget = controller.config().max_trials;
    std::unique_lock<std::mutex> lock(sched.mu);
    sched.state[static_cast<std::size_t>(k)] = BatchState::kDone;
    bool finished = false;
    while (sched.accepted < sched.batches &&
           sched.state[static_cast<std::size_t>(sched.accepted)] == BatchState::kDone) {
      if (!controller.done()) {
        const int base = sched.first + sched.accepted * batch;
        const int end = std::min(base + batch, budget);
        sched.journal_batch.clear();
        for (int t = base; t < end && !controller.done(); ++t) {
          const harness::TrialOutcome& out = trials.outcomes[static_cast<std::size_t>(t)];
          controller.Record(out.success);
          if (options.journal != nullptr) {
            sched.journal_batch.push_back(ToRecord(out, exec.series, exec.rate, t));
          }
        }
        if (options.journal != nullptr) {
          options.journal->Append(sched.journal_batch.data(), sched.journal_batch.size());
        }
        finished = controller.done();
      }
      ++sched.accepted;
    }
    // Deferred batches resolved here: released onto the ready queue while
    // the cell runs on, all skipped once it is done.
    int resolved = 0;
    std::unique_lock<std::mutex> ready_lock(ready_mu, std::defer_lock);
    if (finished) {
      if (options.count_cells) CountFinishedCell(controller, sched.first);
      for (BatchState& state : sched.state) {
        if (state != BatchState::kDeferred) continue;
        state = BatchState::kDone;
        ++resolved;
      }
    } else if (!controller.done()) {
      const int old = release(cell);
      const int now = sched.released.load(std::memory_order_relaxed);
      for (int j = old; j < now; ++j) {
        BatchState& state = sched.state[static_cast<std::size_t>(j)];
        if (state != BatchState::kDeferred) continue;
        state = BatchState::kOpen;
        if (!ready_lock.owns_lock()) ready_lock.lock();
        ready.emplace_back(cell, j);
        ready_size.fetch_add(1, std::memory_order_release);
        ++resolved;
      }
    }
    if (resolved == 0) return;
    if (!ready_lock.owns_lock()) ready_lock.lock();
    deferred -= resolved;
    ready_cv.notify_all();
  };

  // The next batch this worker runs, or false when there is none left:
  // released batches first, then fresh claims (deferring the ones above
  // their cell's horizon), then a wait for releases while batches are
  // still deferred.
  const auto next_batch = [&](int* cell, int* k) {
    // Called with ready_mu held.
    const auto pop_ready = [&] {
      if (ready.empty()) return false;
      std::tie(*cell, *k) = ready.front();
      ready.pop_front();
      ready_size.fetch_sub(1, std::memory_order_relaxed);
      return true;
    };
    for (;;) {
      if (ready_size.load(std::memory_order_acquire) > 0) {
        std::lock_guard<std::mutex> ready_lock(ready_mu);
        if (pop_ready()) return true;
      }
      const int unit = next_unit.fetch_add(1, std::memory_order_relaxed);
      if (unit < units) {
        *cell = unit % cell_count;
        *k = unit / cell_count;
        CellSchedule& sched = schedule[static_cast<std::size_t>(*cell)];
        if (*k >= sched.batches) continue;  // done on entry, or past the cap
        if (*k < sched.released.load(std::memory_order_acquire)) return true;
        std::lock_guard<std::mutex> lock(sched.mu);
        if (*k < sched.released.load(std::memory_order_relaxed)) return true;
        if (cells[static_cast<std::size_t>(*cell)].trials->controller.done()) continue;
        sched.state[static_cast<std::size_t>(*k)] = BatchState::kDeferred;
        std::lock_guard<std::mutex> ready_lock(ready_mu);
        ++deferred;
        continue;
      }
      std::unique_lock<std::mutex> ready_lock(ready_mu);
      ready_cv.wait(ready_lock, [&] { return !ready.empty() || deferred == 0 || failed; });
      return !failed && pop_ready();
    }
  };

  const int workers = std::min(harness::ResolveThreadCount(options.threads), units);
  harness::ParallelFor(workers, workers, [&](int) {
    try {
      int cell = 0, k = 0;
      while (next_batch(&cell, &k)) {
        run_batch(cell, k);
        finish(cell, k);
      }
    } catch (...) {
      // A failed batch is never accepted, so the batches deferred behind it
      // would wait forever: wake every waiting worker and stop.
      std::lock_guard<std::mutex> ready_lock(ready_mu);
      if (!first_error) first_error = std::current_exception();
      failed = true;
      ready_cv.notify_all();
    }
  });
  if (first_error) std::rethrow_exception(first_error);
}

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

  // ---- the owned cells, run from their accepted prefixes --------------------
  telemetry::ProgressBegin("campaign", owned_cells);
  std::vector<ExecCell> exec;
  exec.reserve(static_cast<std::size_t>(owned_cells));
  for (int cell = 0; cell < cell_count; ++cell) {
    if (!owns(cell)) continue;  // another shard's cell — not even journaled
    CellTrials& trials = cells[static_cast<std::size_t>(cell)];
    if (trials.controller.done()) {
      CountFinishedCell(trials.controller, trials.controller.trials());
      continue;
    }
    exec.push_back({&trials, &scenario.series[static_cast<std::size_t>(cell / rate_count)].fn,
                    SpecEnvironment(spec, cell % rate_count), cell / rate_count,
                    cell % rate_count});
  }
  ExecOptions exec_options;
  exec_options.threads = options.threads;
  exec_options.batch = spec.batch;
  exec_options.journal = journal.get();
  exec_options.count_cells = true;
  ExecuteCells(exec, exec_options);
  telemetry::ProgressEnd();

  // ---- serial in-order reduction --------------------------------------------
  telemetry::SpanScope reduce_span("reduce");
  CampaignResult result = BuildResult(spec, scenario, cells);
  result.budget_trials = static_cast<long>(adaptive.max_trials) * owned_cells;
  result.resumed_trials = resumed_trials;
  return result;
}

std::vector<TrialRecord> ExtendCell(const CampaignSpec& spec, const Scenario& scenario,
                                    int series, int rate,
                                    const std::vector<TrialRecord>& prefix,
                                    const AdaptiveConfig& config, int threads) {
  CellTrials trials(config);
  AcceptPrefix(prefix, &trials);
  const int first = trials.controller.trials();
  ExecOptions options;
  options.threads = threads;
  ExecuteCells({{&trials, &scenario.series[static_cast<std::size_t>(series)].fn,
                 SpecEnvironment(spec, rate), series, rate}},
               options);
  std::vector<TrialRecord> fresh;
  fresh.reserve(static_cast<std::size_t>(trials.controller.trials() - first));
  for (int t = first; t < trials.controller.trials(); ++t) {
    fresh.push_back(ToRecord(trials.outcomes[static_cast<std::size_t>(t)], series, rate, t));
  }
  return fresh;
}

}  // namespace robustify::campaign
