// Campaign execution: the one trial executor behind every figure bench, the
// campaign CLI, the result store and the query service's fresh trials.
//
// The parallel unit is a (cell, trial) pair — one cell is one (series,
// fault rate) point.  Units are claimed in trial-major order, so one
// cell's trials run on several workers and a transition cell does not pin
// one worker while the rest idle.  Whether a trial runs is decided so the
// set of *executed* trials is the serial schedule's (each cell runs trial
// after trial until its stopping rule fires) for every thread count:
//   - a trial is *certain* when it is below the cell's certain horizon
//     (CellController::CertainHorizon, campaign/adaptive.h): the stopping
//     rule cannot fire before it whatever the outcomes still in flight
//     are, so it runs as soon as it is claimed.  In a fixed-budget
//     campaign every trial is certain.
//   - any other trial waits, without holding a worker, until accepted
//     outcomes move the horizon past it, and is skipped if the cell stops
//     first.
// Finished trials are accepted strictly in trial order under a per-cell
// lock through the cell's sequential controller, and each accepted trial
// is appended to the journal (campaign/checkpoint.h) under the same lock,
// so each cell's records stay in trial order.  The final reduction runs
// serially in cell order — so campaign output is byte-identical for every
// thread count and kill/resume schedule, and so are the work counters
// (injector ops and faults, solver iterations).
//
// The workers come from a harness::WorkerPool (harness/parallel.h).
// RunCampaign makes one per call, so its threads start and join with the
// call; ExtendCell runs on the caller's pool, whose threads outlive it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/adaptive.h"
#include "campaign/checkpoint.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "harness/parallel.h"
#include "harness/trial.h"

namespace robustify::campaign {

struct RunnerOptions {
  int threads = 0;           // 0 = auto (hardware concurrency)
  std::string journal_path;  // empty = run without checkpointing
  bool resume = false;       // load the journal and continue it
  bool adaptive = true;      // false = fixed budget (spec.fixed_trials per cell)
};

struct CellStats {
  int trials = 0;
  bool settled = false;  // stopping rule met the CI target within budget
};

struct CampaignResult {
  // One Series per scenario series, one point per fault rate — the shape
  // the table and CSV writers (harness/table.h, harness/csv.h) take.
  std::vector<harness::Series> series;
  std::vector<std::vector<CellStats>> cells;  // [series][rate]
  long total_trials = 0;     // accepted trials, all cells
  long resumed_trials = 0;   // of those, replayed from the journal
  long budget_trials = 0;    // per-cell cap * cell count
  int settled_cells = 0;
  int cell_count = 0;
  double faulty_flops = 0.0;  // ops through the injector, accepted trials
};

// Runs (or resumes) the campaign described by `spec` over `scenario`.
// Throws std::runtime_error on journal problems, including resuming against
// a journal whose fingerprint does not match the spec.
//
// Sharding: when spec.shard_count > 1, only the cells with grid index
// congruent to spec.shard_index (mod shard_count) are executed and
// journaled; every other cell stays empty in the result.  Per-cell seeding
// makes the owned cells' records identical to the same cells of an
// unsharded run, so N shard journals merge (store/result_store.h) into
// exactly the unsharded record set.
CampaignResult RunCampaign(const CampaignSpec& spec, const Scenario& scenario,
                           const RunnerOptions& options);

// Runs the fresh trials of one cell (series, rate) of `spec` through the
// same executor: `prefix` (the cell's stored records, a contiguous trial
// prefix from 0 as NormalizeRecords leaves it) is replayed through a
// controller under `config`, and trials continue from where it stops until
// the controller is done.  Returns the fresh records, trials prefix-size
// onward in trial order — empty when the rule already fires inside the
// prefix.  No trial runs that the serial loop (run trial next_trial() until
// done) would not: the fresh records, and the injector and solver
// counters, are the same for every pool size.  The workers come from
// `pool`, which the caller keeps across calls, so a stream of fresh
// queries starts its threads once (RunCampaign instead makes a pool per
// call).  A throwing trial is rethrown here and leaves `pool` usable.
// Books no campaign.* counters and no progress.
std::vector<TrialRecord> ExtendCell(const CampaignSpec& spec, const Scenario& scenario,
                                    int series, int rate,
                                    const std::vector<TrialRecord>& prefix,
                                    const AdaptiveConfig& config,
                                    harness::WorkerPool* pool);

// The stopping-rule configuration RunCampaign derives from a spec — shared
// with ReduceRecords and the query service so every consumer of stored
// records replays them under the same rule the runner journaled them under.
AdaptiveConfig SpecAdaptiveConfig(const CampaignSpec& spec, bool adaptive);

// The journal/store record of `out`, trial `trial` of cell (series, rate).
TrialRecord ToRecord(const harness::TrialOutcome& out, int series, int rate,
                     int trial);

// Reduces already-recorded trials (a merged store's records, a journal) to
// a CampaignResult without running anything: per cell, the contiguous
// trial-index prefix (NormalizeRecords, campaign/checkpoint.h: the first
// copy of a repeated trial wins, as in the store) is replayed through the
// stopping rule — exactly the resume path — and the reduction runs
// serially in cell order.  Records
// beyond a cell's deterministic stopping point are ignored (a store cell
// extended by a tighter-CI query still reduces to the campaign's own
// answer), so a store merged from N complete shard runs reduces to a CSV
// byte-identical to the single-process run of the same spec.
CampaignResult ReduceRecords(const CampaignSpec& spec, const Scenario& scenario,
                             const std::vector<TrialRecord>& records,
                             bool adaptive);

}  // namespace robustify::campaign
