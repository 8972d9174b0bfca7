// Declarative campaign specifications: *what* to run, separated from the
// harness's *how to run one trial*.
//
// A CampaignSpec names an application scenario (see campaign/scenarios.h),
// the series subset, the fault-rate axis, and the trial-allocation policy —
// either a fixed per-cell budget (`--fixed`, how the paper figures are
// regenerated) or the adaptive sequential policy (campaign/adaptive.h) that
// stops a (series, rate) cell as soon as the success-rate Wilson interval
// is tight enough.  Specs parse from a small key=value text format and the
// registry below maps every paper figure to its canonical spec, which
// `robustify_cli run <name>` executes, so axis definitions live in one
// table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_env.h"
#include "core/guard.h"
#include "faulty/bit_distribution.h"
#include "faulty/fault_model.h"

namespace robustify::campaign {

struct CampaignSpec {
  std::string name;  // campaign tag: journal header, default output names
  std::string app;   // scenario key (campaign/scenarios.h), e.g. "fig6_1"
  // Series subset to run, in this order; empty = every series the scenario
  // defines, in scenario order.
  std::vector<std::string> series;
  std::vector<double> fault_rates;

  // Fixed-budget mode (--fixed): repetitions per cell.
  int fixed_trials = 10;

  // Adaptive mode: per-cell budget cap, floor before the stopping rule may
  // fire, and the target Wilson 95% half-width on the success fraction.
  // The stopping point of a cell is a pure function of its outcome sequence
  // in trial order — never of thread count (campaign/adaptive.h).  The
  // runner claims one trial at a time and runs every trial below the cell's
  // certain horizon as soon as a worker claims it (campaign/runner.h).
  int max_trials = 100;
  int min_trials = 4;
  double ci_half_width = 0.15;

  std::uint64_t base_seed = 1;
  faulty::BitModel bit_model = faulty::BitModel::kBimodal;

  // Shard selection: this process owns the cells whose grid index is
  // congruent to shard_index mod shard_count.  Cells are location-
  // independent (per-cell seeding), so N shard runs of the same spec
  // produce, cell for cell, exactly the records one unsharded run would —
  // their journals merge into the result store (store/result_store.h) and
  // reduce to a byte-identical CSV.  Sharding schedules work without
  // changing any accepted tally, so it is canonicalized away by
  // SpecFingerprint: every shard of a campaign shares one fingerprint.
  int shard_index = 0;
  int shard_count = 1;

  // Fault-model axis (faulty/fault_model.h): temporal behavior, op-class
  // mask, and the per-model law parameters.  The default (transient,
  // arith+cmp classes) reproduces the historical injector.  Nothing outside
  // the spec changes the fault stream, so the fingerprint covers it.
  faulty::FaultModel model;

  // Guarded trial executor (core/guard.h): per-trial flop/iteration budget
  // caps and the non-finite bailout.  Inactive by default.  When any guard
  // field is set, campaign and sweep CSVs gain the outcome-taxonomy columns
  // (wrong/diverged/budget percentages) — schema is a pure function of the
  // spec.
  core::TrialGuard guard;
};

// ---- key=value spec files ---------------------------------------------------
//
// One `key = value` pair per line; '#' starts a comment; unknown keys are
// errors (a typoed key silently falling back to a default would produce a
// plausible-but-wrong campaign), and so are repeated keys.  Only `series`
// may repeat, one series name per line (names contain commas, e.g.
// "SGD+AS,LS", so no list syntax).  Keys:
//   name, app, rates (comma-separated), trials (fixed budget),
//   budget (adaptive cap), min_trials, ci (half-width fraction),
//   seed, bit_model (bimodal|uniform|msb|lsb), series, shard (i/N),
//   model (transient|stuck|burst|intermittent),
//   op_classes (comma-joined arith|cmp|mem subset),
//   stuck_mean / burst_width / window_mean / window_rate (model params),
//   guard_flops / guard_iters (budget caps), guard_bailout (0|1).
// Every key but name, app and bit_model is also a robustify_cli flag,
// spelled --a-b=v for key a_b (--guard-bailout alone sets guard_bailout =
// 1), and goes through the same ApplySpecKey and ValidateSpec.
// FormatSpec emits the model/guard keys only when they differ from the
// defaults, so fingerprints of pre-model specs are unchanged.  It also
// writes a literal `batch = 1` line: specs once carried a trials-per-work-
// unit knob, and the line keeps every fingerprint and stored spec.txt as
// it was.  ParseSpec accepts `batch = 1` and refuses any other value.

// Sets the field `key` names from its text `value`.  Returns false when
// `key` is not a spec key; throws std::runtime_error (naming the key) on a
// malformed value.  `series` appends.  Checks that span fields are
// ValidateSpec's.
bool ApplySpecKey(CampaignSpec* spec, const std::string& key, const std::string& value);

// Throws std::runtime_error when a field is out of range: a trial count
// below 1, min_trials above budget, ci <= 0, a model parameter outside its
// domain, or guard_iters < 0.
void ValidateSpec(const CampaignSpec& spec);

// Throws std::runtime_error with a line-numbered message on malformed input.
CampaignSpec ParseSpec(std::istream& is);
CampaignSpec ParseSpecFile(const std::string& path);

// The rate-axis list parser behind the `rates` key ("0, 1e-4, 0.25").
// Throws std::runtime_error on malformed or empty input and on a rate
// outside [0, 1] (NaN included).
std::vector<double> ParseRateAxis(const std::string& text);

// The "i/N" shard selector parser behind the `shard` key.  Throws std::runtime_error on malformed
// input, N == 0, or i >= N — a shard that silently owned zero cells would
// look like a completed (empty) campaign.
std::pair<int, int> ParseShard(const std::string& text);

// The integer parsers behind every integer spec key, shared with the
// integer flags of the CLI and the benches.  The whole text must be a
// decimal integer that fits the field and, for ParseInt, is at least
// `min_value`: strtol alone saturates, and a cast to int wraps, so
// "4294967298" would otherwise mean 2.  Throws std::runtime_error naming
// `key` on malformed or out-of-range input.
int ParseInt(const std::string& key, const std::string& text,
             int min_value = std::numeric_limits<int>::min());
std::uint64_t ParseU64(const std::string& key, const std::string& text);

// Canonical round-trip text form (ParseSpec(FormatSpec(s)) == s).
std::string FormatSpec(const CampaignSpec& spec);

// FormatSpec with the scheduling and trial-allocation knobs (shard, fixed
// trials, adaptive budget/floor/ci target) reset to their defaults:
// the text whose FNV hash is the fingerprint, and the spec.txt a result
// store directory carries so its key is self-describing.
std::string CanonicalSpecText(const CampaignSpec& spec);

// FNV-1a of the canonical form: the checkpoint journal stores it so a
// resume with a mismatched spec is rejected instead of silently merging
// incompatible tallies.  The fingerprint identifies the campaign's
// deterministic per-cell outcome *sequences* (scenario, series, rates,
// seed, bit model, fault model, guard) — not how far they were sampled:
// shard and the trial-allocation knobs are canonicalized away, so
// shard journals merge under one store key and the query service can
// extend a stored cell at any requested precision.
std::uint64_t SpecFingerprint(const CampaignSpec& spec);

// ---- registry ---------------------------------------------------------------

// Names of every registered figure campaign, in presentation order.
const std::vector<std::string>& RegistryNames();

// Null when `name` is not registered.
const CampaignSpec* FindRegistrySpec(const std::string& name);

// Throws std::runtime_error (listing the valid names) when unknown.
const CampaignSpec& RegistrySpec(const std::string& name);

// The fault environment every trial at rate-axis point `rate_index` runs
// under: the spec's rate, seed, bit model, fault model and guard
// (harness::RunSingleTrial then adds the trial index to the seed).  The
// runner and the query service both build their trials' environment here.
core::FaultEnvironment SpecEnvironment(const CampaignSpec& spec, int rate_index);

}  // namespace robustify::campaign
