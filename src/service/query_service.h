// Query engine over the result store: (app, series, rate) → success rate
// ± Wilson CI, answered from cached cells when their achieved precision
// already meets the request, from the logistic cliff surrogate for
// supported off-grid rates, and from fresh adaptive trials (written back to
// the store) only when a query actually misses.
//
// Cache-hit contract: a stored cell serves a query iff its FULL stored
// tally has >= min_trials trials and a Wilson half-width <= the requested
// ci.  Serving the full tally — never a replay-truncated prefix — makes
// repeated queries reproducible: asking again at the same or a looser ci
// returns the *identical interval* and runs zero trials.  A miss replays
// the stored prefix through the sequential stopping rule at the requested
// ci and continues trials from where the store left off (per-cell seeding:
// trial t always runs at seed base_seed + t, so fresh trials extend the
// same deterministic sequence), then writes the extended prefix back.
// Tightening ci only ever *extends* a stored prefix — the stopping rule
// fires at the first trial count meeting the target, and a tighter target
// can only fire later — so the store's prefix-wins merge absorbs write-
// backs without conflict, and campaign CSV exports stay byte-identical
// (ReduceRecords truncates at the spec's own stopping point).
//
// Off-grid rates are served by the surrogate when the fit is valid and the
// rate lies inside the fitted support; otherwise (or with the surrogate
// disallowed) the service derives a single-rate spec — same campaign, axis
// = {rate} — whose own fingerprint content-addresses the fresh cell.
#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "store/result_store.h"

namespace robustify::service {

struct Query {
  std::string cmd;     // "" = answer a query; "stats" = serve-loop status
  std::string app;     // registered app / registry spec name
  std::string series;  // series name within the app's scenario
  double rate = 0.0;
  double ci = 0.0;             // requested half-width; <= 0 → the spec's own
  bool allow_fresh = true;     // may the service run trials on a miss?
  bool allow_surrogate = true; // may the service answer from the fit?
};

struct Answer {
  bool ok = false;
  std::string error;   // when !ok
  std::string source;  // "cache" | "fresh-trials" | "surrogate"
  double success_rate = 0.0;  // fraction in [0, 1]
  double half_width = 0.0;    // Wilson 95% (nearest-cell for surrogate)
  int trials = 0;
  int successes = 0;
  int fresh_trials = 0;  // trials executed to answer this query
  bool on_grid = false;  // rate is a cell of the spec's own axis
  bool settled = false;  // achieved half-width meets the requested ci
};

class QueryService {
 public:
  // `store` must outlive the service.  `threads` is reserved for future
  // parallel cell fills; fresh trials currently run on the calling thread
  // (a query misses at most one cell).
  explicit QueryService(store::ResultStore* store) : store_(store) {}

  // Registers an app the service may answer for.  Unregistered apps fall
  // back to the campaign registry (campaign/spec.h) at query time; tests
  // register synthetic specs/scenarios the registry cannot build.
  void RegisterSpec(const campaign::CampaignSpec& spec,
                    campaign::Scenario scenario);

  // Answers one query.  Never throws: failures come back as ok == false
  // with a human-readable error.  Emits the `query` trace span, the
  // store.{hits,misses,fresh_trials} counters, and the per-source
  // query.latency_us.* histogram sample for answered queries.
  Answer Handle(const Query& query);

  // Newline-delimited JSON serve loop: one flat JSON object per input line
  // ({"app":..., "series":..., "rate":..., "ci":...,
  //   "fresh":true|false, "surrogate":true|false} — ci/fresh/surrogate
  // optional), one answer object per output line, flushed per answer.
  // Blank lines are skipped; EOF ends the loop.  A {"cmd":"stats"} line is
  // answered with StatsJson() instead of running a query.
  void Serve(std::istream& in, std::ostream& out);

  // One-line JSON status of the serve loop: telemetry counters (nonzero
  // only), per-answer-source latency quantiles (count/p50/p90/p99, in
  // microseconds, interpolated from the log2 histograms — process-lifetime
  // totals), and the store manifest (stored fingerprints with per-cell
  // trials and achieved Wilson half-width).
  std::string StatsJson() const;

  // JSON plumbing, exposed for tests.  ParseQueryJson returns false (with
  // `error` set) on malformed input, duplicate keys, or missing required
  // keys.
  static bool ParseQueryJson(const std::string& line, Query* query,
                             std::string* error);
  static std::string AnswerJson(const Answer& answer);

 private:
  struct AppEntry {
    campaign::CampaignSpec spec;
    campaign::Scenario scenario;
  };

  // Looks up (registering from the campaign registry on first use) the
  // app's spec + scenario.  Returns nullptr with `error` set when unknown.
  const AppEntry* ResolveApp(const std::string& app, std::string* error);

  // Handle() minus the latency accounting that wraps it.
  Answer HandleQuery(const Query& query);

  Answer AnswerCell(const campaign::CampaignSpec& spec,
                    const campaign::Scenario& scenario, int series_index,
                    int rate_index, double ci, bool allow_fresh);

  Answer AnswerSurrogate(const campaign::CampaignSpec& spec,
                         const campaign::Scenario& scenario, int series_index,
                         double rate);

  store::ResultStore* store_;
  std::map<std::string, AppEntry> apps_;
};

}  // namespace robustify::service
