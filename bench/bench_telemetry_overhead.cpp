// Telemetry overhead gate: counters on vs. off, same workload, one binary.
//
// The flight-recorder contract is that observability is (nearly) free: the
// per-op path carries no telemetry at all, the fault walk tallies clean runs
// into the injector and books them once per scope, and the remaining sites
// sit on cold paths.  This bench pins that down on two cells of the fig6_2
// least-squares sweep: realistic rates (faults are rare, the countdown hot
// path dominates) and high rates (0.05 and 0.1, where the per-fault walk
// dominates and a per-fault telemetry call would show).  Each cell runs
// counters-off and counters-on in ABBA-ordered pairs (pair i runs "off"
// first when i is even, "on" first when it is odd, so a drift of the host's
// speed falls on both arms alike) and takes the median of the per-pair
// ratios on/off.  A cell fails when that median exceeds 1.02; one over the
// gate measures another round of pairs and takes the median over all of
// them (noise only ever inflates one side of a pair at random, a real cost
// inflates every pair).
//
// SetCountersEnabled gates the bookings, not the clean-run tally itself:
// the walk's one bucket increment per gap runs in both arms, so this gate
// does not see its cost.  That cost shows only against a build with
// telemetry compiled out, or in an A/B against an older tree
// (tools/ab_bench.py).
//
// With telemetry compiled out (-DROBUSTIFY_TELEMETRY=OFF) both arms run the
// same code and the gate passes trivially — which is itself the check that
// the compile-out path builds and runs.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace {

using namespace robustify;

constexpr int kPairs = 8;
constexpr int kMaxRounds = 3;
constexpr double kAllowedOverhead = 0.02;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct CellResult {
  double median_off_s;
  double median_on_s;
  double overhead;  // median per-pair ratio on/off, minus 1
  int pairs;
};

// Times one arm: a whole fixed campaign with counters on or off.
double TimeArm(const campaign::CampaignSpec& spec, const campaign::Scenario& scenario,
               const campaign::RunnerOptions& runner, bool counters) {
  telemetry::SetCountersEnabled(counters);
  harness::WallTimer timer;
  campaign::RunCampaign(spec, scenario, runner);
  return timer.Seconds();
}

CellResult MeasureCell(const char* name, const std::vector<double>& rates, int trials,
                       int threads) {
  campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_2");
  spec.fault_rates = rates;
  spec.fixed_trials = trials;
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  campaign::RunnerOptions runner;
  runner.threads = threads;
  runner.adaptive = false;

  // Warm-up: builds the shared sampling tables and faults in the worker
  // threads' scratch so neither arm pays first-run costs.
  campaign::RunCampaign(spec, scenario, runner);

  std::vector<double> off, on, ratios;
  double overhead = 0.0;
  for (int round = 0; round < kMaxRounds; ++round) {
    for (int pair = 0; pair < kPairs; ++pair) {
      const bool on_first = pair % 2 == 1;
      const double first = TimeArm(spec, scenario, runner, on_first);
      const double second = TimeArm(spec, scenario, runner, !on_first);
      off.push_back(on_first ? second : first);
      on.push_back(on_first ? first : second);
      ratios.push_back(off.back() > 0.0 ? on.back() / off.back() : 1.0);
    }
    overhead = Median(ratios) - 1.0;
    if (overhead <= kAllowedOverhead) break;
    std::printf("%s round %d: overhead %+.2f%% over gate, re-measuring\n", name,
                round + 1, 100.0 * overhead);
  }
  telemetry::SetCountersEnabled(true);
  return {Median(off), Median(on), overhead, static_cast<int>(ratios.size())};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx("telemetry_overhead", argc, argv);
  bench::Banner("Telemetry overhead: counters on vs off (ABBA pairs, median ratio)",
                "observability PR acceptance gate",
                "counters-on wall time within 2% of counters-off, per cell");

  // Tracing is a separate opt-in dimension; span emission runs in both arms
  // (SetCountersEnabled does not gate it) and its jitter would contaminate
  // the counters-only A/B gate, so pin it off even under ROBUSTIFY_TRACE=1.
  telemetry::StopTracing();

  struct Cell {
    const char* name;
    std::vector<double> rates;
    int trials;
  };
  const Cell cells[] = {
      {"realistic", {1e-5, 1e-4, 1e-3}, ctx.TrialsOr(10)},
      {"high_rate", {0.05, 0.1}, ctx.TrialsOr(2)},
  };
  // One worker unless --threads says otherwise: starting and joining a
  // pool per run adds scheduler jitter to both arms and nothing to measure.
  const int threads = ctx.options().threads > 0 ? ctx.options().threads : 1;
  bool pass = true;
  for (const Cell& cell : cells) {
    const CellResult r = MeasureCell(cell.name, cell.rates, cell.trials, threads);
    std::printf("%-10s counters off %.4f s, on %.4f s (medians of %d ABBA pairs), "
                "overhead %+.2f%% (gate: <= %.0f%%)\n",
                cell.name, r.median_off_s, r.median_on_s, r.pairs, 100.0 * r.overhead,
                100.0 * kAllowedOverhead);
    ctx.RecordSection(std::string(cell.name) + "_counters_off", r.median_off_s, 0.0);
    ctx.RecordSection(std::string(cell.name) + "_counters_on", r.median_on_s, 0.0);
    if (r.overhead > kAllowedOverhead) {
      std::fprintf(stderr, "FAIL: %s counters-on overhead %.2f%% exceeds the %.0f%% gate\n",
                   cell.name, 100.0 * r.overhead, 100.0 * kAllowedOverhead);
      pass = false;
    }
  }

  const int status = ctx.Finish();
  return pass ? status : 1;
}
