// robustify_cli: one driver for every registered campaign.
//
//   robustify_cli list [--fingerprints]
//       Registered campaigns, their axes, and their series; with
//       --fingerprints, each spec's FNV fingerprint (the result-store key).
//   robustify_cli run <fig|spec-file> [flags]
//       Run a campaign (adaptive trial allocation by default).  --shard=i/N
//       runs only the cells with grid index ≡ i (mod N); shard journals
//       merge into the result store.  `run <fig> --fixed` regenerates a
//       paper figure at the registry's trial count (README figure map).
//   robustify_cli resume <fig|spec-file> [flags]
//       Continue a journaled campaign after a crash or kill; the final CSV
//       is byte-identical to an uninterrupted run.
//   robustify_cli merge <fig|spec-file> --store=DIR [flags] <journal>...
//       Fold shard journals into the content-addressed result store
//       (fingerprint-validated, torn-tail tolerant, idempotent); with
//       --csv, export the merged campaign CSV — byte-identical to the
//       single-process run once every cell is present.
//   robustify_cli query <fig|spec-file> <series> <rate> [flags]
//       Answer success rate ± Wilson CI from the store: cached cells that
//       already meet --ci are served as-is, off-grid rates go through the
//       logistic cliff surrogate, and only actual misses run fresh trials
//       (written back to the store).
//   robustify_cli serve <fig|spec-file>... --store=DIR [--threads=N]
//       Newline-delimited-JSON query loop on stdin/stdout; one answer
//       object per query line.  A {"cmd": "stats"} line answers with the
//       serve loop's counters, per-source latency quantiles, and the
//       store manifest instead of running a query.
//   robustify_cli calibrate [--out=PATH] [--quick] [--seconds=S] [--rounds=N]
//       Microbenchmark the host (scalar/vector FLOP peaks, triad memory
//       bandwidth) and cache the provenance-stamped profile as
//       machine_profile.json — the roofline denominators bench_roofline
//       places kernels against.
//
// Flags (run/resume).  The spec flags are the spec file's keys, spelled
// --a-b=v for key a_b (campaign::ApplySpecKey; name, app and bit_model are
// spec-file only), and the spec they build passes campaign::ValidateSpec:
//   --ci=H         target Wilson 95% half-width on the success fraction
//   --budget=N     per-cell trial cap
//   --min-trials=N floor before the stopping rule may fire
//   --fixed        fixed budget (spec trials per cell; no early stopping)
//   --trials=N     override the fixed budget (implies nothing about --fixed)
//   --rates=a,b,c  override the fault-rate axis
//   --series=NAME  restrict to one series (repeatable)
//   --seed=N       override the base seed
//   --shard=i/N    run only this shard's cells (run/resume; i in [0, N))
//   --model=M      fault model: transient|stuck|burst|intermittent
//   --op-classes=C comma-joined arith|cmp|mem subset that can fault
//   --stuck-mean=D / --burst-width=K / --window-mean=W / --window-rate=P
//                  model parameters (faulty/fault_model.h)
//   --guard-flops=N / --guard-iters=N / --guard-bailout
//                  guarded executor budgets (adds outcome columns to the CSV)
//   --threads=N    worker threads (default hardware concurrency)
//   --journal=PATH checkpoint journal (default <name>.journal; run truncates,
//                  resume requires it)
//   --csv=PATH     output CSV (default campaign_<name>.csv)
//   --json=PATH    perf report (default BENCH_campaign_<name>.json)
//   --trace[=PATH] flight-recorder spans -> Chrome trace JSON
//                  (default TRACE_campaign_<name>.json; load in Perfetto)
//   --metrics=PATH merged counter/histogram snapshot + provenance JSON
//   --attr[=PATH]  wall-time attribution ledger -> per-category self/total
//                  report on stderr (or to PATH when given)
//   --progress     heartbeat lines on stderr (cells done, trials/s, ETA)
//
// Flags (merge/query/serve):
//   --store=DIR    result store root (default "store")
//   --csv=PATH     (merge) export the merged campaign CSV
//   --no-fresh     (query) never run trials; miss => error or surrogate
//   --no-surrogate (query) never answer from the fitted surrogate
//   --ci=H         (query) requested half-width (default: the spec's own)
//   --threads=N    (query/serve) workers for a miss's fresh trials (default
//                  hardware concurrency); answers and store bytes do not
//                  depend on it
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "campaign/adaptive.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "faulty/fault_model.h"
#include "harness/csv.h"
#include "harness/parallel.h"
#include "harness/perf_report.h"
#include "harness/table.h"
#include "harness/timer.h"
#include "perfmodel/calibrate.h"
#include "service/query_service.h"
#include "store/result_store.h"
#include "telemetry/attribution.h"
#include "telemetry/metrics_export.h"
#include "telemetry/progress.h"
#include "telemetry/trace.h"

namespace {

using namespace robustify;

int Usage() {
  std::cerr
      << "usage: robustify_cli list [--fingerprints]\n"
      << "       robustify_cli {run,resume} <fig|spec-file> [--ci=H] [--budget=N]\n"
      << "           [--min-trials=N] [--fixed] [--trials=N]\n"
      << "           [--rates=a,b,c] [--series=NAME]... [--seed=N] [--shard=i/N]\n"
      << "           [--threads=N]\n"
      << "           [--model=M] [--op-classes=C] [--stuck-mean=D] [--burst-width=K]\n"
      << "           [--window-mean=W] [--window-rate=P] [--guard-flops=N]\n"
      << "           [--guard-iters=N] [--guard-bailout]\n"
      << "           [--journal=PATH] [--csv=PATH] [--json=PATH]\n"
      << "           [--trace[=PATH]] [--metrics=PATH] [--attr[=PATH]]\n"
      << "           [--progress]\n"
      << "       robustify_cli merge <fig|spec-file> [--store=DIR] [--csv=PATH]\n"
      << "           [--fixed] [spec flags] <journal>...\n"
      << "       robustify_cli query <fig|spec-file> <series> <rate> [--ci=H]\n"
      << "           [--store=DIR] [--no-fresh] [--no-surrogate] [--threads=N]\n"
      << "           [spec flags]\n"
      << "       robustify_cli serve [--store=DIR] [--threads=N] [<fig|spec-file>...]\n"
      << "       robustify_cli calibrate [--out=PATH] [--quick] [--seconds=S]\n"
      << "           [--rounds=N]\n";
  return 2;
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "robustify_cli: " << message << "\n";
  std::exit(2);
}

int IntFlag(const std::string& flag, const std::string& value,
            int min_value = std::numeric_limits<int>::min()) {
  try {
    return campaign::ParseInt(flag, value, min_value);
  } catch (const std::exception& e) {
    Die(e.what());
  }
}

double ParseDoubleFlag(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    Die("malformed " + flag + " value: " + value);
  }
  return parsed;
}

int RunList(bool fingerprints) {
  if (fingerprints) {
    // One `fingerprint  name` line per registry spec: the hex fingerprint
    // is the result store's directory name, so this output correlates
    // store contents with specs without running anything.
    for (const std::string& name : campaign::RegistryNames()) {
      std::printf("%016llx  %s\n",
                  static_cast<unsigned long long>(
                      campaign::SpecFingerprint(campaign::RegistrySpec(name))),
                  name.c_str());
    }
    return 0;
  }
  std::cout << "registered campaigns (robustify_cli run <name>):\n\n";
  for (const std::string& name : campaign::RegistryNames()) {
    const campaign::CampaignSpec& spec = campaign::RegistrySpec(name);
    std::cout << "  " << name << "\n    rates:";
    for (const double r : spec.fault_rates) std::cout << " " << r;
    std::cout << "\n    trials: " << spec.fixed_trials
              << " fixed / budget " << spec.max_trials << ", ci "
              << spec.ci_half_width << ", seed " << spec.base_seed
              << "\n    model: " << faulty::TemporalName(spec.model.temporal)
              << ", classes " << faulty::OpClassesName(spec.model.op_classes);
    if (spec.guard.Active()) {
      std::cout << ", guard flops=" << spec.guard.max_flops
                << " iters=" << spec.guard.max_iterations
                << " bailout=" << (spec.guard.nonfinite_bailout ? 1 : 0);
    }
    std::cout << "\n    series:";
    for (const std::string& s : campaign::ScenarioSeriesNames(spec.app)) {
      std::cout << " [" << s << "]";
    }
    std::cout << "\n";
  }
  std::cout << "\nspec files (key = value, see README) run the same way:\n"
            << "  robustify_cli run my_campaign.spec\n";
  return 0;
}

struct CliOptions {
  campaign::CampaignSpec spec;
  campaign::RunnerOptions runner;
  std::string csv_path;
  harness::RunOutputs outputs;
};

// A spec file wins when the path exists; otherwise the registry.
campaign::CampaignSpec LoadTargetSpec(const std::string& target) {
  if (std::ifstream probe(target); probe.good()) {
    return campaign::ParseSpecFile(target);
  }
  return campaign::RegistrySpec(target);
}

// Applies one spec flag (the flags every subcommand that resolves a spec
// shares — run, merge, query, serve must agree on these to agree on the
// fingerprint): --a-b=v sets spec key a_b, and --guard-bailout sets
// guard_bailout = 1.  Returns false when `arg` is not a spec flag.
bool ApplySpecFlag(campaign::CampaignSpec* spec, const std::string& arg) {
  if (arg == "--guard-bailout") return campaign::ApplySpecKey(spec, "guard_bailout", "1");
  const std::size_t eq = arg.find('=');
  if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
  std::string key = arg.substr(2, eq - 2);
  // Underscores are the file spelling; name, app and bit_model are
  // spec-file only, and --guard-bailout takes no value.
  if (key.find('_') != std::string::npos) return false;
  std::replace(key.begin(), key.end(), '-', '_');
  if (key == "name" || key == "app" || key == "bit_model" || key == "guard_bailout") {
    return false;
  }
  try {
    return campaign::ApplySpecKey(spec, key, arg.substr(eq + 1));
  } catch (const std::exception& e) {
    Die(arg.substr(0, eq) + ": " + e.what());
  }
}

int RunCampaignCommand(bool resume, const std::string& target,
                       const std::vector<std::string>& flags) {
  CliOptions cli;
  cli.spec = LoadTargetSpec(target);

  cli.runner.resume = resume;
  bool journal_set = false;
  for (const std::string& arg : flags) {
    if (ApplySpecFlag(&cli.spec, arg)) {
      continue;
    } else if (arg == "--fixed") {
      cli.runner.adaptive = false;
    } else if (arg.rfind("--threads=", 0) == 0) {
      cli.runner.threads = IntFlag("--threads", arg.substr(10), 0);
    } else if (arg.rfind("--journal=", 0) == 0) {
      cli.runner.journal_path = arg.substr(10);
      journal_set = true;
    } else if (arg.rfind("--csv=", 0) == 0) {
      cli.csv_path = arg.substr(6);
    } else if (harness::ParseOutputFlag(arg, &cli.outputs)) {
      continue;
    } else if (arg == "--progress") {
      telemetry::EnableProgress();
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return Usage();
    }
  }
  campaign::ValidateSpec(cli.spec);
  if (!journal_set) {
    // Shards default to distinct journal names so N shard runs in one
    // directory never clobber each other's checkpoints.
    cli.runner.journal_path =
        cli.spec.shard_count > 1
            ? cli.spec.name + ".shard" + std::to_string(cli.spec.shard_index) +
                  "of" + std::to_string(cli.spec.shard_count) + ".journal"
            : cli.spec.name + ".journal";
  }
  if (cli.csv_path.empty()) cli.csv_path = "campaign_" + cli.spec.name + ".csv";

  if (cli.outputs.trace) telemetry::StartTracing();
  if (cli.outputs.attr) telemetry::SetAttributionEnabled(true);

  const campaign::Scenario scenario = campaign::BuildScenario(cli.spec);

  std::cout << "campaign " << cli.spec.name << " (" << scenario.series.size()
            << " series x " << cli.spec.fault_rates.size() << " rates, "
            << (cli.runner.adaptive
                    ? "adaptive: ci " + std::to_string(cli.spec.ci_half_width) +
                          ", budget " + std::to_string(cli.spec.max_trials)
                    : "fixed: " + std::to_string(cli.spec.fixed_trials) +
                          " trials/cell")
            << (resume ? ", resuming " + cli.runner.journal_path : "") << ")\n";

  harness::WallTimer timer;
  const campaign::CampaignResult result =
      campaign::RunCampaign(cli.spec, scenario, cli.runner);
  const double wall = timer.Seconds();

  harness::PrintSweepTable(std::cout, scenario.title, result.series, scenario.value,
                           scenario.value_label);
  harness::PrintSweepTable(std::cout, scenario.title + " (success rate)",
                           result.series, harness::TableValue::kSuccessRatePct,
                           "success rate (%)");

  // Per-cell allocation map: where the adaptive controller actually spent
  // the budget.  A fixed run has no CI target, so no cell is marked or
  // counted as settled.
  const bool adaptive = cli.runner.adaptive;
  std::cout << (adaptive ? "trials per cell (* = budget hit before the CI target):\n"
                         : "trials per cell:\n");
  for (std::size_t s = 0; s < result.cells.size(); ++s) {
    std::printf("  %-24s", result.series[s].name.c_str());
    for (const campaign::CellStats& cell : result.cells[s]) {
      std::printf(" %5d", cell.trials);
      if (adaptive) std::putchar(cell.settled ? ' ' : '*');
    }
    std::printf("\n");
  }
  const std::string settled =
      adaptive ? ", " + std::to_string(result.settled_cells) + "/" +
                     std::to_string(result.cell_count) + " cells settled"
               : "";
  std::printf(
      "total trials: %ld / %ld budget (%.1f%%)%s%s\n",
      result.total_trials, result.budget_trials,
      100.0 * static_cast<double>(result.total_trials) /
          static_cast<double>(result.budget_trials > 0 ? result.budget_trials : 1),
      settled.c_str(),
      result.resumed_trials > 0
          ? (" (" + std::to_string(result.resumed_trials) + " replayed from journal)")
                .c_str()
          : "");
  std::printf("wall: %.3f s, %.1f Mops/s through the injector\n", wall,
              wall > 0.0 ? result.faulty_flops / wall / 1e6 : 0.0);

  try {
    harness::WriteSweepCsv(cli.csv_path, result.series, cli.spec.guard.Active());
    std::cout << "[csv written: " << cli.csv_path << "]\n";
  } catch (const std::exception& e) {
    std::cout << "[csv skipped: " << e.what() << "]\n";
  }

  harness::PerfReport report;
  report.bench = "campaign_" + cli.spec.name;
  report.threads = harness::ResolveThreadCount(cli.runner.threads);
  report.wall_seconds = wall;
  harness::PerfSection section;
  section.name = cli.runner.adaptive ? "adaptive" : "fixed";
  section.wall_seconds = wall;
  section.faulty_flops = result.faulty_flops;
  if (wall > 0.0) section.injector_mops_per_sec = result.faulty_flops / wall / 1e6;
  section.trials_run = static_cast<double>(result.total_trials);
  section.trials_budget = static_cast<double>(result.budget_trials);
  report.sections.push_back(section);
  harness::WriteRunOutputs(&report, cli.outputs);
  return 0;
}

int RunMergeCommand(const std::string& target,
                    const std::vector<std::string>& flags) {
  campaign::CampaignSpec spec = LoadTargetSpec(target);
  std::string store_root = "store";
  std::string csv_path;
  bool adaptive = true;
  std::vector<std::string> journals;
  for (const std::string& arg : flags) {
    if (ApplySpecFlag(&spec, arg)) {
      continue;
    } else if (arg.rfind("--store=", 0) == 0) {
      store_root = arg.substr(8);
    } else if (arg.rfind("--csv=", 0) == 0) {
      csv_path = arg.substr(6);
    } else if (arg == "--fixed") {
      adaptive = false;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown argument: " << arg << "\n";
      return Usage();
    } else {
      journals.push_back(arg);
    }
  }
  campaign::ValidateSpec(spec);
  if (journals.empty()) Die("merge: no journals given");

  store::ResultStore result_store(store_root);
  for (const std::string& path : journals) {
    const store::ResultStore::IngestStats stats =
        result_store.IngestJournal(spec, path);
    std::cout << "ingested " << path << ": " << stats.records_added
              << " new records across " << stats.cells_updated << " cells\n";
  }
  std::cout << "store: " << result_store.CampaignDir(spec) << "\n";

  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const store::StoredCells stored = result_store.Load(spec);
  const campaign::CampaignResult result =
      campaign::ReduceRecords(spec, scenario, stored.records, adaptive);
  std::printf("merged: %ld trials, %d/%d cells settled\n", result.total_trials,
              result.settled_cells, result.cell_count);
  if (!csv_path.empty()) {
    harness::WriteSweepCsv(csv_path, result.series, spec.guard.Active());
    std::cout << "[csv written: " << csv_path << "]\n";
  }
  return 0;
}

int RunQueryCommand(const std::string& target, const std::string& series,
                    const std::string& rate_text,
                    const std::vector<std::string>& flags) {
  campaign::CampaignSpec spec = LoadTargetSpec(target);
  service::Query query;
  query.series = series;
  query.rate = ParseDoubleFlag("rate", rate_text);
  std::string store_root = "store";
  std::string metrics_path;
  int threads = 0;
  for (const std::string& arg : flags) {
    // --ci is a query parameter here, not a spec mutation: it asks for a
    // precision, it does not redefine the campaign.
    if (arg.rfind("--ci=", 0) == 0) {
      query.ci = ParseDoubleFlag("--ci", arg.substr(5));
      if (!(query.ci > 0.0)) Die("--ci must be > 0");
    } else if (ApplySpecFlag(&spec, arg)) {
      continue;
    } else if (arg.rfind("--store=", 0) == 0) {
      store_root = arg.substr(8);
    } else if (arg == "--no-fresh") {
      query.allow_fresh = false;
    } else if (arg == "--no-surrogate") {
      query.allow_surrogate = false;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = IntFlag("--threads", arg.substr(10), 0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return Usage();
    }
  }
  campaign::ValidateSpec(spec);
  query.app = spec.app;

  store::ResultStore result_store(store_root);
  service::QueryService service_engine(&result_store, threads);
  service_engine.RegisterSpec(spec, campaign::BuildScenario(spec));
  const service::Answer answer = service_engine.Handle(query);
  std::cout << service::QueryService::AnswerJson(answer) << "\n";
  if (answer.ok) {
    std::fprintf(stderr,
                 "%s / %s @ rate %g: success %.1f%% ± %.1fpp (n=%d, "
                 "source=%s%s%s)\n",
                 query.app.c_str(), query.series.c_str(), query.rate,
                 100.0 * answer.success_rate, 100.0 * answer.half_width,
                 answer.trials, answer.source.c_str(),
                 answer.settled ? ", settled" : "",
                 answer.on_grid ? "" : ", off-grid");
  } else {
    std::fprintf(stderr, "query failed: %s\n", answer.error.c_str());
  }
  if (!metrics_path.empty()) {
    telemetry::MetricsContext context;
    context.bench = "query_" + spec.name;
    telemetry::WriteMetricsJson(metrics_path, context);
  }
  return answer.ok ? 0 : 1;
}

int RunServeCommand(const std::vector<std::string>& args) {
  std::string store_root = "store";
  int threads = 0;
  std::vector<std::string> targets;
  for (const std::string& arg : args) {
    if (arg.rfind("--store=", 0) == 0) {
      store_root = arg.substr(8);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = IntFlag("--threads", arg.substr(10), 0);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown argument: " << arg << "\n";
      return Usage();
    } else {
      targets.push_back(arg);
    }
  }
  store::ResultStore result_store(store_root);
  service::QueryService service_engine(&result_store, threads);
  // Pre-register any named targets (spec files need this — a query's "app"
  // key cannot name a file); registry apps also resolve lazily by name.
  for (const std::string& target : targets) {
    campaign::CampaignSpec spec = LoadTargetSpec(target);
    service_engine.RegisterSpec(spec, campaign::BuildScenario(spec));
  }
  service_engine.Serve(std::cin, std::cout);
  return 0;
}

int RunCalibrateCommand(const std::vector<std::string>& args) {
  std::string out_path = "machine_profile.json";
  perfmodel::CalibrationOptions options;
  for (const std::string& arg : args) {
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--quick") {
      options = perfmodel::CalibrationOptions::Quick();
    } else if (arg.rfind("--seconds=", 0) == 0) {
      options.seconds_per_probe = ParseDoubleFlag("--seconds", arg.substr(10));
      if (!(options.seconds_per_probe > 0.0)) Die("--seconds must be > 0");
    } else if (arg.rfind("--rounds=", 0) == 0) {
      options.rounds = IntFlag("--rounds", arg.substr(9), 1);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return Usage();
    }
  }
  const perfmodel::MachineProfile profile = perfmodel::Calibrate(options);
  if (!profile.valid) Die("calibration produced an invalid profile");
  std::printf("scalar peak:      %8.3f Gops/s\n", profile.scalar_peak_gops);
  std::printf("vector peak:      %8.3f Gops/s\n", profile.vector_peak_gops);
  std::printf("triad bandwidth:  %8.3f GB/s\n", profile.triad_bandwidth_gbps);
  std::printf("sustained bw:     %8.3f GB/s\n", profile.sustained_bandwidth_gbps);
  std::printf("calibration took: %8.3f s\n", profile.calibration_seconds);
  perfmodel::WriteMachineProfile(out_path, profile);
  std::cout << "[machine profile written: " << out_path << "]\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  try {
    if (command == "list") {
      if (argc == 3 && std::string(argv[2]) == "--fingerprints") {
        return RunList(true);
      }
      if (argc != 2) return Usage();
      return RunList(false);
    }
    if (command == "run" || command == "resume") {
      if (argc < 3) return Usage();
      std::vector<std::string> flags;
      for (int i = 3; i < argc; ++i) flags.emplace_back(argv[i]);
      return RunCampaignCommand(command == "resume", argv[2], flags);
    }
    if (command == "merge") {
      if (argc < 3) return Usage();
      std::vector<std::string> flags;
      for (int i = 3; i < argc; ++i) flags.emplace_back(argv[i]);
      return RunMergeCommand(argv[2], flags);
    }
    if (command == "query") {
      if (argc < 5) return Usage();
      std::vector<std::string> flags;
      for (int i = 5; i < argc; ++i) flags.emplace_back(argv[i]);
      return RunQueryCommand(argv[2], argv[3], argv[4], flags);
    }
    if (command == "serve") {
      std::vector<std::string> args;
      for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
      return RunServeCommand(args);
    }
    if (command == "calibrate") {
      std::vector<std::string> args;
      for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
      return RunCalibrateCommand(args);
    }
  } catch (const std::exception& e) {
    std::cerr << "robustify_cli: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
