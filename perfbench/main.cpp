// robustify benchmark driver.
//
//   perfbench_driver --workload <lsq_lowrate|lsq_highrate|store_query>
//                    --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Runs one workload for S seconds after its set-up, checks every output,
// prints each metric on its own line ("name value unit"), and ends with one
// JSON line holding every metric it measured plus the correct / attempted /
// failed tally.  --trace 0 measures the end-to-end metrics; --trace 1
// alternates untraced and traced passes and adds the per-layer metrics from
// spans recorded around calls into the library's public functions.
//
// Workloads (all on the paper's fig6_2 / fig6_6 least-squares scenarios):
//   lsq_lowrate   fig6_2, all 4 series, rates {0, 1e-4, 1e-3, 1e-2}: below
//                 the 1/32 bulk cutoff, so clean bulk BLAS loops and SGD step
//                 logic do the work.
//   lsq_highrate  fig6_2, all 4 series, rates {0.05, 0.1}: the injector fault
//                 path and per-scalar fallback loops dominate.
//   store_query   one closed-loop client sending a seeded NDJSON query
//                 sequence to the query service over a store seeded from a
//                 fig6_6 campaign: store parsing and the service dominate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "telemetry/trace.h"

namespace perfbench {

double PeakRssMb() {
  // VmHWM belongs to this program's address space; getrusage's ru_maxrss
  // would also count the pages a fork inherited from the parent before exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!keep) c = '_';
  }
  return out;
}

std::uint64_t CounterDelta(const telemetry::CounterSnapshot& before,
                           const telemetry::CounterSnapshot& after,
                           telemetry::Counter counter) {
  return after.value(counter) - before.value(counter);
}

namespace {

struct CampaignWorkload {
  const char* name;
  std::vector<double> rates;
};

// Together the two axes are exactly the registry's fig6_2 axis.  Both run
// the registry's fixed trial count per cell.
const CampaignWorkload kLowRate{"lsq_lowrate", {0.0, 1e-4, 1e-3, 1e-2}};
const CampaignWorkload kHighRate{"lsq_highrate", {0.05, 0.1}};

// setup_s is the median of cold set-ups spread over the measured window:
// one before a pass whenever set-ups have used under kSetUpShare of the
// window so far, at most kMaxSetUps, topped up to kMinSetUps at its end.
// This host's speed drifts within seconds (one thread runs up to 1.5x
// slower on some cores than on others), so samples taken back to back
// share one state, while samples spread over the window average it out.
constexpr int kMinSetUps = 7;
constexpr int kMaxSetUps = 25;
constexpr double kSetUpShare = 0.2;
constexpr int kMinPasses = 5;           // per kind (untraced, traced)
constexpr int kPrefixTrials = 2;        // trials per cell of the 1-thread check
constexpr std::size_t kLsqRows = 100;   // MakeRandomLsqProblem(100, 10, .)
constexpr std::size_t kLsqCols = 10;    // of both fig6_2 and fig6_6

// The store probe a traced campaign run adds so every traced run reports
// the store and service layers: a small fig6_6 store.
StoreConfig SmallStore() {
  StoreConfig config;
  config.stored_trials = 40;
  return config;
}

double Seconds(std::int64_t begin_ns) { return (NowNs() - begin_ns) * 1e-9; }

// Times cold set-ups.  The constructor forks a parked child before the
// driver has started a thread or set anything up; for each sample that
// child forks a grandchild from its untouched state, so every sample pays
// the process-wide lazy set-up (bit tables, gap samplers, workspaces) that
// a first set-up pays.  Samples are taken between measured passes, on a
// host the passes keep busy: after an idle spell this host runs the first
// second of work up to 2.5x slower.
class ColdSetUpTimer {
 public:
  // `set_up` returns its own duration in seconds; it runs only in
  // grandchildren, so it must not share files with the driver's set-up.
  explicit ColdSetUpTimer(const std::function<double()>& set_up) {
    int start[2], result[2];
    if (pipe(start) != 0) throw std::runtime_error("pipe failed");
    if (pipe(result) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      close(start[1]);
      close(result[0]);
      Park(start[0], result[1], set_up);
    }
    close(start[0]);
    close(result[1]);
    start_ = start[1];
    result_ = result[0];
  }
  ~ColdSetUpTimer() { Finish(); }
  ColdSetUpTimer(const ColdSetUpTimer&) = delete;
  ColdSetUpTimer& operator=(const ColdSetUpTimer&) = delete;

  // Called before each measured pass of the window that began at
  // `window_begin_ns`: takes a sample when set-ups have used under
  // kSetUpShare of the window so far.
  void BetweenPasses(std::int64_t window_begin_ns) {
    if (static_cast<int>(seconds_.size()) < kMaxSetUps &&
        spent_s_ < kSetUpShare * Seconds(window_begin_ns)) {
      Sample();
    }
  }

  // The samples, topped up to kMinSetUps, in seconds.
  std::vector<double> Samples() {
    while (static_cast<int>(seconds_.size()) < kMinSetUps) Sample();
    if (!Finish()) throw std::runtime_error("cold set-up child failed");
    return seconds_;
  }

 private:
  // Forks one grandchild per byte read from `start`; a failed set-up
  // writes NaN.  End of file on `start` ends the child.
  [[noreturn]] static void Park(int start, int result, const std::function<double()>& set_up) {
    char go = 0;
    while (read(start, &go, 1) == 1) {
      const pid_t pid = fork();
      if (pid == 0) {
        double seconds = std::nan("");
        try {
          seconds = set_up();
        } catch (...) {
        }
        _exit(write(result, &seconds, sizeof(seconds)) == sizeof(seconds) ? 0 : 1);
      }
      int status = 0;
      if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        _exit(1);
      }
    }
    _exit(0);
  }

  void Sample() {
    const std::int64_t begin = NowNs();
    const char go = 1;
    double seconds = std::nan("");
    char* out = reinterpret_cast<char*>(&seconds);
    std::size_t got = 0;
    if (pid_ > 0 && write(start_, &go, 1) == 1) {
      for (ssize_t n = 1; got < sizeof(seconds) && n > 0; got += static_cast<std::size_t>(n)) {
        n = std::max<ssize_t>(0, read(result_, out + got, sizeof(seconds) - got));
      }
    }
    if (got != sizeof(seconds) || !(seconds > 0.0)) throw std::runtime_error("cold set-up failed");
    seconds_.push_back(seconds);
    spent_s_ += Seconds(begin);
  }

  // Ends the parked child and waits for it; true when it exited cleanly.
  bool Finish() {
    if (pid_ <= 0) return true;
    close(start_);
    close(result_);
    int status = 0;
    const bool ok =
        waitpid(pid_, &status, 0) == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
    return ok;
  }

  std::vector<double> seconds_;
  double spent_s_ = 0.0;
  pid_t pid_ = -1;
  int start_ = -1;
  int result_ = -1;
};

// True while the measured loop should run another pass: until `seconds`
// have passed, and at least kMinPasses of each kind.
bool KeepGoing(std::int64_t begin_ns, const Options& opt, int passes) {
  const int min_passes = opt.trace ? 2 * kMinPasses : kMinPasses;
  return passes < min_passes || Seconds(begin_ns) < opt.seconds;
}

// One measured pass: its wall time and the latency of each operation in it
// (a trial of a campaign workload, a query of store_query), in a fixed
// operation order: every pass of a run repeats the same operations.
struct TimedPass {
  double wall_s = 0.0;
  std::vector<double> op_ms;
};

// Trial latencies of a campaign pass, ordered by (series, rate, seed).
std::vector<double> TrialLatenciesMs(std::vector<TrialSample> trials) {
  std::sort(trials.begin(), trials.end(), [](const TrialSample& a, const TrialSample& b) {
    return std::tie(a.series, a.rate, a.seed) < std::tie(b.series, b.rate, b.seed);
  });
  std::vector<double> ms;
  for (const TrialSample& t : trials) ms.push_back(t.seconds() * 1e3);
  return ms;
}

// The host's cores are time-shared with other tenants at a millisecond
// grain, and the share drifts over minutes: the same pass runs up to 1.9x
// slower from one minute to the next, while the fastest of many repeats of
// a millisecond-scale operation stays within a few percent.  So every
// timing is a best-of-N over the passes of the run: wall_s is the fastest
// pass, and each operation's latency is its fastest repeat.
std::vector<double> BestOpLatenciesMs(const std::vector<TimedPass>& passes) {
  std::vector<double> best = passes.front().op_ms;
  for (const TimedPass& p : passes) {
    if (p.op_ms.size() != best.size()) throw std::runtime_error("passes differ in operations");
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], p.op_ms[i]);
  }
  return best;
}

double BestWall(const std::vector<TimedPass>& passes) {
  double best = passes.front().wall_s;
  for (const TimedPass& p : passes) best = std::min(best, p.wall_s);
  return best;
}

// Reports the end-to-end metrics; returns the best latency (ms) of each
// operation of the pass.
std::vector<double> ReportEndToEnd(const std::vector<double>& setup_s,
                                   const std::vector<TimedPass>& passes,
                                   double trials_per_pass, Report* report) {
  const std::vector<double> op_ms = BestOpLatenciesMs(passes);
  const double wall = BestWall(passes);
  std::vector<double> walls;
  for (const TimedPass& p : passes) walls.push_back(p.wall_s);
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("setup_count", static_cast<double>(setup_s.size()), "count");
  report->Add("wall_s", wall, "s");
  report->Add("trials_per_s", trials_per_pass / wall, "1/s");
  report->Add("op_p50_ms", Quantile(op_ms, 0.50), "ms");
  report->Add("op_p95_ms", Quantile(op_ms, 0.95), "ms");
  report->Add("op_count", static_cast<double>(op_ms.size()), "count");
  report->Add("passes", static_cast<double>(passes.size()), "count");
  report->Add("wall_median_s", Median(walls), "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  return op_ms;
}

// Traced passes of a store probe, then the store/service layer report.
void ReportStoreLayers(StoreBench* bench, SpanRecorder* spans, Report* report,
                       Tally* tally) {
  std::vector<QueryPass> passes;
  for (int i = 0; i < 2; ++i) {
    bench->Reset();
    ScopedSpan root(spans, "pass.store");
    passes.push_back(bench->Run(spans));
    ScopedSpan check(spans, "check");
    bench->CheckPass(passes.back(), i == 0 ? nullptr : &passes.front(), tally);
  }
  ScopedSpan root(spans, "store.layers");
  bench->ReportLayers(passes, spans, report);
}

void RunCampaignWorkload(const CampaignWorkload& w, const Options& opt,
                         SpanRecorder* spans, Report* report, Tally* tally) {
  campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_2");
  spec.name = w.name;
  spec.fault_rates = w.rates;
  spec.base_seed = opt.seed;

  // Set-up: scenario build and one warm-up pass, so lazy gap-sampler and
  // workspace set-up is paid here and not in the measured passes.
  std::unique_ptr<CampaignBench> bench;
  const auto set_up = [&](const std::string& work_dir) {
    const std::int64_t begin = NowNs();
    bench = std::make_unique<CampaignBench>(spec, work_dir);
    bench->Warm();
    return Seconds(begin);
  };
  ColdSetUpTimer setup_timer([&] { return set_up(opt.out_dir + "/setup"); });
  set_up(opt.out_dir);

  std::string reference_csv;
  std::vector<TimedPass> untraced_passes, traced_passes;
  std::vector<CampaignPass> traced;
  CampaignPass last;
  const std::int64_t begin = NowNs();
  for (int i = 0; KeepGoing(begin, opt, i); ++i) {
    setup_timer.BetweenPasses(begin);
    const bool is_traced = opt.trace && i % 2 == 1;
    SpanRecorder* recorder = is_traced ? spans : nullptr;
    ScopedSpan root(recorder, "pass");
    CampaignPass pass = bench->Run(opt.threads, recorder);
    {
      ScopedSpan check(recorder, "check");
      const std::string csv = bench->CheckPass(pass, reference_csv, tally);
      if (reference_csv.empty()) reference_csv = csv;
    }
    (is_traced ? traced_passes : untraced_passes)
        .push_back({pass.wall_s, TrialLatenciesMs(pass.trials)});
    if (is_traced) traced.push_back(pass);
    last = std::move(pass);
  }
  bench->CheckOneThreadPrefix(kPrefixTrials, last, tally);
  const std::vector<double> setup_s = setup_timer.Samples();

  const double trials_per_pass = static_cast<double>(
      spec.fixed_trials * bench->scenario().series.size() * w.rates.size());
  ReportEndToEnd(setup_s, untraced_passes, trials_per_pass, report);
  if (!opt.trace) return;

  CampaignPass one_thread;
  {
    ScopedSpan root(spans, "pass.1thread");
    one_thread = bench->Run(1, spans);
  }
  ReportCampaignLayers(*bench, traced, one_thread, report, tally);
  report->Add("telemetry.trace_overhead_frac",
              BestWall(traced_passes) / BestWall(untraced_passes) - 1.0, "frac");
  ReportKernelProbe(kLsqRows, kLsqCols, *std::max_element(w.rates.begin(), w.rates.end()),
                    opt.seed, spans, report);
  StoreBench store(opt.seed, SmallStore(), opt.threads, opt.out_dir + "/store_probe");
  ReportStoreLayers(&store, spans, report, tally);
}

void RunStoreWorkload(const Options& opt, SpanRecorder* spans, Report* report,
                      Tally* tally) {
  // Set-up: scenario build, the seed campaign (which also warms the bit
  // tables and gap samplers), and the ingest into the store.
  std::unique_ptr<StoreBench> bench;
  const auto set_up = [&](const std::string& work_dir) {
    const std::int64_t begin = NowNs();
    bench = std::make_unique<StoreBench>(opt.seed, StoreConfig{}, opt.threads, work_dir);
    return Seconds(begin);
  };
  ColdSetUpTimer setup_timer([&] { return set_up(opt.out_dir + "/setup"); });
  set_up(opt.out_dir + "/store_query");

  std::vector<TimedPass> untraced_passes, traced_passes;
  std::vector<QueryPass> traced;
  QueryPass reference;
  long fresh_per_pass = 0;
  const std::int64_t begin = NowNs();
  for (int i = 0; KeepGoing(begin, opt, i); ++i) {
    setup_timer.BetweenPasses(begin);
    const bool is_traced = opt.trace && i % 2 == 1;
    SpanRecorder* recorder = is_traced ? spans : nullptr;
    bench->Reset();
    ScopedSpan root(recorder, "pass");
    QueryPass pass = bench->Run(recorder);
    {
      ScopedSpan check(recorder, "check");
      bench->CheckPass(pass, i == 0 ? nullptr : &reference, tally);
    }
    fresh_per_pass = pass.fresh_trials;
    (is_traced ? traced_passes : untraced_passes).push_back({pass.wall_s, pass.latency_ms});
    if (is_traced) traced.push_back(pass);
    if (i == 0) reference = std::move(pass);
  }
  const std::vector<double> setup_s = setup_timer.Samples();

  // The query-level names of the same figures: a query is this workload's
  // operation, and its trials are the fresh ones.
  const std::vector<double> query_ms = ReportEndToEnd(
      setup_s, untraced_passes, static_cast<double>(fresh_per_pass), report);
  const double queries_per_pass = static_cast<double>(bench->queries_per_pass());
  report->Add("queries_per_s", queries_per_pass / BestWall(untraced_passes), "1/s");
  report->Add("query_p50_ms", Quantile(query_ms, 0.50), "ms");
  report->Add("query_p95_ms", Quantile(query_ms, 0.95), "ms");
  if (!opt.trace) return;

  report->Add("telemetry.trace_overhead_frac",
              BestWall(traced_passes) / BestWall(untraced_passes) - 1.0, "frac");
  {
    ScopedSpan root(spans, "store.layers");
    bench->ReportLayers(traced, spans, report);
  }
  // The campaign layers of this workload are those of its seed campaign.
  const CampaignBench& seed = bench->seed_campaign();
  std::vector<CampaignPass> seed_passes;
  for (int i = 0; i < kMinPasses; ++i) {
    ScopedSpan root(spans, "pass.seed");
    seed_passes.push_back(seed.Run(opt.threads, spans));
  }
  CampaignPass one_thread;
  {
    ScopedSpan root(spans, "pass.1thread");
    one_thread = seed.Run(1, spans);
  }
  ReportCampaignLayers(seed, seed_passes, one_thread, report, tally);
  ReportKernelProbe(kLsqRows, kLsqCols,
                    *std::max_element(seed.spec().fault_rates.begin(),
                                      seed.spec().fault_rates.end()),
                    opt.seed, spans, report);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<lsq_lowrate|lsq_highrate|store_query> --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  // Campaigns use every hardware thread, passed to the runner explicitly.
  opt.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  opt.out_dir = ".bench_build/perfbench-run";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (opt.workload != kLowRate.name && opt.workload != kHighRate.name &&
      opt.workload != "store_query") {
    Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (!(opt.seconds > 0.0)) Usage("--seconds must be > 0");
  return opt;
}

void PrintJsonLine(const Tally& tally, const Report& report) {
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":{",
              tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed);
  bool first = true;
  for (const Report::Metric& m : report.metrics()) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  ThreadLane();  // the driver thread is lane 0
  const Options opt = ParseOptions(argc, argv);

  // Result-changing overrides would make a run incomparable with its
  // parent; thread counts are passed explicitly, never read from the env.
  for (const char* name : {"ROBUSTIFY_RNG", "ROBUSTIFY_INJECTOR", "ROBUSTIFY_ENGINE",
                           "ROBUSTIFY_FAULT_MODEL"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench_driver: refusing to run with %s set\n", name);
      return 2;
    }
  }
  robustify::telemetry::StopTracing();  // the library's own trace ring stays off

  Report report;
  Tally tally;
  SpanRecorder spans;
  try {
    std::filesystem::create_directories(opt.out_dir);
    if (opt.workload == "store_query") {
      RunStoreWorkload(opt, &spans, &report, &tally);
    } else {
      RunCampaignWorkload(opt.workload == kLowRate.name ? kLowRate : kHighRate, opt, &spans,
                          &report, &tally);
    }
    if (opt.trace) {
      // Self time is a span's duration minus its children's, so the self
      // times sum to the root spans by construction once the spans nest;
      // the check is that they do.
      tally.Check(spans.Nested(), "driver-thread spans do not nest");
      const std::string path =
          opt.out_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
      if (!spans.WriteChromeJson(path)) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", spans.spans().size(), path.c_str());
      std::printf("%-28s %8s %12s %12s\n", "span (driver thread)", "count", "total_s",
                  "self_s");
      for (const auto& [name, t] : spans.LaneZeroLayers()) {
        std::printf("%-28s %8ld %12.6f %12.6f\n", name.c_str(), t.count, t.total_s,
                    t.self_s);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  report.Add("error_frac",
             tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 1.0,
             "frac");
  for (const std::string& error : tally.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  for (const Report::Metric& m : report.metrics()) {
    std::printf("%-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintJsonLine(tally, report);
  return 0;
}
