// Store and service layer driver: a result store seeded from a fig6_6
// campaign, reset to the same bytes before every pass, and a seeded
// NDJSON query sequence answered through QueryService::Handle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "bench.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

campaign::CampaignSpec SeedSpec(std::uint64_t seed, const StoreConfig& config) {
  campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_6");
  spec.base_seed = seed;
  spec.fixed_trials = config.stored_trials;
  // The service's stopping rule caps a fresh query at this many trials, so
  // a query with an unreachable ci runs exactly `fresh_trials` of them.
  spec.max_trials = config.stored_trials + config.fresh_trials;
  return spec;
}

std::string QueryLine(const std::string& app, const std::string& series, double rate,
                      double ci, bool fresh) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\",\"rate\":%.17g,\"ci\":%.17g,\"fresh\":%s}", rate,
                ci, fresh ? "true" : "false");
  return "{\"app\":\"" + app + "\",\"series\":\"" + series + buf;
}

bool SameAnswer(const service::Answer& a, const service::Answer& b) {
  return a.ok == b.ok && a.source == b.source && a.trials == b.trials &&
         a.successes == b.successes && a.fresh_trials == b.fresh_trials &&
         DoubleBits(a.success_rate) == DoubleBits(b.success_rate) &&
         DoubleBits(a.half_width) == DoubleBits(b.half_width);
}

// Reads every file under `root` (relative path -> bytes).
std::map<std::string, std::string> Snapshot(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream is(entry.path(), std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    files[fs::relative(entry.path(), root).string()] = os.str();
  }
  return files;
}

double MedianMs(std::vector<double> seconds) {
  return Median(std::move(seconds)) * 1e3;
}

}  // namespace

StoreBench::StoreBench(std::uint64_t seed, const StoreConfig& config, int threads,
                       const std::string& work_dir)
    : config_(config),
      work_dir_(work_dir),
      root_(work_dir + "/store"),
      campaign_(SeedSpec(seed, config), work_dir),
      store_(root_),
      service_(&store_) {
  fs::create_directories(work_dir);
  fs::remove_all(root_);
  campaign_.Run(threads, nullptr);
  store_.IngestJournal(campaign_.spec(), campaign_.journal());
  snapshot_ = Snapshot(root_);
  service_.RegisterSpec(campaign_.spec(), campaign_.scenario());
  PlanQueries(seed);
}

void StoreBench::PlanQueries(std::uint64_t seed) {
  const campaign::CampaignSpec& spec = campaign_.spec();
  const campaign::Scenario& scenario = campaign_.scenario();
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);

  // Surrogate queries go only to series whose stored cells support a fit;
  // the answer is a pure function of the store, so probing once is exact.
  std::vector<double> nonzero;
  for (double r : spec.fault_rates) {
    if (r > 0.0) nonzero.push_back(r);
  }
  std::vector<int> surrogate_series;
  for (std::size_t s = 0; s < scenario.series.size() && nonzero.size() >= 2; ++s) {
    service::Query probe;
    probe.app = spec.app;
    probe.series = scenario.series[s].name;
    probe.rate = std::sqrt(nonzero[0] * nonzero[1]);
    probe.allow_fresh = false;
    if (service_.Handle(probe).ok) surrogate_series.push_back(static_cast<int>(s));
  }

  std::vector<std::pair<int, int>> cells;
  for (std::size_t s = 0; s < scenario.series.size(); ++s) {
    for (std::size_t r = 0; r < spec.fault_rates.size(); ++r) {
      cells.emplace_back(static_cast<int>(s), static_cast<int>(r));
    }
  }
  std::shuffle(cells.begin(), cells.end(), rng);
  const auto on_grid = [&](int s, int r, QueryKind kind) {
    PlannedQuery q;
    q.kind = kind;
    q.series = s;
    q.rate = r;
    q.rate_value = spec.fault_rates[static_cast<std::size_t>(r)];
    // A fresh query asks for a ci no stored tally can meet, so the service
    // runs fresh trials up to the spec's cap and writes them back.  A cache
    // query asks for the spec's own ci (ci 0), which every stored cell meets
    // once the fresh queries have extended it.
    q.line = QueryLine(spec.app, scenario.series[static_cast<std::size_t>(s)].name,
                       q.rate_value, kind == QueryKind::kFresh ? 1e-3 : 0.0,
                       kind == QueryKind::kFresh);
    return q;
  };

  // No recorded query stream exists to take the shares of the three kinds
  // from, so a pass sends one query of each kind per cell: the fresh ones
  // first, then the cache and surrogate ones shuffled.
  queries_.clear();
  std::vector<PlannedQuery> mix;
  for (const auto& [s, r] : cells) {
    queries_.push_back(on_grid(s, r, QueryKind::kFresh));
    mix.push_back(on_grid(s, r, QueryKind::kCache));
  }
  std::uniform_real_distribution<double> log_rate(std::log10(nonzero.front()),
                                                  std::log10(nonzero.back()));
  for (std::size_t i = 0; i < cells.size() && !surrogate_series.empty(); ++i) {
    PlannedQuery q;
    q.kind = QueryKind::kSurrogate;
    q.series = surrogate_series[i % surrogate_series.size()];
    q.rate_value = std::pow(10.0, log_rate(rng));
    q.line = QueryLine(spec.app, scenario.series[static_cast<std::size_t>(q.series)].name,
                       q.rate_value, 0.0, false);
    mix.push_back(q);
  }
  std::shuffle(mix.begin(), mix.end(), rng);
  queries_.insert(queries_.end(), mix.begin(), mix.end());
}

void StoreBench::Reset() const {
  fs::remove_all(root_);
  for (const auto& [relative, bytes] : snapshot_) {
    const fs::path path = fs::path(root_) / relative;
    fs::create_directories(path.parent_path());
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
  }
}

QueryPass StoreBench::Run(SpanRecorder* spans) {
  QueryPass pass;
  pass.latency_ms.reserve(queries_.size());
  pass.answers.reserve(queries_.size());
  const std::shared_ptr<TrialLog> log = campaign_.log();
  log->set_recorder(spans);
  const std::int64_t begin = NowNs();
  for (const PlannedQuery& planned : queries_) {
    const std::int64_t start = NowNs();
    service::Answer answer;
    {
      ScopedSpan span(spans, "service.query");
      service::Query query;
      std::string error;
      if (service::QueryService::ParseQueryJson(planned.line, &query, &error)) {
        answer = service_.Handle(query);
      } else {
        answer.error = "bad query: " + error;
      }
      // The reply line a serve loop would write is part of the query's cost.
      static_cast<void>(service::QueryService::AnswerJson(answer));
    }
    pass.latency_ms.push_back((NowNs() - start) * 1e-6);
    pass.fresh_trials += answer.fresh_trials;
    pass.answers.push_back(std::move(answer));
  }
  pass.wall_s = (NowNs() - begin) * 1e-9;
  pass.trials = log->Take();
  log->set_recorder(nullptr);
  return pass;
}

void StoreBench::CheckPass(const QueryPass& pass, const QueryPass* reference,
                           Tally* tally) const {
  tally->Ops(static_cast<long>(queries_.size()));
  if (pass.answers.size() != queries_.size()) {
    tally->Fail(static_cast<long>(queries_.size()), "query pass lost answers");
    return;
  }
  std::map<std::pair<int, int>, std::pair<int, int>> tallies;  // cell -> (trials, successes)
  for (const campaign::TrialRecord& r : store_.Load(campaign_.spec()).records) {
    std::pair<int, int>& t = tallies[{r.series, r.rate}];
    ++t.first;
    if (r.success) ++t.second;
  }
  std::map<std::pair<int, std::uint64_t>, std::pair<std::uint64_t, std::uint64_t>> intervals;
  long failed = 0;
  std::string first_problem;
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    const PlannedQuery& q = queries_[i];
    const service::Answer& a = pass.answers[i];
    std::string problem;
    const char* expected_source = q.kind == QueryKind::kFresh   ? "fresh-trials"
                                  : q.kind == QueryKind::kCache ? "cache"
                                                                : "surrogate";
    const int expected_fresh = q.kind == QueryKind::kFresh ? config_.fresh_trials : 0;
    if (!a.ok) {
      problem = "not ok: " + a.error;
    } else if (a.source != expected_source || a.fresh_trials != expected_fresh) {
      problem = "answered from " + a.source + " with " + std::to_string(a.fresh_trials) +
                " fresh trials";
    } else if (q.rate >= 0 &&
               std::make_pair(a.trials, a.successes) != tallies[{q.series, q.rate}]) {
      problem = "tally differs from the store after the pass";
    } else if (reference != nullptr && !SameAnswer(a, reference->answers[i])) {
      problem = "answer differs from the first pass";
    } else {
      const auto key = std::make_pair(q.series, DoubleBits(q.rate_value));
      const auto interval = std::make_pair(DoubleBits(a.success_rate), DoubleBits(a.half_width));
      const auto [it, inserted] = intervals.emplace(key, interval);
      if (!inserted && it->second != interval) problem = "repeat changed the interval";
    }
    if (!problem.empty()) {
      ++failed;
      if (first_problem.empty()) {
        first_problem = "query " + std::to_string(i) + " " + q.line + ": " + problem;
      }
    }
  }
  if (failed > 0) tally->Fail(failed, first_problem);
}

void StoreBench::ReportLayers(const std::vector<QueryPass>& traced, SpanRecorder* spans,
                              Report* report) const {
  const campaign::CampaignSpec& spec = campaign_.spec();
  Reset();
  constexpr int kRepeats = 15;
  std::vector<double> load_s, ingest_s;
  std::size_t records = 0;
  for (int i = 0; i < kRepeats; ++i) {
    const std::int64_t begin = NowNs();
    {
      ScopedSpan span(spans, "store.load");
      records = store_.Load(spec).records.size();
    }
    load_s.push_back((NowNs() - begin) * 1e-9);
  }
  const std::string scratch_root = work_dir_ + "/ingest";
  for (int i = 0; i < kRepeats; ++i) {
    fs::remove_all(scratch_root);
    store::ResultStore scratch(scratch_root);
    const std::int64_t begin = NowNs();
    {
      ScopedSpan span(spans, "store.ingest");
      scratch.IngestJournal(spec, campaign_.journal());
    }
    ingest_s.push_back((NowNs() - begin) * 1e-9);
  }
  fs::remove_all(scratch_root);
  report->Add("store.load_ms", MedianMs(load_s), "ms");
  report->Add("store.ingest_ms", MedianMs(ingest_s), "ms");
  report->Add("store.journal_bytes",
              static_cast<double>(fs::file_size(store_.CampaignDir(spec) + "/cells.journal")),
              "bytes");
  report->Add("store.records", static_cast<double>(records), "count");

  // service.*: counts per pass (identical across passes), latencies pooled.
  std::map<std::string, std::vector<double>> latency;  // source -> ms
  std::map<std::string, long> count;
  std::vector<double> non_trial;
  for (std::size_t p = 0; p < traced.size(); ++p) {
    const QueryPass& pass = traced[p];
    double query_s = 0.0, trial_s = 0.0;
    for (std::size_t i = 0; i < pass.answers.size(); ++i) {
      const std::string& source = pass.answers[i].source;
      latency[source].push_back(pass.latency_ms[i]);
      if (p == 0) ++count[source];
      query_s += pass.latency_ms[i] * 1e-3;
    }
    for (const TrialSample& t : pass.trials) trial_s += t.seconds();
    non_trial.push_back(query_s > 0.0 ? (query_s - trial_s) / query_s : 0.0);
  }
  const struct {
    const char* metric;
    const char* source;
  } sources[] = {{"cache", "cache"}, {"fresh", "fresh-trials"}, {"surrogate", "surrogate"}};
  for (const auto& s : sources) {
    report->Add(std::string("service.") + s.metric + ".count",
                static_cast<double>(count[s.source]), "count");
    report->Add(std::string("service.") + s.metric + ".p50_ms", Median(latency[s.source]),
                "ms");
  }
  report->Add("service.fresh_trials",
              traced.empty() ? 0.0 : static_cast<double>(traced.front().fresh_trials),
              "count");
  report->Add("service.non_trial_frac", Median(non_trial), "frac");
}

}  // namespace perfbench
