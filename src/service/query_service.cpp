#include "service/query_service.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/adaptive.h"
#include "campaign/runner.h"
#include "harness/timer.h"
#include "service/surrogate.h"
#include "telemetry/metrics_export.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace robustify::service {

namespace {

using campaign::CampaignSpec;
using campaign::Scenario;
using campaign::TrialRecord;
using telemetry::JsonEscape;

bool SameRate(double a, double b) {
  if (a == b) return true;
  return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}

Answer Fail(std::string error) {
  Answer answer;
  answer.error = std::move(error);
  return answer;
}

// ---- minimal flat-object JSON ----------------------------------------------
//
// The serve protocol is one flat object per line with string / number /
// boolean values — small enough that a hand-rolled scanner beats growing a
// dependency.  Strings support the \" \\ / \n \t escapes; anything fancier
// is rejected with a parse error rather than mis-read.

void SkipWs(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r')) ++i;
}

bool ParseJsonString(const std::string& s, std::size_t& i, std::string* out,
                     std::string* error) {
  if (i >= s.size() || s[i] != '"') {
    *error = "expected string";
    return false;
  }
  ++i;
  out->clear();
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\') {
      if (i >= s.size()) break;
      const char esc = s[i++];
      switch (esc) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        default:
          *error = std::string("unsupported escape \\") + esc;
          return false;
      }
    }
    out->push_back(c);
  }
  if (i >= s.size()) {
    *error = "unterminated string";
    return false;
  }
  ++i;  // closing quote
  return true;
}

}  // namespace

void QueryService::RegisterSpec(const CampaignSpec& spec, Scenario scenario) {
  apps_.insert_or_assign(spec.app, AppEntry{spec, std::move(scenario)});
}

const QueryService::AppEntry* QueryService::ResolveApp(const std::string& app,
                                                       std::string* error) {
  const auto it = apps_.find(app);
  if (it != apps_.end()) return &it->second;
  const CampaignSpec* registry = campaign::FindRegistrySpec(app);
  if (registry == nullptr) {
    *error = "unknown app '" + app + "' (not registered, not in the registry)";
    return nullptr;
  }
  try {
    Scenario scenario = campaign::BuildScenario(*registry);
    const auto [inserted, ok] =
        apps_.emplace(app, AppEntry{*registry, std::move(scenario)});
    (void)ok;
    return &inserted->second;
  } catch (const std::exception& e) {
    *error = e.what();
    return nullptr;
  }
}

Answer QueryService::AnswerCell(const CampaignSpec& spec,
                                const Scenario& scenario, int series_index,
                                int rate_index, double ci, bool allow_fresh) {
  const store::StoredCell cell = store_->LoadCell(spec, series_index, rate_index);
  const int full_trials = static_cast<int>(cell.records.size());
  const double full_hw = campaign::WilsonHalfWidth(cell.successes, full_trials);

  Answer answer;
  answer.trials = full_trials;
  answer.successes = cell.successes;
  answer.half_width = full_hw;
  answer.success_rate =
      full_trials > 0 ? static_cast<double>(cell.successes) / full_trials : 0.0;

  // Cache hit: the full stored tally already meets the requested precision.
  // Serving the full tally (never a replayed prefix) is what makes a
  // repeated query return the identical interval.
  if (full_trials >= spec.min_trials && full_hw <= ci) {
    telemetry::Count(telemetry::Counter::kStoreHits);
    answer.ok = true;
    answer.source = "cache";
    answer.settled = true;
    return answer;
  }

  telemetry::Count(telemetry::Counter::kStoreMisses);
  if (!allow_fresh) {
    return Fail("cell not cached at the requested precision (stored trials=" +
                std::to_string(full_trials) + ") and fresh trials disallowed");
  }

  // Fresh path: replay the stored prefix through the stopping rule at the
  // requested ci, then continue the cell's deterministic trial sequence
  // from where the store left off, on the campaign executor.
  campaign::AdaptiveConfig config;
  config.min_trials = spec.min_trials;
  config.max_trials = spec.max_trials;
  config.ci_half_width = ci;
  const std::vector<TrialRecord> fresh = campaign::ExtendCell(
      spec, scenario, series_index, rate_index, cell.records, config, threads_);

  if (fresh.empty()) {
    // The sequential rule fired inside the stored prefix (possible when the
    // full tally's half-width is wider than an early prefix's): nothing to
    // run, nothing to write back — serve the full tally as a cache answer.
    answer.ok = true;
    answer.source = "cache";
    answer.settled = full_hw <= ci;
    return answer;
  }

  telemetry::Count(telemetry::Counter::kStoreFreshTrials,
                   static_cast<std::uint64_t>(fresh.size()));
  // Write back the extended prefix.  `fresh` continues the stored records
  // (replay consumed them all before anything ran), so stored + fresh is
  // the cell's new contiguous prefix.
  std::vector<TrialRecord> prefix = cell.records;
  prefix.insert(prefix.end(), fresh.begin(), fresh.end());
  store_->IngestRecords(spec, prefix);

  int successes = cell.successes;
  for (const TrialRecord& r : fresh) {
    if (r.success) ++successes;
  }
  const int trials = static_cast<int>(prefix.size());
  const double hw = campaign::WilsonHalfWidth(successes, trials);
  answer.ok = true;
  answer.source = "fresh-trials";
  answer.trials = trials;
  answer.successes = successes;
  answer.fresh_trials = static_cast<int>(fresh.size());
  answer.success_rate = static_cast<double>(successes) / trials;
  answer.half_width = hw;
  answer.settled = hw <= ci;
  return answer;
}

Answer QueryService::AnswerSurrogate(const CampaignSpec& spec,
                                     const Scenario& scenario,
                                     int series_index, double rate) {
  (void)scenario;
  const std::vector<store::CellTally> stored =
      store_->SeriesTallies(spec, series_index);
  std::vector<CellTally> tallies;
  for (std::size_t r = 0; r < stored.size(); ++r) {
    if (stored[r].trials == 0) continue;
    CellTally tally;
    tally.rate = spec.fault_rates[r];
    tally.successes = stored[r].successes;
    tally.trials = stored[r].trials;
    tallies.push_back(tally);
  }
  const CliffSurrogate fit = FitCliffSurrogate(tallies);
  if (!fit.valid) {
    return Fail("surrogate unavailable: need >= 3 stored cells at distinct "
                "nonzero rates for this series (have " +
                std::to_string(tallies.size()) + ")");
  }
  if (!fit.InSupport(rate)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "rate %g outside surrogate support [%g, %g] — refusing to "
                  "extrapolate",
                  rate, fit.rate_min, fit.rate_max);
    return Fail(buf);
  }
  Answer answer;
  answer.ok = true;
  answer.source = "surrogate";
  answer.success_rate = fit.Predict(rate);
  answer.half_width = fit.HalfWidthAt(rate);
  return answer;
}

Answer QueryService::Handle(const Query& query) {
  telemetry::SpanScope query_span("query");
  harness::WallTimer timer;
  Answer answer = HandleQuery(query);
  if (answer.ok) {
    // Latency is a timing observation, not a function of the work — the
    // histograms exist for the stats reply, never for exact-diff gates.
    const auto us = static_cast<std::uint64_t>(timer.Seconds() * 1e6);
    if (answer.source == "cache") {
      telemetry::Observe(telemetry::Histogram::kQueryLatencyCacheUs, us);
    } else if (answer.source == "fresh-trials") {
      telemetry::Observe(telemetry::Histogram::kQueryLatencyFreshUs, us);
    } else if (answer.source == "surrogate") {
      telemetry::Observe(telemetry::Histogram::kQueryLatencySurrogateUs, us);
    }
  }
  return answer;
}

Answer QueryService::HandleQuery(const Query& query) {
  try {
    std::string error;
    const AppEntry* app = ResolveApp(query.app, &error);
    if (app == nullptr) return Fail(std::move(error));

    int series_index = -1;
    for (std::size_t s = 0; s < app->scenario.series.size(); ++s) {
      if (app->scenario.series[s].name == query.series) {
        series_index = static_cast<int>(s);
        break;
      }
    }
    if (series_index < 0) {
      std::string names;
      for (const auto& s : app->scenario.series) {
        if (!names.empty()) names += "; ";
        names += s.name;
      }
      return Fail("unknown series '" + query.series + "' for app '" +
                  query.app + "' (valid: " + names + ")");
    }
    if (!(query.rate >= 0.0 && query.rate <= 1.0)) {
      return Fail("rate must be a number in [0, 1]");
    }
    const double ci =
        query.ci > 0.0 ? query.ci : app->spec.ci_half_width;

    int rate_index = -1;
    for (std::size_t r = 0; r < app->spec.fault_rates.size(); ++r) {
      if (SameRate(app->spec.fault_rates[r], query.rate)) {
        rate_index = static_cast<int>(r);
        break;
      }
    }

    if (rate_index >= 0) {
      Answer answer = AnswerCell(app->spec, app->scenario, series_index,
                                 rate_index, ci, query.allow_fresh);
      answer.on_grid = true;
      if (!answer.ok && !query.allow_fresh && query.allow_surrogate) {
        Answer fallback = AnswerSurrogate(app->spec, app->scenario,
                                          series_index, query.rate);
        if (fallback.ok) {
          fallback.on_grid = true;
          fallback.settled = fallback.half_width <= ci;
          return fallback;
        }
      }
      return answer;
    }

    // Off-grid: surrogate first (free), else a fresh single-rate campaign
    // derived from the spec — its own fingerprint, so the cell is content-
    // addressed like any other.
    if (query.allow_surrogate) {
      Answer answer = AnswerSurrogate(app->spec, app->scenario, series_index,
                                      query.rate);
      if (answer.ok) {
        answer.settled = answer.half_width <= ci;
        return answer;
      }
      if (!query.allow_fresh) return answer;
    }
    if (!query.allow_fresh) {
      return Fail("rate " + std::to_string(query.rate) +
                  " is off-grid and both surrogate and fresh trials are "
                  "disallowed");
    }
    if (query.rate <= 0.0) {
      return Fail("off-grid fresh trials need rate > 0");
    }
    CampaignSpec derived = app->spec;
    derived.fault_rates = {query.rate};
    Answer answer = AnswerCell(derived, app->scenario, series_index,
                               /*rate_index=*/0, ci, /*allow_fresh=*/true);
    answer.on_grid = false;
    return answer;
  } catch (const std::exception& e) {
    return Fail(e.what());
  }
}

bool QueryService::ParseQueryJson(const std::string& line, Query* query,
                                  std::string* error) {
  *query = Query{};
  bool have_app = false, have_series = false, have_rate = false;
  std::set<std::string> seen;  // duplicate keys are an error, not last-wins
  std::size_t i = 0;
  SkipWs(line, i);
  if (i >= line.size() || line[i] != '{') {
    *error = "expected a JSON object";
    return false;
  }
  ++i;
  SkipWs(line, i);
  if (i < line.size() && line[i] == '}') {
    *error = "empty query";
    return false;
  }
  while (true) {
    SkipWs(line, i);
    std::string key;
    if (!ParseJsonString(line, i, &key, error)) return false;
    if (!seen.insert(key).second) {
      *error = "duplicate key '" + key + "'";
      return false;
    }
    SkipWs(line, i);
    if (i >= line.size() || line[i] != ':') {
      *error = "expected ':' after key '" + key + "'";
      return false;
    }
    ++i;
    SkipWs(line, i);
    if (key == "app" || key == "series" || key == "cmd") {
      std::string value;
      if (!ParseJsonString(line, i, &value, error)) return false;
      if (key == "app") {
        query->app = value;
        have_app = true;
      } else if (key == "series") {
        query->series = value;
        have_series = true;
      } else {
        if (value != "stats") {
          *error = "unknown cmd '" + value + "' (supported: stats)";
          return false;
        }
        query->cmd = value;
      }
    } else if (key == "rate" || key == "ci") {
      const char* begin = line.c_str() + i;
      char* end = nullptr;
      const double value = std::strtod(begin, &end);
      if (end == begin) {
        *error = "expected a number for '" + key + "'";
        return false;
      }
      i += static_cast<std::size_t>(end - begin);
      if (key == "rate") {
        query->rate = value;
        have_rate = true;
      } else {
        query->ci = value;
      }
    } else if (key == "fresh" || key == "surrogate") {
      bool value;
      if (line.compare(i, 4, "true") == 0) {
        value = true;
        i += 4;
      } else if (line.compare(i, 5, "false") == 0) {
        value = false;
        i += 5;
      } else {
        *error = "expected true/false for '" + key + "'";
        return false;
      }
      if (key == "fresh") {
        query->allow_fresh = value;
      } else {
        query->allow_surrogate = value;
      }
    } else {
      *error = "unknown key '" + key + "'";
      return false;
    }
    SkipWs(line, i);
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') break;
    *error = "expected ',' or '}'";
    return false;
  }
  if (query->cmd.empty() && (!have_app || !have_series || !have_rate)) {
    *error = "query needs \"app\", \"series\", and \"rate\"";
    return false;
  }
  return true;
}

std::string QueryService::AnswerJson(const Answer& answer) {
  if (!answer.ok) {
    return "{\"ok\":false,\"error\":\"" + JsonEscape(answer.error) + "\"}";
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\"success_rate\":%.17g,\"half_width\":%.17g,\"trials\":%d,"
                "\"successes\":%d,\"fresh_trials\":%d,\"on_grid\":%s,"
                "\"settled\":%s}",
                answer.success_rate, answer.half_width, answer.trials,
                answer.successes, answer.fresh_trials,
                answer.on_grid ? "true" : "false",
                answer.settled ? "true" : "false");
  return "{\"ok\":true,\"source\":\"" + JsonEscape(answer.source) + "\"" + buf;
}

std::string QueryService::StatsJson() const {
  telemetry::SpanScope stats_span("stats");
  const telemetry::CounterSnapshot snapshot = telemetry::SnapshotCounters();
  char buf[160];
  std::string out = "{\"ok\":true,\"cmd\":\"stats\",\"counters\":{";

  bool first = true;
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    if (snapshot.counters[c] == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                  telemetry::CounterName(static_cast<telemetry::Counter>(c)),
                  static_cast<unsigned long long>(snapshot.counters[c]));
    out += buf;
    first = false;
  }

  out += "},\"latency_us\":{";
  const struct {
    const char* key;
    telemetry::Histogram histogram;
  } sources[] = {
      {"cache", telemetry::Histogram::kQueryLatencyCacheUs},
      {"fresh_trials", telemetry::Histogram::kQueryLatencyFreshUs},
      {"surrogate", telemetry::Histogram::kQueryLatencySurrogateUs},
  };
  for (std::size_t s = 0; s < 3; ++s) {
    const std::uint64_t* buckets =
        snapshot.histograms[static_cast<int>(sources[s].histogram)];
    std::uint64_t count = 0;
    for (int b = 0; b < telemetry::kHistogramBuckets; ++b) count += buckets[b];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%llu,\"p50\":%.6g,\"p90\":%.6g,"
                  "\"p99\":%.6g}",
                  s == 0 ? "" : ",", sources[s].key,
                  static_cast<unsigned long long>(count),
                  telemetry::HistogramQuantile(buckets, 0.50),
                  telemetry::HistogramQuantile(buckets, 0.90),
                  telemetry::HistogramQuantile(buckets, 0.99));
    out += buf;
  }

  out += "},\"store\":{\"root\":\"" + JsonEscape(store_->root()) +
         "\",\"campaigns\":[";
  bool first_campaign = true;
  for (const store::ResultStore::ManifestEntry& entry : store_->Manifest()) {
    if (!first_campaign) out += ",";
    first_campaign = false;
    out += "{\"fingerprint\":\"" + entry.fingerprint + "\",\"app\":\"" +
           JsonEscape(entry.app) + "\",\"cells\":[";
    for (std::size_t c = 0; c < entry.cells.size(); ++c) {
      const store::ResultStore::ManifestCell& cell = entry.cells[c];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"series\":%d,\"rate\":%d,\"trials\":%d,"
                    "\"successes\":%d,\"half_width\":%.17g}",
                    c == 0 ? "" : ",", cell.series, cell.rate, cell.trials,
                    cell.successes, cell.half_width);
      out += buf;
    }
    out += "]}";
  }
  out += "]}}";
  return out;
}

void QueryService::Serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    std::size_t i = 0;
    SkipWs(line, i);
    if (i >= line.size()) continue;  // blank keep-alive line
    Query query;
    std::string error;
    Answer answer;
    if (ParseQueryJson(line, &query, &error)) {
      if (query.cmd == "stats") {
        out << StatsJson() << '\n' << std::flush;
        continue;
      }
      answer = Handle(query);
    } else {
      answer.error = "bad query: " + error;
    }
    out << AnswerJson(answer) << '\n' << std::flush;
  }
}

}  // namespace robustify::service
