#include "campaign/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace robustify::campaign {

namespace {

constexpr char kHeaderTag[] = "robustify-campaign v1 fingerprint ";

// One record per line.  %a prints the metric's exact bits ("0x1.8p+1",
// "inf", "nan"); strtod parses all of them back exactly.  The trailing
// verdict field postdates the guarded executor; ParseRecord accepts lines
// without it.
std::string FormatRecord(const TrialRecord& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "t %d %d %d %d %a %" PRIu64 " %" PRIu64 " %d\n", r.series,
                r.rate, r.trial, r.success ? 1 : 0, r.metric, r.faulty_flops,
                r.faults_injected, r.verdict);
  return buf;
}

// Strict field-by-field parse; any deviation (including trailing garbage)
// rejects the line, which Load() treats as the torn end of the file.
bool ParseRecord(const std::string& line, TrialRecord* out) {
  const char* p = line.c_str();
  if (*p != 't' || p[1] != ' ') return false;
  p += 2;
  char* end = nullptr;
  const auto parse_long = [&](long* value) {
    *value = std::strtol(p, &end, 10);
    if (end == p) return false;
    p = end;
    return true;
  };
  long series = 0, rate = 0, trial = 0, success = 0;
  if (!parse_long(&series) || !parse_long(&rate) || !parse_long(&trial) ||
      !parse_long(&success)) {
    return false;
  }
  if (success != 0 && success != 1) return false;
  const double metric = std::strtod(p, &end);
  if (end == p) return false;
  p = end;
  const auto parse_u64 = [&](std::uint64_t* value) {
    if (*p != ' ') return false;
    *value = std::strtoull(p, &end, 10);
    if (end == p) return false;
    p = end;
    return true;
  };
  std::uint64_t flops = 0, faults = 0;
  if (!parse_u64(&flops) || !parse_u64(&faults)) return false;
  // Optional trailing verdict (journals predating the guarded executor lack
  // it; derive the two-way verdict from the success flag for those).
  long verdict = success == 1 ? 0 : 1;
  if (*p == ' ' && !parse_long(&verdict)) return false;
  if (*p != '\0') return false;
  TrialRecord r;
  r.series = static_cast<int>(series);
  r.rate = static_cast<int>(rate);
  r.trial = static_cast<int>(trial);
  r.success = success == 1;
  r.metric = metric;
  r.faulty_flops = flops;
  r.faults_injected = faults;
  r.verdict = static_cast<int>(verdict);
  if (r.verdict != verdict || !ValidRecord(r)) return false;
  *out = r;
  return true;
}

}  // namespace

bool ValidRecord(const TrialRecord& record) {
  return record.series >= 0 && record.rate >= 0 && record.trial >= 0 &&
         record.verdict >= 0 && record.verdict <= 3 &&
         (record.verdict == 0) == record.success;
}

std::map<std::pair<int, int>, std::vector<TrialRecord>> NormalizeRecords(
    const std::vector<TrialRecord>& records) {
  std::map<std::pair<int, int>, std::vector<TrialRecord>> cells;
  for (const TrialRecord& r : records) {
    if (r.series < 0 || r.rate < 0 || r.trial < 0) continue;
    cells[{r.series, r.rate}].push_back(r);
  }
  for (auto& [key, bucket] : cells) {
    std::stable_sort(bucket.begin(), bucket.end(),
                     [](const TrialRecord& a, const TrialRecord& b) {
                       return a.trial < b.trial;
                     });
    std::size_t keep = 0;
    for (const TrialRecord& r : bucket) {
      if (r.trial == static_cast<int>(keep)) {
        bucket[keep++] = r;
      } else if (r.trial > static_cast<int>(keep)) {
        break;  // a gap ends the prefix
      }         // else a duplicate of a kept trial index
    }
    bucket.resize(keep);
  }
  return cells;
}

CampaignJournal::Loaded CampaignJournal::Load(const std::string& path) {
  Loaded loaded;
  std::ifstream is(path);
  if (!is) return loaded;
  std::string line;
  if (!std::getline(is, line)) return loaded;
  if (line.rfind(kHeaderTag, 0) != 0) return loaded;
  char* end = nullptr;
  const char* hex = line.c_str() + sizeof(kHeaderTag) - 1;
  loaded.fingerprint = std::strtoull(hex, &end, 16);
  if (end == hex || *end != '\0') return loaded;
  loaded.exists = true;
  loaded.clean_tail = !is.eof();
  while (loaded.clean_tail && std::getline(is, line)) {
    TrialRecord record;
    // getline hits EOF only on a line without its '\n': torn, even if it
    // parses.  A malformed line is torn too; either drops the rest.
    loaded.clean_tail = !is.eof() && ParseRecord(line, &record);
    if (loaded.clean_tail) loaded.records.push_back(record);
  }
  return loaded;
}

namespace {

std::string FormatHeader(std::uint64_t fingerprint) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s%016" PRIx64 "\n", kHeaderTag, fingerprint);
  return buf;
}

}  // namespace

void CampaignJournal::Start(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  os_.open(path_, std::ios::out | std::ios::trunc);
  if (!os_) throw std::runtime_error("cannot open journal " + path_ + " for writing");
  os_ << FormatHeader(fingerprint);
  os_.flush();
  if (!os_) throw std::runtime_error("failed writing journal header to " + path_);
}

void CampaignJournal::RewriteAndOpen(std::uint64_t fingerprint,
                                     const std::vector<TrialRecord>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp + " for writing");
    out << FormatHeader(fingerprint);
    for (const TrialRecord& r : records) out << FormatRecord(r);
    out.flush();
    if (!out) throw std::runtime_error("failed writing " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " over " + path_);
  }
  os_.open(path_, std::ios::out | std::ios::app);
  if (!os_) throw std::runtime_error("cannot open journal " + path_ + " for append");
}

void CampaignJournal::OpenForAppend() {
  std::lock_guard<std::mutex> lock(mu_);
  os_.open(path_, std::ios::out | std::ios::app);
  if (!os_) throw std::runtime_error("cannot open journal " + path_ + " for append");
}

void CampaignJournal::Append(const TrialRecord* records, std::size_t count) {
  if (count == 0) return;
  telemetry::SpanScope flush_span("checkpoint.flush");
  telemetry::Count(telemetry::Counter::kCheckpointFlushes);
  telemetry::Count(telemetry::Counter::kCheckpointRecords, count);
  std::string block;
  for (std::size_t i = 0; i < count; ++i) block += FormatRecord(records[i]);
  std::lock_guard<std::mutex> lock(mu_);
  if (!os_.is_open()) throw std::runtime_error("journal " + path_ + " is not open");
  os_ << block;
  os_.flush();
  if (!os_) throw std::runtime_error("failed appending to journal " + path_);
}

}  // namespace robustify::campaign
