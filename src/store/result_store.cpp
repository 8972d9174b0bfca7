#include "store/result_store.h"

#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "campaign/adaptive.h"
#include "telemetry/telemetry.h"

namespace robustify::store {

namespace {

namespace fs = std::filesystem;

using campaign::CampaignJournal;
using campaign::CampaignSpec;
using campaign::TrialRecord;

using CellKey = std::pair<int, int>;  // (series, rate)

std::string FingerprintHex(std::uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fingerprint);
  return std::string(buf);
}

// Buckets records per cell and normalizes each bucket to the contiguous
// trial-index prefix from 0 — the only shape a valid journal can produce,
// and the shape the prefix-wins merge below relies on.  The sort is stable
// and the first of equal trial indices is kept, so a repeated line neither
// truncates the cell nor overrides the record written first.  std::map keys
// give deterministic (series, rate) iteration order for the rewrite.
std::map<CellKey, std::vector<TrialRecord>> Normalize(
    const std::vector<TrialRecord>& records) {
  std::map<CellKey, std::vector<TrialRecord>> cells;
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

// Records at the start of `records` in strictly increasing (series, rate,
// trial) order: the journal's sorted head, before any appended delta.
long SortedHeadLength(const std::vector<TrialRecord>& records) {
  const auto order = [](const TrialRecord& r) {
    return std::make_tuple(r.series, r.rate, r.trial);
  };
  std::size_t n = records.empty() ? 0 : 1;
  while (n < records.size() && order(records[n - 1]) < order(records[n])) ++n;
  return static_cast<long>(n);
}

std::string JournalPath(const std::string& dir) { return dir + "/cells.journal"; }

std::string CampaignDirOf(const std::string& root, std::uint64_t fingerprint) {
  return root + "/" + FingerprintHex(fingerprint);
}

std::runtime_error CorruptStore(const std::string& path, std::uint64_t found,
                                std::uint64_t expected) {
  return std::runtime_error("result store corrupt: " + path +
                            " carries fingerprint " + FingerprintHex(found) +
                            " but is filed under " + FingerprintHex(expected));
}

}  // namespace

bool ResultStore::JournalKey::operator==(const JournalKey& o) const {
  return dev == o.dev && ino == o.ino && size == o.size &&
         mtime_s == o.mtime_s && mtime_ns == o.mtime_ns;
}

bool ResultStore::StatJournal(const std::string& path, JournalKey* key) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  key->dev = static_cast<std::uint64_t>(st.st_dev);
  key->ino = static_cast<std::uint64_t>(st.st_ino);
  key->size = static_cast<std::uint64_t>(st.st_size);
  key->mtime_s = static_cast<std::int64_t>(st.st_mtim.tv_sec);
  key->mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_nsec);
  return true;
}

std::string ResultStore::CampaignDir(const CampaignSpec& spec) const {
  return CampaignDirOf(root_, campaign::SpecFingerprint(spec));
}

const ResultStore::Entry* ResultStore::Resident(std::uint64_t fingerprint) const {
  const std::string path = JournalPath(CampaignDirOf(root_, fingerprint));
  JournalKey key;
  if (!StatJournal(path, &key)) {
    index_.erase(fingerprint);
    return nullptr;
  }
  const auto it = index_.find(fingerprint);
  if (it != index_.end() && it->second.key == key) return &it->second;
  index_.erase(fingerprint);

  // The key is taken before the parse: a write racing the parse leaves the
  // key older than the content, so the next call re-parses.
  const CampaignJournal::Loaded loaded = CampaignJournal::Load(path);
  telemetry::Count(telemetry::Counter::kStoreJournalParses);
  if (!loaded.exists) return nullptr;
  if (loaded.fingerprint != fingerprint) {
    throw CorruptStore(path, loaded.fingerprint, fingerprint);
  }
  Entry entry;
  entry.key = key;
  entry.clean_tail = loaded.clean_tail;
  entry.head = SortedHeadLength(loaded.records);
  entry.appended = static_cast<long>(loaded.records.size()) - entry.head;
  for (auto& [cell_key, bucket] : Normalize(loaded.records)) {
    StoredCell& cell = entry.cells[cell_key];
    cell.successes = static_cast<int>(
        std::count_if(bucket.begin(), bucket.end(),
                      [](const TrialRecord& r) { return r.success; }));
    cell.records = std::move(bucket);
  }
  return &index_.emplace(fingerprint, std::move(entry)).first->second;
}

StoredCells ResultStore::Load(const CampaignSpec& spec) const {
  const std::uint64_t fingerprint = campaign::SpecFingerprint(spec);
  StoredCells stored;
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = Resident(fingerprint);
  if (entry == nullptr) return stored;
  stored.exists = true;
  stored.records.reserve(static_cast<std::size_t>(entry->head + entry->appended));
  for (const auto& [key, cell] : entry->cells) {
    stored.records.insert(stored.records.end(), cell.records.begin(),
                          cell.records.end());
  }
  return stored;
}

StoredCell ResultStore::LoadCell(const CampaignSpec& spec, int series,
                                 int rate) const {
  const std::uint64_t fingerprint = campaign::SpecFingerprint(spec);
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = Resident(fingerprint);
  if (entry == nullptr) return {};
  const auto it = entry->cells.find({series, rate});
  return it == entry->cells.end() ? StoredCell{} : it->second;
}

std::vector<CellTally> ResultStore::SeriesTallies(const CampaignSpec& spec,
                                                  int series) const {
  const std::uint64_t fingerprint = campaign::SpecFingerprint(spec);
  std::vector<CellTally> tallies(spec.fault_rates.size());
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = Resident(fingerprint);
  if (entry == nullptr) return tallies;
  for (auto it = entry->cells.lower_bound({series, 0});
       it != entry->cells.end() && it->first.first == series; ++it) {
    const auto rate = static_cast<std::size_t>(it->first.second);
    if (rate >= tallies.size()) break;
    tallies[rate].trials = static_cast<int>(it->second.records.size());
    tallies[rate].successes = it->second.successes;
  }
  return tallies;
}

ResultStore::IngestStats ResultStore::IngestRecords(
    const CampaignSpec& spec, const std::vector<TrialRecord>& records) {
  return Ingest(spec, records, /*compact=*/false);
}

ResultStore::IngestStats ResultStore::Ingest(
    const CampaignSpec& spec, const std::vector<TrialRecord>& records,
    bool compact) {
  const std::uint64_t fingerprint = campaign::SpecFingerprint(spec);
  const std::string dir = CampaignDirOf(root_, fingerprint);
  const std::string path = JournalPath(dir);
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* stored = Resident(fingerprint);

  // Per cell, the incoming records past the stored prefix.  Content
  // addressing makes the shared prefix identical, so "longer prefix wins"
  // is "append the tail".
  IngestStats stats;
  std::vector<TrialRecord> delta;
  for (const auto& [key, bucket] : Normalize(records)) {
    std::size_t have = 0;
    if (stored != nullptr) {
      const auto it = stored->cells.find(key);
      if (it != stored->cells.end()) have = it->second.records.size();
    }
    if (bucket.size() <= have) continue;
    ++stats.cells_updated;
    stats.records_added += static_cast<long>(bucket.size() - have);
    delta.insert(delta.end(), bucket.begin() + static_cast<long>(have),
                 bucket.end());
  }
  if (stats.cells_updated == 0) return stats;  // idempotent re-ingest: no I/O

  compact = compact || stored == nullptr || !stored->clean_tail ||
            stored->appended + static_cast<long>(delta.size()) > stored->head;
  Entry& entry = index_[fingerprint];
  try {
    for (const TrialRecord& r : delta) {
      StoredCell& cell = entry.cells[{r.series, r.rate}];
      cell.records.push_back(r);
      if (r.success) ++cell.successes;
    }
    if (compact) {
      fs::create_directories(dir);
      {
        std::ofstream spec_out(dir + "/spec.txt", std::ios::trunc);
        spec_out << campaign::CanonicalSpecText(spec);
      }
      // Rewrite the whole journal on a tmp path, then rename into place:
      // readers never observe a partially merged store.
      const std::string tmp = path + ".tmp";
      long total = 0;
      {
        CampaignJournal journal(tmp);
        journal.Start(fingerprint);
        for (const auto& [key, cell] : entry.cells) {
          journal.Append(cell.records.data(), cell.records.size());
          total += static_cast<long>(cell.records.size());
        }
      }
      fs::rename(tmp, path);
      entry.clean_tail = true;
      entry.head = total;
      entry.appended = 0;
      telemetry::Count(telemetry::Counter::kStoreCompactions);
    } else {
      CampaignJournal journal(path);
      journal.OpenForAppend();
      journal.Append(delta.data(), delta.size());
      entry.appended += static_cast<long>(delta.size());
      telemetry::Count(telemetry::Counter::kStoreDeltaAppends);
    }
    if (!StatJournal(path, &entry.key)) {
      throw std::runtime_error("result store journal vanished: " + path);
    }
  } catch (...) {
    index_.erase(fingerprint);
    throw;
  }

  telemetry::Count(telemetry::Counter::kStoreIngestedCells,
                   static_cast<std::uint64_t>(stats.cells_updated));
  return stats;
}

std::vector<ResultStore::ManifestEntry> ResultStore::Manifest() const {
  std::vector<ManifestEntry> manifest;
  std::error_code ec;
  std::lock_guard<std::mutex> lock(mu_);
  for (const fs::directory_entry& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() != 16 ||
        name.find_first_not_of("0123456789abcdef") != std::string::npos) {
      continue;  // not a fingerprint directory
    }
    const Entry* stored = nullptr;
    try {
      stored = Resident(std::stoull(name, nullptr, 16));
    } catch (const std::runtime_error&) {
      continue;  // a journal filed under the wrong fingerprint
    }
    if (stored == nullptr) continue;

    ManifestEntry campaign;
    campaign.fingerprint = name;
    // spec.txt's "app = ..." line names the scenario; best-effort only.
    std::ifstream spec_in(entry.path().string() + "/spec.txt");
    std::string line;
    while (std::getline(spec_in, line)) {
      if (line.rfind("app = ", 0) == 0) {
        campaign.app = line.substr(6);
        break;
      }
    }
    for (const auto& [key, stored_cell] : stored->cells) {
      if (stored_cell.records.empty()) continue;
      ManifestCell cell;
      cell.series = key.first;
      cell.rate = key.second;
      cell.trials = static_cast<int>(stored_cell.records.size());
      cell.successes = stored_cell.successes;
      cell.half_width = campaign::WilsonHalfWidth(cell.successes, cell.trials);
      campaign.cells.push_back(cell);
    }
    if (!campaign.cells.empty()) manifest.push_back(std::move(campaign));
  }
  std::sort(manifest.begin(), manifest.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.fingerprint < b.fingerprint;
            });
  return manifest;
}

ResultStore::IngestStats ResultStore::IngestJournal(const CampaignSpec& spec,
                                                    const std::string& path) {
  CampaignJournal::Loaded loaded = CampaignJournal::Load(path);
  if (!loaded.exists) {
    throw std::runtime_error("cannot ingest: no readable journal at " + path);
  }
  const std::uint64_t fingerprint = campaign::SpecFingerprint(spec);
  if (loaded.fingerprint != fingerprint) {
    throw std::runtime_error(
        "cannot ingest " + path + ": journal fingerprint " +
        FingerprintHex(loaded.fingerprint) + " does not match spec " +
        FingerprintHex(fingerprint) +
        " (different campaign — merging would mix incompatible tallies)");
  }
  return Ingest(spec, loaded.records, /*compact=*/true);
}

}  // namespace robustify::store
