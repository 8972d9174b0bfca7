// Journaled campaign state: crash-safe progress for long campaigns.
//
// The journal is an append-only text file.  Line 1 is a header carrying the
// spec fingerprint (campaign/spec.h); every subsequent line records one
// accepted trial: cell coordinates, trial index, success flag, the quality
// metric as a C99 %a hex float (exact binary64 round-trip — resuming must
// reproduce the uninterrupted run's CSV byte for byte), and the exact
// uint64 flop/fault counters.
//
// The runner appends each accepted trial under one lock with a flush per
// append, so a SIGKILL can lose at most the trials in flight and can tear
// at most the final line.  Load() therefore accepts a truncated tail: the first
// malformed line and everything after it are dropped (they can only be the
// torn end of the final write), and so is a final record line that lacks
// its '\n' — the writer ends every record with one, so a line cut short
// can still parse (a 7-field legacy line, a truncated counter) but is
// torn.  Trials past a cell's deterministic stopping point are never
// journaled, so replaying a journal rebuilds exactly the accepted-outcome
// prefix of every cell.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace robustify::campaign {

struct TrialRecord {
  int series = 0;  // index into the scenario's series list
  int rate = 0;    // index into the spec's fault-rate axis
  int trial = 0;   // trial index within the cell (seed = base_seed + trial)
  bool success = false;
  double metric = 0.0;
  std::uint64_t faulty_flops = 0;
  std::uint64_t faults_injected = 0;
  // core::TrialVerdict as an int.  Journals written before the guarded
  // executor carry seven fields per line; Load() derives the verdict from
  // the success flag for those, so old journals resume cleanly.
  int verdict = 0;
};

// The one rule a record must meet to be journaled: non-negative coordinates,
// a verdict in 0..3, and success exactly when the verdict is success.  The
// journal parser stops at a line that breaks it, and the result store
// refuses to write such a record.
bool ValidRecord(const TrialRecord& record);

// Buckets records per (series, rate) cell, in std::map key order, and cuts
// each bucket to its contiguous trial-index prefix from 0 — the only shape
// a valid journal can produce.  The sort is stable and the first of equal
// trial indices is kept, so a repeated line neither truncates the cell nor
// overrides the record written first; a gap ends the prefix, and records
// with a negative coordinate are dropped.  Resume, ReduceRecords and the
// result store all read records through this one rule.
std::map<std::pair<int, int>, std::vector<TrialRecord>> NormalizeRecords(
    const std::vector<TrialRecord>& records);

class CampaignJournal {
 public:
  struct Loaded {
    bool exists = false;            // a readable journal with a valid header
    std::uint64_t fingerprint = 0;  // from the header, when exists
    std::vector<TrialRecord> records;
    // Every line parsed and the file ends in '\n': appending to it cannot
    // concatenate onto a torn line (OpenForAppend's precondition).
    bool clean_tail = false;
  };

  // Reads `path`, tolerating a torn trailing line.  exists == false when
  // the file is absent or its header is unreadable.
  static Loaded Load(const std::string& path);

  explicit CampaignJournal(std::string path) : path_(std::move(path)) {}

  // Truncates and writes a fresh header (a new campaign run).
  void Start(std::uint64_t fingerprint);

  // Resume path: atomically replaces the journal with a fresh header plus
  // the already-loaded records (write to <path>.tmp, then rename), then
  // opens it for appending.  This heals a torn trailing line — appending
  // directly after one would concatenate the next record onto it and lose
  // both — without ever leaving a window where the journal is truncated
  // but not yet rewritten.
  void RewriteAndOpen(std::uint64_t fingerprint,
                      const std::vector<TrialRecord>& records);

  // Opens the existing journal for appending, writing nothing.  Only for a
  // journal whose Load() reported a clean tail.
  void OpenForAppend();

  // Appends `count` records as one locked write + flush.  Safe to call from
  // multiple workers.  Throws std::runtime_error when the write fails.
  void Append(const TrialRecord* records, std::size_t count);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::mutex mu_;
  std::ofstream os_;
};

}  // namespace robustify::campaign
