// Content-addressed campaign result store.
//
// Layout.  The store is a directory of per-campaign sub-directories keyed by
// spec fingerprint (campaign/spec.h): `<root>/<%016x fingerprint>/` holds
// `cells.journal` — every accepted trial of the campaign, in the standard
// checkpoint journal format (campaign/checkpoint.h) — plus `spec.txt`, the
// canonical spec text the fingerprint hashes, so a store directory is
// self-describing.  A journal is a *sorted head* — records in (series, rate,
// trial) order, each cell a contiguous trial-index prefix from 0 — followed
// by zero or more *appended deltas*: the records a write-back added past
// each cell's stored prefix.  Readers normalize (stable sort per cell, first
// of equal trial indices, contiguous prefix from 0), so the head/delta split
// never shows in what Load() returns.
//
// Merge.  Content addressing is what makes merging trivial: per-cell seeding
// makes a cell's outcome sequence a pure function of the canonical spec, so
// two journals with the same fingerprint can only hold *prefixes of the same
// sequence* per cell.  Merge therefore reduces to "longest contiguous prefix
// wins" — duplicate cells from overlapping shard runs resolve
// deterministically (higher trial count wins), re-ingesting a journal is a
// no-op, and a cell extended by a tighter-CI query subsumes the original.
// Ingesting a journal whose fingerprint does not match the target spec is
// rejected outright.
//
// Resident index.  The first read of a campaign parses its journal once into
// a per-cell index kept in the ResultStore; every later call revalidates it
// with one stat() of the journal, keyed on (st_dev, st_ino, st_size,
// st_mtim).  Any mismatch — another process's rename (new inode), append
// (new size) or rewrite — means a full re-parse.  Queries read one cell, or
// one series' tallies, from the index.  A mutex guards it, so every method
// is safe to call from several threads.
//
// Write protocol.  A write that adds records either *appends* the delta
// (only the records past each cell's stored prefix, one flushed block) or
// *compacts*: rewrites the whole normalized journal on `cells.journal.tmp`
// and renames it into place, so a crash mid-compaction leaves the previous
// state intact.  The rule is fixed: a write compacts when
//   * the campaign has no stored journal yet,
//   * the stored journal has no clean tail (torn, or no final '\n':
//     appending after a torn line would corrupt the next record),
//   * the appended records would outnumber the sorted head's, or
//   * it is IngestJournal (a merge leaves the canonical sorted file);
// otherwise it appends.  A compacted journal is byte-identical to one built
// by a full rewrite of the same records.  A SIGKILL mid-append can tear at
// most the final line; Load drops it and the next write compacts.  A failed
// write drops the campaign's index entry, so the next call re-parses.
//
// Single writer.  Each store entry assumes one writing process at a time
// (the shared `cells.journal.tmp` already implies it); any number of
// processes may read, and each sees the others' writes on its next call.
// There is no fsync: durability is the page cache's.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/spec.h"

namespace robustify::store {

struct StoredCells {
  bool exists = false;  // the campaign has a directory with a readable journal
  // Sorted by (series, rate, trial); every cell a contiguous prefix from 0.
  std::vector<campaign::TrialRecord> records;
};

// One stored cell: its contiguous trial-index prefix from 0, in trial order.
struct StoredCell {
  std::vector<campaign::TrialRecord> records;
  int successes = 0;
};

struct CellTally {
  int trials = 0;
  int successes = 0;
};

class ResultStore {
 public:
  explicit ResultStore(std::string root) : root_(std::move(root)) {}

  const std::string& root() const { return root_; }

  // `<root>/<%016x>` for the spec's fingerprint.
  std::string CampaignDir(const campaign::CampaignSpec& spec) const;

  // Reads the campaign's stored records (normalized: sorted, contiguous
  // prefixes).  exists == false when the campaign has no stored journal.
  StoredCells Load(const campaign::CampaignSpec& spec) const;

  // One cell of the campaign; empty when nothing is stored for it.
  StoredCell LoadCell(const campaign::CampaignSpec& spec, int series,
                      int rate) const;

  // One series' stored tally at every rate index of the spec's axis.
  std::vector<CellTally> SeriesTallies(const campaign::CampaignSpec& spec,
                                       int series) const;

  struct IngestStats {
    int cells_updated = 0;   // cells that gained at least one record
    long records_added = 0;  // net new records across those cells
  };

  // Merges `records` into the campaign's store entry: per cell, the longer
  // contiguous trial-index prefix of {stored, incoming} wins.  Incoming
  // records that are not a contiguous prefix from trial 0 are truncated at
  // the first gap (they could not have come from a valid journal).  Creates
  // the campaign directory (and spec.txt) on first ingest.  Idempotent.
  IngestStats IngestRecords(const campaign::CampaignSpec& spec,
                            const std::vector<campaign::TrialRecord>& records);

  // Loads the journal at `path` (tolerating a torn tail), validates its
  // fingerprint against the spec, and ingests its records, compacting.
  // Throws std::runtime_error when the journal is unreadable or was written
  // by a different spec.
  IngestStats IngestJournal(const campaign::CampaignSpec& spec,
                            const std::string& path);

  struct ManifestCell {
    int series = 0;
    int rate = 0;        // index into the campaign's rate axis
    int trials = 0;      // stored contiguous prefix length
    int successes = 0;
    double half_width = 0.0;  // achieved Wilson 95% on the full tally
  };
  struct ManifestEntry {
    std::string fingerprint;  // 16-hex campaign directory name
    std::string app;          // from spec.txt; empty when unreadable
    std::vector<ManifestCell> cells;  // sorted by (series, rate); nonempty
  };

  // Summarizes every campaign directory under the root: which fingerprints
  // are stored, and per cell how many trials the store holds and the
  // precision they achieve.  Sorted by fingerprint; unreadable journals,
  // journals filed under the wrong fingerprint and non-campaign directories
  // are skipped, never an error (the manifest is a status report, not a
  // validator).  Reads through the resident index: an unchanged journal is
  // not re-parsed.
  std::vector<ManifestEntry> Manifest() const;

 private:
  using CellKey = std::pair<int, int>;  // (series, rate)

  // The journal's identity when it was indexed: any change means re-parse.
  struct JournalKey {
    std::uint64_t dev = 0, ino = 0, size = 0;
    std::int64_t mtime_s = 0, mtime_ns = 0;
    bool operator==(const JournalKey& o) const;
  };

  struct Entry {
    JournalKey key;
    bool clean_tail = false;  // appending cannot tear a record
    long head = 0;            // records in the journal's sorted head
    long appended = 0;        // records appended after it
    std::map<CellKey, StoredCell> cells;
  };

  static bool StatJournal(const std::string& path, JournalKey* key);

  // The campaign's index entry, revalidated with one stat() of its journal
  // and rebuilt from it when it changed; nullptr when nothing is stored.
  // Caller holds mu_.
  const Entry* Resident(std::uint64_t fingerprint) const;

  IngestStats Ingest(const campaign::CampaignSpec& spec,
                     const std::vector<campaign::TrialRecord>& records,
                     bool compact);

  std::string root_;
  mutable std::mutex mu_;
  mutable std::map<std::uint64_t, Entry> index_;  // by spec fingerprint
};

}  // namespace robustify::store
