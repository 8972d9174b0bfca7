// Flight-recorder telemetry, part 4: the --progress stderr heartbeat.
//
// Long campaigns (bench sweeps included) are silent until their final
// table; with --progress the runner emits a throttled heartbeat line to
// stderr:
//
//   [progress] campaign: 12/35 cells, 480 trials, 123.4 trials/s, ETA 8.2s
//
// Units are campaign cells, each reported when its stopping rule fires
// (however many (cell, trial) work units it took); the ETA comes from an
// EWMA of per-unit completion intervals, so wildly unequal adaptive cells
// converge onto a usable estimate instead of whipsawing on each cheap
// saturated cell.  Heartbeats go only to stderr and never touch results,
// CSVs, or the simulation RNG.  Disabled (the default) the per-unit cost is
// one relaxed bool load.
#pragma once

#include <atomic>
#include <cstdint>

#include "telemetry/telemetry.h"

namespace robustify::telemetry {

#if ROBUSTIFY_TELEMETRY_ENABLED

namespace detail {
extern std::atomic<bool> g_progress_enabled;
}

// Master switch, set once by the CLI/bench flag parser before running.
void EnableProgress();
inline bool ProgressEnabled() {
  return detail::g_progress_enabled.load(std::memory_order_relaxed);
}

// Begin a phase of `total_units` parallel units labeled `label` (a string
// literal).  Nested phases are not tracked — the innermost Begin wins.
void ProgressBegin(const char* label, long total_units);

// One unit finished, contributing `trials` trials.  Thread-safe; prints a
// heartbeat at most every ~700 ms.
void ProgressUnitDone(long trials);

// Final summary line for the current phase.
void ProgressEnd();

#else  // compiled out

inline void EnableProgress() {}
inline bool ProgressEnabled() { return false; }
inline void ProgressBegin(const char*, long) {}
inline void ProgressUnitDone(long) {}
inline void ProgressEnd() {}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

}  // namespace robustify::telemetry
