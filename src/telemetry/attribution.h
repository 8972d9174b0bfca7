// Flight-recorder telemetry, part 3: the wall-time attribution ledger.
//
// Answers "where does the wall time go?" without paying for the Chrome
// trace ring: every SpanScope, when attribution is enabled, pushes a frame
// on its thread's fixed-depth stack and, on exit, folds the span's duration
// into that thread's per-category totals.  Two numbers per category:
//
//   total  wall time with the category anywhere on the stack (outermost
//          occurrence only, so recursion never double-counts), and
//   self   total minus the time spent in child spans — the category's own
//          machinery.
//
// By construction self + child == total per (thread, category), and the
// sum of a span's children's totals can never exceed its own total
// (tests/test_attribution.cpp holds both).  A campaign run therefore
// decomposes into campaign self (scheduling + serial reduction), pool.wait
// (the main thread parked on the worker pool), cell/trial self (injector +
// controller machinery), solve.* self (kernel loops), phase, and
// checkpoint.flush — per thread.  The ledger is part of the thread's one
// telemetry record (telemetry.h), so a ledger's tid is the thread's tid in
// a --trace file too, and an exited worker's ledger keeps it.
//
// Determinism contract: identical to the rest of the telemetry layer — the
// ledger observes steady-clock timestamps and touches nothing the
// simulation reads, so CSVs are byte-identical with attribution off/on at
// any thread count.  Off (the default) costs one relaxed bool load per
// span; category lookup (strcmp over a dozen literals) happens only when
// enabled.  Compiled out (-DROBUSTIFY_TELEMETRY=OFF) every call here is an
// empty inline.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace robustify::telemetry {

// The span name the category folds ("campaign", "solve.sgd", ...).
const char* AttrCategoryName(AttrCategory c);

// Per-(thread, category) accumulated wall time, in steady-clock ns.
struct AttrTotals {
  std::uint64_t count = 0;     // outermost span entries
  std::uint64_t total_ns = 0;  // wall time with the category on the stack
  std::uint64_t self_ns = 0;   // total minus time inside child spans
  std::uint64_t child_ns() const { return total_ns - self_ns; }
};

struct AttributionSnapshot {
  struct ThreadLedger {
    int tid = 0;  // the thread's telemetry tid (telemetry.h), as in WriteTrace
    AttrTotals totals[kNumAttrCategories];
  };
  std::vector<ThreadLedger> threads;        // live + exited, by tid
  AttrTotals merged[kNumAttrCategories];    // summed across threads

  const AttrTotals& total(AttrCategory c) const {
    return merged[static_cast<int>(c)];
  }
};

#if ROBUSTIFY_TELEMETRY_ENABLED

namespace detail {

extern std::atomic<bool> g_attribution;

// Out of line: resolves the category and pushes/pops the thread's frame
// stack.  Called from SpanScope only when attribution is enabled.
void AttrEnter(const char* name);
void AttrExit();

}  // namespace detail

// True when the attribution ledger is collecting (--attr or tests).
inline bool AttributionActive() {
  return detail::g_attribution.load(std::memory_order_relaxed);
}

// Toggle at a run boundary (like SetCountersEnabled); never mid-span.
void SetAttributionEnabled(bool enabled);

#else  // compiled out

inline bool AttributionActive() { return false; }
inline void SetAttributionEnabled(bool) {}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

// Merged view of every per-thread ledger, live and exited, in stable tid
// order.  Call when producers are quiescent (pools joined) for exact
// totals.  Compiled out (or never enabled): no threads, all zeros.
AttributionSnapshot SnapshotAttribution();

// Zeroes every ledger, live and exited.  Callers must be quiescent.
void ResetAttribution();

// Human-readable self/total table (one row per thread x active category,
// then the merged totals).  WriteAttributionReport(path) returns false
// when the report cannot be written or telemetry is compiled out.
void FormatAttributionReport(const AttributionSnapshot& snapshot,
                             std::ostream& out);
bool WriteAttributionReport(const std::string& path);

}  // namespace robustify::telemetry
