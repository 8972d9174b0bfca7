// The injector's clean-run histogram (telemetry injector.clean_run), tallied
// off the fault walk.
//
// Every gap the injector schedules is one clean-run observation.  A fault
// walk bumps the gap's exact uint64 bucket in the injector's own histogram,
// through a pointer it holds for the walk, and the injector keeps the
// histogram for the whole activation scope; core::WithFaultyFpu books it
// into the thread's telemetry record once, at scope exit.  So the walk
// makes no telemetry call, no thread-local access and no data-dependent
// branch per fault.  A gap from the alias table's first draw (0..62, the
// common case at every table rate) finds its bucket in a 64-entry table
// indexed by the draw's outcome; every other gap — a tail gap, an
// inverse-CDF gap, a fixed-rate gap, a gap from the per-op model step — is
// on a cold path and computes its bucket there.
//
// With telemetry compiled out (ROBUSTIFY_NO_TELEMETRY) the table and the
// buckets compile out too: every tally call is an empty inline.
#pragma once

#include <cstdint>

#include "telemetry/telemetry.h"

namespace robustify::faulty {

// Gap draws that are not clean runs (an injector's first gap, a gap
// suspended by a sticky window), and with telemetry compiled out every gap
// draw: only the table redraws are counted, for gap.draws.table.
struct UntalliedGaps {
  std::uint64_t tail_draws = 0;  // table redraws after a tail outcome
  void AddTableGap(int) {}
  void AddGap(std::uint64_t) {}
};

#if ROBUSTIFY_TELEMETRY_ENABLED

namespace detail {

// outcome -> histogram bucket of a first-draw table gap of `outcome`.
struct CleanRunBucketOf {
  std::uint8_t bucket[64];
};

constexpr CleanRunBucketOf MakeCleanRunBucketOf() {
  CleanRunBucketOf table{};
  for (int outcome = 0; outcome < 64; ++outcome) {
    table.bucket[outcome] =
        static_cast<std::uint8_t>(telemetry::HistogramBucket(static_cast<std::uint64_t>(outcome)));
  }
  return table;
}

inline constexpr CleanRunBucketOf kCleanRunBucketOf = MakeCleanRunBucketOf();

}  // namespace detail

// What a run of gap draws leaves for telemetry, held by the caller (in
// registers, across a fault walk).
struct GapTally {
  std::uint64_t* buckets;        // kHistogramBuckets counts the gaps land in
  std::uint64_t tail_draws = 0;  // table redraws after a tail outcome

  // A first-draw table gap; `outcome` is the draw's slot, 0..62.
  void AddTableGap(int outcome) { ++buckets[detail::kCleanRunBucketOf.bucket[outcome]]; }
  void AddGap(std::uint64_t gap) { ++buckets[telemetry::HistogramBucket(gap)]; }
};

// One histogram's worth of clean-run counts.
struct CleanRunHistogram {
  std::uint64_t buckets[telemetry::kHistogramBuckets] = {};

  GapTally Tally() { return GapTally{buckets}; }
  const std::uint64_t* data() const { return buckets; }
};

#else  // compiled out: nothing is tallied

using GapTally = UntalliedGaps;

struct CleanRunHistogram {
  GapTally Tally() { return GapTally{}; }
  const std::uint64_t* data() const { return nullptr; }
};

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

}  // namespace robustify::faulty
