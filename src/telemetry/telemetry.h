// Flight-recorder telemetry, part 1: counters, histograms and the thread
// registry.
//
// A process-wide registry of named uint64 counters and fixed-bucket (log2)
// histograms, sharded per thread so a hot-path increment is one relaxed
// store to the calling thread's own slot — no atomic RMW, no cache-line
// ping-pong, no allocation.
//
// Every per-thread piece of telemetry lives in one record: the counter
// shard, the attribution ledger (attribution.h) and the trace ring
// (trace.h).  The record is constant-initialized thread_local storage,
// linked into one registry on the thread's first count, span or event,
// which gives it the thread's one tid — the `tN` row of an --attr report
// and tid N of a --trace file name the same thread.  On thread exit one
// retirer folds the counters into the retired totals and keeps the ledger
// (under its tid) and a right-sized copy of the ring's events.
// SnapshotCounters(), SnapshotAttribution() and WriteTrace() walk the live
// records plus that retired state (the campaign runner starts and joins
// its workers per call, so most records retire quickly).
//
// Determinism contract: telemetry observes, it never participates.  No
// counter or histogram touches the simulation RNG, reorders a fault
// stream, or feeds back into any result — sweep and campaign CSVs are
// byte-identical with counters disabled, enabled, and with full tracing on,
// at any thread count (tests/test_telemetry.cpp).  Counter totals are a
// pure function of the work performed, so they too are thread-count
// independent.
//
// Compile-out: building with -DROBUSTIFY_TELEMETRY=OFF (which defines
// ROBUSTIFY_NO_TELEMETRY) turns every call in this header into an empty
// inline — the zero-allocation and hot-path contracts hold trivially.
// ContextStats (the per-trial fault/flop accounting that feeds the CSVs)
// deliberately does NOT route through here: results must not depend on
// whether observability is compiled in.
#pragma once

#include <atomic>
#include <cstdint>

#if defined(ROBUSTIFY_NO_TELEMETRY)
#define ROBUSTIFY_TELEMETRY_ENABLED 0
#else
#define ROBUSTIFY_TELEMETRY_ENABLED 1
#endif

namespace robustify::telemetry {

// The counter catalog.  Fixed at compile time: stable ids keep the shard a
// plain array and an increment a single indexed add (a dynamic string
// registry would buy nothing here — every producer is in this repo).
enum class Counter : int {
  kInjectorScopes,       // WithFaultyFpu activations (≈ trials)
  kInjectorFaults,       // bits flipped / predicates inverted
  kInjectorFlops,        // FP ops routed through the injector
  kGapDrawsTable,        // Walker alias-table draws (tail redraws included)
  kGapDrawsInvCdf,       // gap samples served by the inverse-CDF form
  kSgdSolves,            // MinimizeSgd calls
  kSgdIterations,        // descent iterations across all solves
  kSgdPhases,            // phase-schedule segments entered
  kSgdAccepts,           // AS accept decisions
  kSgdRejects,           // AS reject decisions
  kSgdTmrVotes,          // TMR gradient vote rounds (3 evaluations each)
  kCglsSolves,           // SolveCglsInto calls
  kCglsIterations,       // CG iterations across all solves
  kCglsRestarts,         // residual-recompute restarts (scheduled + scrub)
  kCampaignCells,        // campaign cells executed
  kCampaignCellsSettled, // of those, stopped by the CI rule within budget
  kCampaignTrials,       // accepted campaign trials
  kCampaignTrialsResumed,// of those, replayed from a checkpoint journal
  kCheckpointFlushes,    // journal appends (one locked write each)
  kCheckpointRecords,    // trial records journaled
  kInjectorFaultsArith,  // corrupted arithmetic results (per op class)
  kInjectorFaultsCompare,// inverted comparison predicates
  kInjectorFaultsMemory, // corrupted memory loads (kOpClassMemory models)
  kInjectorWindows,      // stuck/intermittent windows opened
  kTrialsDiverged,       // trials ended by the non-finite bailout guard
  kTrialsBudgetExhausted,// trials ended by a flop/iteration budget cap
  kStoreHits,            // queries answered from a cached cell tally
  kStoreMisses,          // queries whose cell missed the precision request
  kStoreFreshTrials,     // trials executed to answer store misses
  kStoreIngestedCells,   // store cells created or extended by an ingest
  kStoreJournalParses,   // stored journals parsed into the resident index
  kStoreDeltaAppends,    // store writes appended as a delta
  kStoreCompactions,     // store writes that rewrote the whole journal
  kCount
};

// Histograms bucket by log2: bucket 0 holds value 0, bucket b >= 1 holds
// values in [2^(b-1), 2^b).  64-bit values need 65 buckets.
enum class Histogram : int {
  kInjectorCleanRun,         // sampled clean-run (gap) lengths, in ops
  kCampaignTrialsToStop,     // accepted trials per campaign cell
  kCampaignStopHalfWidthPpm, // Wilson half-width at stop, parts-per-million
  // Per-query wall latency, microseconds, tagged by answer source.  These
  // hold *timing* values, so unlike every other histogram they are not a
  // pure function of the work — exports carry them, exact-diff gates and
  // the thread-invariance test do not run queries.
  kQueryLatencyCacheUs,      // answered from a cached cell tally
  kQueryLatencyFreshUs,      // answered by running fresh trials
  kQueryLatencySurrogateUs,  // answered from the logistic cliff surrogate
  kCount
};

// The attribution category catalog: one entry per span name emitted
// anywhere in the repo (trace.h documents the hierarchy), plus kOther so a
// future span name degrades to an aggregated bucket instead of vanishing.
// It sizes the ledger in every thread's record, so it lives with the other
// catalogs; attribution.h names and reports the categories.
enum class AttrCategory : int {
  kCampaign,
  kCell,
  kTrial,
  kSolveSgd,
  kSolveCgls,
  kSolveCgne,
  kPhase,
  kCheckpointFlush,
  kQuery,
  kStats,
  kReduce,
  kPoolWait,
  kCalibrate,
  kOther,
  kCount
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);
inline constexpr int kNumHistograms = static_cast<int>(Histogram::kCount);
inline constexpr int kHistogramBuckets = 65;
inline constexpr int kNumAttrCategories = static_cast<int>(AttrCategory::kCount);

// Dotted metric name for exports ("injector.faults", ...).
const char* CounterName(Counter c);
const char* HistogramName(Histogram h);

// The bucket a value lands in: 0 for 0, else 1 + floor(log2(value)).
constexpr int HistogramBucket(std::uint64_t value) {
#if defined(__GNUC__) || defined(__clang__)
  return value == 0 ? 0 : 64 - __builtin_clzll(value);
#else
  int b = 0;
  for (; value != 0; value >>= 1) ++b;
  return b;
#endif
}

// Lower bound of a histogram bucket (0, 1, 2, 4, 8, ...).
inline std::uint64_t HistogramBucketLowerBound(int bucket) {
  return bucket == 0 ? 0 : 1ull << (bucket - 1);
}

// Interpolated quantile over one histogram's kHistogramBuckets counts:
// ranks interpolate linearly inside a bucket's [2^(b-1), 2^b) value range
// (bucket 0 is exactly 0).  q clamps to [0, 1]; an empty histogram reads
// 0.  Feeds the --metrics p50/p90/p99 fields and the serve-loop stats.
double HistogramQuantile(const std::uint64_t* buckets, double q);

#if ROBUSTIFY_TELEMETRY_ENABLED

namespace detail {

// Span nesting in this repo is ~6 deep (campaign > cell > trial > solve >
// phase); 64 leaves room for future layers.  Deeper entries are dropped —
// the matching exits unwind the overflow counter, never the wrong frame.
inline constexpr int kMaxSpanDepth = 64;

// One open span on a thread's attribution stack.
struct SpanFrame {
  int category;
  std::int64_t start_ns;
  std::uint64_t child_ns;  // summed durations of directly nested spans
};

// One thread's wall-time attribution ledger (attribution.h).  Totals are
// relaxed atomics like the counters; the frame stack is owner-only.
struct AttrLedger {
  std::atomic<std::uint64_t> count[kNumAttrCategories];
  std::atomic<std::uint64_t> total_ns[kNumAttrCategories];
  std::atomic<std::uint64_t> self_ns[kNumAttrCategories];
  SpanFrame stack[kMaxSpanDepth];
  int depth;
  int overflow;                             // enters dropped past the depth
  int category_depth[kNumAttrCategories];  // recursion guard for total
};

struct TraceRing;  // trace.cpp: allocated on the thread's first traced event

// One thread's telemetry state.  The slots are relaxed atomics so the
// owning thread's plain-speed increments and a concurrent snapshot read
// are race-free; only the owner writes them.  No member initializers: the
// thread-local record must be constant (zero) initialized, so reaching it
// never calls a TLS init function.
struct ThreadRecord {
  std::atomic<std::uint64_t> counters[kNumCounters];
  std::atomic<std::uint64_t> histograms[kNumHistograms][kHistogramBuckets];
  AttrLedger ledger;
  TraceRing* ring;  // set and cleared under the registry lock
  ThreadRecord* next;  // intrusive registry list: no allocation, ever
  ThreadRecord* prev;
  std::uint32_t tid;  // 1-based, in registration order
  bool registered;    // linked into the registry (set on first use)
  bool retired;       // the thread is exiting: its state has been folded
};

inline thread_local ThreadRecord tls_record;

// Links this thread's record into the registry, numbers it, and arranges
// for it to retire on thread exit.  Out of line: runs once per thread.
void RegisterThread();

inline ThreadRecord& ThisThread() {
  ThreadRecord& record = tls_record;
  if (!record.registered) RegisterThread();
  return record;
}

// Master switch for counter/histogram collection.  On by default when
// compiled in; bench_telemetry_overhead toggles it to measure the cost of
// "on" against "off" inside one binary.  Relaxed: flipped only between
// runs, never mid-trial.
extern std::atomic<bool> g_counters_enabled;

}  // namespace detail

// Single-owner increment: load + store on this thread's slot (compiles to
// one add), never an atomic RMW.
inline void Count(Counter c, std::uint64_t n = 1) {
  if (!detail::g_counters_enabled.load(std::memory_order_relaxed)) return;
  std::atomic<std::uint64_t>& slot =
      detail::ThisThread().counters[static_cast<int>(c)];
  slot.store(slot.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline void Observe(Histogram h, std::uint64_t value) {
  if (!detail::g_counters_enabled.load(std::memory_order_relaxed)) return;
  std::atomic<std::uint64_t>& slot =
      detail::ThisThread().histograms[static_cast<int>(h)][HistogramBucket(value)];
  slot.store(slot.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// Adds a whole histogram's worth of observations, `counts[b]` to bucket b
// (kHistogramBuckets entries): for a producer that tallies its own values
// and books them once at a boundary.
inline void AddHistogram(Histogram h, const std::uint64_t* counts) {
  if (!detail::g_counters_enabled.load(std::memory_order_relaxed)) return;
  std::atomic<std::uint64_t>* row = detail::ThisThread().histograms[static_cast<int>(h)];
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (counts[b] != 0) {
      row[b].store(row[b].load(std::memory_order_relaxed) + counts[b],
                   std::memory_order_relaxed);
    }
  }
}

inline bool CountersEnabled() {
  return detail::g_counters_enabled.load(std::memory_order_relaxed);
}

// Toggle collection at a run boundary (overhead A/B measurement; tests).
void SetCountersEnabled(bool enabled);

#else  // compiled out: every call is a no-op the optimizer deletes

inline void Count(Counter, std::uint64_t = 1) {}
inline void Observe(Histogram, std::uint64_t) {}
inline void AddHistogram(Histogram, const std::uint64_t*) {}
inline bool CountersEnabled() { return false; }
inline void SetCountersEnabled(bool) {}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

// Merged view of every thread's counters, live and retired.  Call when the
// producers of interest are quiescent (worker pools joined) for exact
// totals; a mid-flight snapshot is a consistent-enough progress reading.
// Compiled out, it is all zeros.
struct CounterSnapshot {
  std::uint64_t counters[kNumCounters] = {};
  std::uint64_t histograms[kNumHistograms][kHistogramBuckets] = {};

  std::uint64_t value(Counter c) const { return counters[static_cast<int>(c)]; }
  std::uint64_t histogram_total(Histogram h) const {
    std::uint64_t total = 0;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      total += histograms[static_cast<int>(h)][b];
    }
    return total;
  }
};

CounterSnapshot SnapshotCounters();

// Zeroes every live thread's counters and the retired totals.  Test/bench
// support only; callers must be quiescent (no concurrent producers).
void ResetCounters();

}  // namespace robustify::telemetry
