// Flight-recorder telemetry, part 1: counters and histograms.
//
// A process-wide registry of named uint64 counters and fixed-bucket (log2)
// histograms, sharded per thread so a hot-path increment is one relaxed
// store to the calling thread's own slot — no atomic RMW, no cache-line
// ping-pong, no allocation (shards are constant-initialized thread_local
// objects, registered on their thread's first count).  SnapshotCounters()
// merges the live shards with the folded totals of threads that have
// already exited (the campaign runner starts and joins its workers per
// call, so most shards retire quickly).
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

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);
inline constexpr int kNumHistograms = static_cast<int>(Histogram::kCount);
inline constexpr int kHistogramBuckets = 65;

// Dotted metric name for exports ("injector.faults", ...).
const char* CounterName(Counter c);
const char* HistogramName(Histogram h);

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

// One thread's slice of every counter and histogram.  The slots are
// relaxed atomics so the owning thread's plain-speed increments and a
// concurrent SnapshotCounters() read are race-free; only the owner writes.
// No member initializers: the thread-local shard must be constant (zero)
// initialized, so reaching it never calls a TLS init function.
struct Shard {
  std::atomic<std::uint64_t> counters[kNumCounters];
  std::atomic<std::uint64_t> histograms[kNumHistograms][kHistogramBuckets];
  Shard* next;  // intrusive registry list: no allocation, ever
  Shard* prev;
  bool registered;  // linked into the registry (set on the first count)
};

inline thread_local Shard tls_shard;

// Links this thread's shard into the process registry and arranges for its
// totals to fold into the retired accumulator on thread exit.  Out of line:
// runs once per thread, on its first count.
void RegisterThreadShard();

inline Shard& ThreadShard() {
  Shard& shard = tls_shard;
  if (!shard.registered) RegisterThreadShard();
  return shard;
}

// Master switch for counter/histogram collection.  On by default when
// compiled in; bench_telemetry_overhead toggles it to measure the cost of
// "on" against "off" inside one binary.  Relaxed: flipped only between
// runs, never mid-trial.
extern std::atomic<bool> g_counters_enabled;

inline std::uint64_t Log2Bucket(std::uint64_t value) {
#if defined(__GNUC__) || defined(__clang__)
  return value == 0 ? 0 : 64 - static_cast<unsigned>(__builtin_clzll(value));
#else
  int b = 0;
  while (value != 0) {
    ++b;
    value >>= 1;
  }
  return static_cast<std::uint64_t>(b);
#endif
}

}  // namespace detail

// Single-owner increment: load + store on this thread's slot (compiles to
// one add), never an atomic RMW.
inline void Count(Counter c, std::uint64_t n = 1) {
  if (!detail::g_counters_enabled.load(std::memory_order_relaxed)) return;
  std::atomic<std::uint64_t>& slot =
      detail::ThreadShard().counters[static_cast<int>(c)];
  slot.store(slot.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline void Observe(Histogram h, std::uint64_t value) {
  if (!detail::g_counters_enabled.load(std::memory_order_relaxed)) return;
  std::atomic<std::uint64_t>& slot =
      detail::ThreadShard().histograms[static_cast<int>(h)][detail::Log2Bucket(value)];
  slot.store(slot.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

inline bool CountersEnabled() {
  return detail::g_counters_enabled.load(std::memory_order_relaxed);
}

// Toggle collection at a run boundary (overhead A/B measurement; tests).
void SetCountersEnabled(bool enabled);

#else  // compiled out: every call is a no-op the optimizer deletes

inline void Count(Counter, std::uint64_t = 1) {}
inline void Observe(Histogram, std::uint64_t) {}
inline bool CountersEnabled() { return false; }
inline void SetCountersEnabled(bool) {}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

// Merged view of every shard, live and retired.  Call when the producers
// of interest are quiescent (worker pools joined) for exact totals; a
// mid-flight snapshot is a consistent-enough progress reading.  Compiled
// out, it is all zeros.
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

// Zeroes every live shard and the retired totals.  Test/bench support
// only; callers must be quiescent (no concurrent producers).
void ResetCounters();

}  // namespace robustify::telemetry
