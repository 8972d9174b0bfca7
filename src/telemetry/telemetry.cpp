#include "telemetry/telemetry.h"

#include <mutex>

namespace robustify::telemetry {

namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "injector.scopes",
    "injector.faults",
    "injector.flops",
    "gap.draws.table",
    "gap.draws.invcdf",
    "sgd.solves",
    "sgd.iterations",
    "sgd.phases",
    "sgd.accepts",
    "sgd.rejects",
    "sgd.tmr_votes",
    "cgls.solves",
    "cgls.iterations",
    "cgls.restarts",
    "campaign.cells",
    "campaign.cells_settled",
    "campaign.trials",
    "campaign.trials_resumed",
    "checkpoint.flushes",
    "checkpoint.records",
    "injector.faults_arith",
    "injector.faults_compare",
    "injector.faults_memory",
    "injector.windows",
    "trials.diverged",
    "trials.budget_exhausted",
    "store.hits",
    "store.misses",
    "store.fresh_trials",
    "store.ingested_cells",
};

constexpr const char* kHistogramNames[kNumHistograms] = {
    "injector.clean_run",
    "campaign.trials_to_stop",
    "campaign.stop_half_width_ppm",
    "query.latency_us.cache",
    "query.latency_us.fresh_trials",
    "query.latency_us.surrogate",
};

}  // namespace

const char* CounterName(Counter c) {
  const int i = static_cast<int>(c);
  return i >= 0 && i < kNumCounters ? kCounterNames[i] : "?";
}

const char* HistogramName(Histogram h) {
  const int i = static_cast<int>(h);
  return i >= 0 && i < kNumHistograms ? kHistogramNames[i] : "?";
}

double HistogramQuantile(const std::uint64_t* buckets, double q) {
  std::uint64_t total = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) total += buckets[b];
  if (total == 0) return 0.0;
  if (!(q > 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[b]);
    if (next >= target) {
      if (b == 0) return 0.0;
      // Bucket b >= 1 spans [2^(b-1), 2^b): width == lower bound.
      const double lower = static_cast<double>(HistogramBucketLowerBound(b));
      const double frac = (target - cumulative) / static_cast<double>(buckets[b]);
      return lower + lower * frac;
    }
    cumulative = next;
  }
  for (int b = kHistogramBuckets - 1; b >= 0; --b) {
    if (buckets[b] != 0) {
      return b == 0 ? 0.0
                    : 2.0 * static_cast<double>(HistogramBucketLowerBound(b));
    }
  }
  return 0.0;
}

#if ROBUSTIFY_TELEMETRY_ENABLED

namespace detail {

std::atomic<bool> g_counters_enabled{true};

namespace {

// Registry of live shards plus the folded totals of exited threads.  A
// Meyers singleton so it outlives every thread_local ShardHolder (function
// statics are destroyed after thread-local storage on normal exit).
struct Registry {
  std::mutex mu;
  Shard* head = nullptr;              // live shards, intrusively linked
  std::uint64_t retired_counters[kNumCounters] = {};
  std::uint64_t retired_histograms[kNumHistograms][kHistogramBuckets] = {};
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

void FoldInto(const Shard& shard, std::uint64_t* counters,
              std::uint64_t (*histograms)[kHistogramBuckets]) {
  for (int c = 0; c < kNumCounters; ++c) {
    counters[c] += shard.counters[c].load(std::memory_order_relaxed);
  }
  for (int h = 0; h < kNumHistograms; ++h) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      histograms[h][b] += shard.histograms[h][b].load(std::memory_order_relaxed);
    }
  }
}

void ZeroShard(Shard* shard) {
  for (int c = 0; c < kNumCounters; ++c) {
    shard->counters[c].store(0, std::memory_order_relaxed);
  }
  for (int h = 0; h < kNumHistograms; ++h) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      shard->histograms[h][b].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace

ShardHolder::ShardHolder() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  shard.next = registry.head;
  shard.prev = nullptr;
  if (registry.head != nullptr) registry.head->prev = &shard;
  registry.head = &shard;
}

ShardHolder::~ShardHolder() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  FoldInto(shard, registry.retired_counters, registry.retired_histograms);
  if (shard.prev != nullptr) {
    shard.prev->next = shard.next;
  } else {
    registry.head = shard.next;
  }
  if (shard.next != nullptr) shard.next->prev = shard.prev;
}

}  // namespace detail

void SetCountersEnabled(bool enabled) {
  detail::g_counters_enabled.store(enabled, std::memory_order_relaxed);
}

CounterSnapshot SnapshotCounters() {
  CounterSnapshot snapshot;
  detail::Registry& registry = detail::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (int c = 0; c < kNumCounters; ++c) {
    snapshot.counters[c] = registry.retired_counters[c];
  }
  for (int h = 0; h < kNumHistograms; ++h) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      snapshot.histograms[h][b] = registry.retired_histograms[h][b];
    }
  }
  for (detail::Shard* shard = registry.head; shard != nullptr; shard = shard->next) {
    detail::FoldInto(*shard, snapshot.counters, snapshot.histograms);
  }
  return snapshot;
}

void ResetCounters() {
  detail::Registry& registry = detail::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (int c = 0; c < kNumCounters; ++c) registry.retired_counters[c] = 0;
  for (int h = 0; h < kNumHistograms; ++h) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      registry.retired_histograms[h][b] = 0;
    }
  }
  for (detail::Shard* shard = registry.head; shard != nullptr; shard = shard->next) {
    detail::ZeroShard(shard);
  }
}

#else  // compiled out

CounterSnapshot SnapshotCounters() { return CounterSnapshot{}; }
void ResetCounters() {}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

}  // namespace robustify::telemetry
