#include "telemetry/telemetry.h"

#include <chrono>
#include <mutex>

#include "telemetry/registry.h"

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
    "store.journal_parses",
    "store.delta_appends",
    "store.compactions",
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

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

std::int64_t NowNs() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - anchor)
      .count();
}

namespace {

void FoldInto(const ThreadRecord& record, CounterSnapshot* snapshot) {
  for (int c = 0; c < kNumCounters; ++c) {
    snapshot->counters[c] += record.counters[c].load(std::memory_order_relaxed);
  }
  for (int h = 0; h < kNumHistograms; ++h) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      snapshot->histograms[h][b] +=
          record.histograms[h][b].load(std::memory_order_relaxed);
    }
  }
}

// Retires the thread's record when the thread exits: counters fold into
// the retired totals, the ledger and ring are kept by their modules, and
// the record leaves the live list.  It stays marked registered: a count
// from a later thread-exit destructor lands in the unlinked record and is
// dropped, never re-registers.
struct Retirer {
  ~Retirer() {
    ThreadRecord& record = tls_record;
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    FoldInto(record, &registry.retired_counters);
    RetireLedger(record, registry);
    RetireRing(record, registry);
    record.retired = true;
    if (record.prev != nullptr) {
      record.prev->next = record.next;
    } else {
      registry.head = record.next;
    }
    if (record.next != nullptr) record.next->prev = record.prev;
  }
};

}  // namespace

void RegisterThread() {
  ThreadRecord& record = tls_record;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    record.tid = registry.next_tid++;
    record.next = registry.head;
    record.prev = nullptr;
    if (registry.head != nullptr) registry.head->prev = &record;
    registry.head = &record;
  }
  record.registered = true;
  // Constructed here, after the registry: destroyed at thread exit, before it.
  static thread_local Retirer retirer;
  (void)retirer;
}

}  // namespace detail

void SetCountersEnabled(bool enabled) {
  detail::g_counters_enabled.store(enabled, std::memory_order_relaxed);
}

CounterSnapshot SnapshotCounters() {
  detail::Registry& registry = detail::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  CounterSnapshot snapshot = registry.retired_counters;
  for (const detail::ThreadRecord* record = registry.head; record != nullptr;
       record = record->next) {
    detail::FoldInto(*record, &snapshot);
  }
  return snapshot;
}

void ResetCounters() {
  detail::Registry& registry = detail::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.retired_counters = CounterSnapshot{};
  for (detail::ThreadRecord* record = registry.head; record != nullptr;
       record = record->next) {
    for (std::atomic<std::uint64_t>& slot : record->counters) {
      slot.store(0, std::memory_order_relaxed);
    }
    for (auto& histogram : record->histograms) {
      for (std::atomic<std::uint64_t>& slot : histogram) {
        slot.store(0, std::memory_order_relaxed);
      }
    }
  }
}

#else  // compiled out

CounterSnapshot SnapshotCounters() { return CounterSnapshot{}; }
void ResetCounters() {}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

}  // namespace robustify::telemetry
