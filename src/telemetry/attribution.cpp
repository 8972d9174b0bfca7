#include "telemetry/attribution.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>

#include "telemetry/registry.h"

namespace robustify::telemetry {

namespace {

constexpr const char* kAttrCategoryNames[kNumAttrCategories] = {
    "campaign",
    "cell",
    "trial",
    "solve.sgd",
    "solve.cgls",
    "solve.cgne",
    "phase",
    "checkpoint.flush",
    "query",
    "stats",
    "reduce",
    "pool.wait",
    "calibrate",
    "other",
};

}  // namespace

const char* AttrCategoryName(AttrCategory c) {
  const int i = static_cast<int>(c);
  return i >= 0 && i < kNumAttrCategories ? kAttrCategoryNames[i] : "?";
}

#if ROBUSTIFY_TELEMETRY_ENABLED

namespace detail {

std::atomic<bool> g_attribution{false};

namespace {

void FoldInto(const AttrLedger& ledger, AttrTotals* totals) {
  for (int c = 0; c < kNumAttrCategories; ++c) {
    totals[c].count += ledger.count[c].load(std::memory_order_relaxed);
    totals[c].total_ns += ledger.total_ns[c].load(std::memory_order_relaxed);
    totals[c].self_ns += ledger.self_ns[c].load(std::memory_order_relaxed);
  }
}

bool IsZero(const AttrTotals* totals) {
  for (int c = 0; c < kNumAttrCategories; ++c) {
    if (totals[c].count != 0 || totals[c].total_ns != 0 ||
        totals[c].self_ns != 0) {
      return false;
    }
  }
  return true;
}

int ResolveCategory(const char* name) {
  for (int c = 0; c < kNumAttrCategories; ++c) {
    if (std::strcmp(name, kAttrCategoryNames[c]) == 0) return c;
  }
  return static_cast<int>(AttrCategory::kOther);
}

}  // namespace

// Threads that never spanned with attribution on leave nothing behind;
// the rest keep their tid so exited workers still report individually.
void RetireLedger(ThreadRecord& record, Registry& registry) {
  AttributionSnapshot::ThreadLedger retired;
  retired.tid = static_cast<int>(record.tid);
  FoldInto(record.ledger, retired.totals);
  if (!IsZero(retired.totals)) registry.retired_ledgers.push_back(retired);
}

void AttrEnter(const char* name) {
  AttrLedger& ledger = ThisThread().ledger;
  if (ledger.depth >= kMaxSpanDepth) {
    ++ledger.overflow;
    return;
  }
  SpanFrame& frame = ledger.stack[ledger.depth++];
  frame.category = ResolveCategory(name);
  frame.child_ns = 0;
  frame.start_ns = NowNs();
  ++ledger.category_depth[frame.category];
}

void AttrExit() {
  AttrLedger& ledger = ThisThread().ledger;
  if (ledger.overflow > 0) {
    --ledger.overflow;
    return;
  }
  if (ledger.depth == 0) return;  // enabled mid-span: exit without an enter
  const SpanFrame& frame = ledger.stack[--ledger.depth];
  const std::int64_t now = NowNs();
  const std::uint64_t dur =
      now > frame.start_ns ? static_cast<std::uint64_t>(now - frame.start_ns) : 0;
  const std::uint64_t self = dur > frame.child_ns ? dur - frame.child_ns : 0;
  const int c = frame.category;
  ledger.self_ns[c].store(
      ledger.self_ns[c].load(std::memory_order_relaxed) + self,
      std::memory_order_relaxed);
  // Only the outermost occurrence contributes to total (and count):
  // recursive spans would otherwise multiply their shared wall time.
  if (--ledger.category_depth[c] == 0) {
    ledger.total_ns[c].store(
        ledger.total_ns[c].load(std::memory_order_relaxed) + dur,
        std::memory_order_relaxed);
    ledger.count[c].store(ledger.count[c].load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
  }
  if (ledger.depth > 0) {
    ledger.stack[ledger.depth - 1].child_ns += dur;
  }
}

}  // namespace detail

void SetAttributionEnabled(bool enabled) {
  detail::g_attribution.store(enabled, std::memory_order_relaxed);
}

AttributionSnapshot SnapshotAttribution() {
  AttributionSnapshot snapshot;
  detail::Registry& registry = detail::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  snapshot.threads = registry.retired_ledgers;
  for (const detail::ThreadRecord* record = registry.head; record != nullptr;
       record = record->next) {
    AttributionSnapshot::ThreadLedger thread;
    thread.tid = static_cast<int>(record->tid);
    detail::FoldInto(record->ledger, thread.totals);
    // Threads that spanned only while attribution was off carry no ledger.
    if (!detail::IsZero(thread.totals)) snapshot.threads.push_back(thread);
  }
  std::sort(snapshot.threads.begin(), snapshot.threads.end(),
            [](const AttributionSnapshot::ThreadLedger& a,
               const AttributionSnapshot::ThreadLedger& b) {
              return a.tid < b.tid;
            });
  for (const AttributionSnapshot::ThreadLedger& thread : snapshot.threads) {
    for (int c = 0; c < kNumAttrCategories; ++c) {
      snapshot.merged[c].count += thread.totals[c].count;
      snapshot.merged[c].total_ns += thread.totals[c].total_ns;
      snapshot.merged[c].self_ns += thread.totals[c].self_ns;
    }
  }
  return snapshot;
}

void ResetAttribution() {
  detail::Registry& registry = detail::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.retired_ledgers.clear();
  for (detail::ThreadRecord* record = registry.head; record != nullptr;
       record = record->next) {
    detail::AttrLedger& ledger = record->ledger;
    for (int c = 0; c < kNumAttrCategories; ++c) {
      ledger.count[c].store(0, std::memory_order_relaxed);
      ledger.total_ns[c].store(0, std::memory_order_relaxed);
      ledger.self_ns[c].store(0, std::memory_order_relaxed);
    }
  }
}

#else  // compiled out

AttributionSnapshot SnapshotAttribution() { return AttributionSnapshot{}; }
void ResetAttribution() {}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

void FormatAttributionReport(const AttributionSnapshot& snapshot,
                             std::ostream& out) {
  out << "# wall-time attribution: self = total - time in child spans\n"
      << "# thread    category             count       total_s        self_s\n";
  char line[160];
  const auto row = [&](const char* thread_label, const AttrTotals& t, int c) {
    if (t.count == 0 && t.total_ns == 0 && t.self_ns == 0) return;
    std::snprintf(line, sizeof(line), "%-10s  %-18s %7llu  %12.6f  %12.6f\n",
                  thread_label, AttrCategoryName(static_cast<AttrCategory>(c)),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) * 1e-9,
                  static_cast<double>(t.self_ns) * 1e-9);
    out << line;
  };
  for (const AttributionSnapshot::ThreadLedger& thread : snapshot.threads) {
    char label[16];
    std::snprintf(label, sizeof(label), "t%d", thread.tid);
    for (int c = 0; c < kNumAttrCategories; ++c) row(label, thread.totals[c], c);
  }
  for (int c = 0; c < kNumAttrCategories; ++c) {
    row("merged", snapshot.merged[c], c);
  }
}

bool WriteAttributionReport(const std::string& path) {
#if ROBUSTIFY_TELEMETRY_ENABLED
  std::ofstream out(path);
  if (!out) return false;
  FormatAttributionReport(SnapshotAttribution(), out);
  return out.good();
#else
  (void)path;
  return false;
#endif
}

}  // namespace robustify::telemetry
