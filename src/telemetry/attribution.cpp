#include "telemetry/attribution.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>

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

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Span nesting in this repo is ~6 deep (campaign > cell > trial > solve >
// phase); 64 leaves room for future layers.  Deeper entries are dropped —
// the matching exits unwind the overflow counter, never the wrong frame.
inline constexpr int kMaxDepth = 64;

struct Frame {
  int category = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t child_ns = 0;  // summed durations of directly nested spans
};

// One thread's ledger.  Totals are relaxed atomics (single writer: the
// owning thread; concurrent readers: SnapshotAttribution) exactly like the
// counter shards; the frame stack is owner-only plain data.
struct Ledger {
  std::atomic<std::uint64_t> count[kNumAttrCategories];
  std::atomic<std::uint64_t> total_ns[kNumAttrCategories];
  std::atomic<std::uint64_t> self_ns[kNumAttrCategories];
  Frame stack[kMaxDepth];
  int depth = 0;
  int overflow = 0;                      // enters dropped past kMaxDepth
  int category_depth[kNumAttrCategories] = {};  // recursion guard for total
  int tid = 0;
  Ledger* next = nullptr;
  Ledger* prev = nullptr;
};

struct RetiredLedger {
  int tid = 0;
  AttrTotals totals[kNumAttrCategories];
};

struct Registry {
  std::mutex mu;
  Ledger* head = nullptr;  // live ledgers, intrusively linked
  int next_tid = 1;        // stable ids in registration order
  std::vector<RetiredLedger> retired;
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

void FoldInto(const Ledger& ledger, AttrTotals* totals) {
  for (int c = 0; c < kNumAttrCategories; ++c) {
    totals[c].count += ledger.count[c].load(std::memory_order_relaxed);
    totals[c].total_ns += ledger.total_ns[c].load(std::memory_order_relaxed);
    totals[c].self_ns += ledger.self_ns[c].load(std::memory_order_relaxed);
  }
}

void ZeroLedger(Ledger* ledger) {
  for (int c = 0; c < kNumAttrCategories; ++c) {
    ledger->count[c].store(0, std::memory_order_relaxed);
    ledger->total_ns[c].store(0, std::memory_order_relaxed);
    ledger->self_ns[c].store(0, std::memory_order_relaxed);
  }
}

// Registers on first span entry (threads that never span never appear) and
// folds into the retired list on thread exit, keeping the tid so exited
// workers still report individually.
struct LedgerHolder {
  Ledger ledger{};
  LedgerHolder() {
    ZeroLedger(&ledger);
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    ledger.tid = registry.next_tid++;
    ledger.next = registry.head;
    if (registry.head != nullptr) registry.head->prev = &ledger;
    registry.head = &ledger;
  }
  ~LedgerHolder() {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    RetiredLedger retired;
    retired.tid = ledger.tid;
    FoldInto(ledger, retired.totals);
    registry.retired.push_back(retired);
    if (ledger.prev != nullptr) {
      ledger.prev->next = ledger.next;
    } else {
      registry.head = ledger.next;
    }
    if (ledger.next != nullptr) ledger.next->prev = ledger.prev;
  }
};

thread_local LedgerHolder tls_ledger;

int ResolveCategory(const char* name) {
  for (int c = 0; c < kNumAttrCategories; ++c) {
    if (std::strcmp(name, kAttrCategoryNames[c]) == 0) return c;
  }
  return static_cast<int>(AttrCategory::kOther);
}

}  // namespace

void AttrEnter(const char* name) {
  Ledger& ledger = tls_ledger.ledger;
  if (ledger.depth >= kMaxDepth) {
    ++ledger.overflow;
    return;
  }
  Frame& frame = ledger.stack[ledger.depth++];
  frame.category = ResolveCategory(name);
  frame.child_ns = 0;
  frame.start_ns = NowNs();
  ++ledger.category_depth[frame.category];
}

void AttrExit() {
  Ledger& ledger = tls_ledger.ledger;
  if (ledger.overflow > 0) {
    --ledger.overflow;
    return;
  }
  if (ledger.depth == 0) return;  // enabled mid-span: exit without an enter
  const Frame& frame = ledger.stack[--ledger.depth];
  const std::uint64_t now = NowNs();
  const std::uint64_t dur = now > frame.start_ns ? now - frame.start_ns : 0;
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
  for (const detail::RetiredLedger& retired : registry.retired) {
    AttributionSnapshot::ThreadLedger thread;
    thread.tid = retired.tid;
    for (int c = 0; c < kNumAttrCategories; ++c) {
      thread.totals[c] = retired.totals[c];
    }
    snapshot.threads.push_back(thread);
  }
  for (detail::Ledger* ledger = registry.head; ledger != nullptr;
       ledger = ledger->next) {
    AttributionSnapshot::ThreadLedger thread;
    thread.tid = ledger->tid;
    detail::FoldInto(*ledger, thread.totals);
    snapshot.threads.push_back(thread);
  }
  // Drop all-zero ledgers (threads that spanned only while attribution was
  // off) and present the rest in stable tid order.
  snapshot.threads.erase(
      std::remove_if(snapshot.threads.begin(), snapshot.threads.end(),
                     [](const AttributionSnapshot::ThreadLedger& t) {
                       for (int c = 0; c < kNumAttrCategories; ++c) {
                         if (t.totals[c].count != 0 ||
                             t.totals[c].total_ns != 0 ||
                             t.totals[c].self_ns != 0) {
                           return false;
                         }
                       }
                       return true;
                     }),
      snapshot.threads.end());
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
  registry.retired.clear();
  for (detail::Ledger* ledger = registry.head; ledger != nullptr;
       ledger = ledger->next) {
    detail::ZeroLedger(ledger);
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
