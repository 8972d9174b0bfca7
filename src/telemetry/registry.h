// Flight-recorder telemetry internals: the one thread registry behind
// telemetry.h, attribution.h and trace.h.  Not for use outside
// src/telemetry/.
//
// telemetry.cpp registers and retires the per-thread records; on thread
// exit its retirer hands the record to RetireLedger (attribution.cpp) and
// RetireRing (trace.cpp), which keep what their snapshots need, all under
// the one registry lock.
#pragma once

#include "telemetry/attribution.h"
#include "telemetry/telemetry.h"

#if ROBUSTIFY_TELEMETRY_ENABLED

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace robustify::telemetry::detail {

struct TraceEvent {
  const char* name;
  std::int64_t ts_ns;  // NowNs() at the event
  char phase;          // 'B', 'E', or 'i'
};

// An exited thread's trace events, copied out of its ring into a buffer of
// their own size: a worker that emitted two events keeps two, not the ring.
struct RetiredRing {
  std::uint32_t tid;
  std::uint64_t dropped;
  std::vector<TraceEvent> events;

  std::size_t bytes() const {
    return sizeof(RetiredRing) + events.capacity() * sizeof(TraceEvent);
  }
};

// Every live record plus what exited threads left behind.  A Meyers
// singleton (GetRegistry) so it outlives every thread's retirer (function
// statics are destroyed after thread-local storage on normal exit).
struct Registry {
  std::mutex mu;
  ThreadRecord* head = nullptr;  // live records, intrusively linked
  std::uint32_t next_tid = 1;
  CounterSnapshot retired_counters;  // folded totals of exited threads
  std::vector<AttributionSnapshot::ThreadLedger> retired_ledgers;
  std::deque<RetiredRing> retired_rings;  // oldest first, byte-bounded
  std::size_t retired_ring_bytes = 0;
};

Registry& GetRegistry();

// Steady-clock ns since the process's one clock anchor: trace timestamps
// and attribution durations share it.
std::int64_t NowNs();

// Called by the retirer with registry.mu held.
void RetireLedger(ThreadRecord& record, Registry& registry);
void RetireRing(ThreadRecord& record, Registry& registry);

}  // namespace robustify::telemetry::detail

#endif  // ROBUSTIFY_TELEMETRY_ENABLED
