// Flight-recorder telemetry, part 2: trace spans.
//
// A per-thread ring buffer of begin/end/instant events that WriteTrace()
// serializes as Chrome trace-event JSON — loadable in chrome://tracing and
// Perfetto.  The span hierarchy mirrors the execution layers:
//
//   campaign            one RunCampaign invocation
//     cell              one (cell, trial) unit: one trial of one
//                       (series, fault-rate) cell
//       trial           one RunSingleTrial
//         solve.sgd     one MinimizeSgd descent
//           phase       one phase-schedule segment
//         solve.cgls    one restarted-CGLS solve
//       checkpoint.flush one journal append
//
// plus sampled "fault" instant events: every Nth injected fault per thread
// (a deterministic modulo counter — telemetry consumes NO simulation RNG,
// so the fault stream is identical with tracing on or off).
//
// Collection is off unless StartTracing() runs (the --trace flags) or
// ROBUSTIFY_TRACE=1 is set; off costs one relaxed bool load per span.
// A thread's ring belongs to its telemetry record (telemetry.h) and is
// allocated on its first traced event; the JSON tid is the record's tid,
// the same number the --attr report prints for that thread.
// Rings are fixed-capacity and overwrite their oldest events (flight
// recorder: the most recent window survives, a run that outlives the ring
// loses its beginning, never its end).  Events carry only a static string
// pointer and a steady-clock timestamp — appending never allocates, so the
// zero-allocation hot-path tests hold even with tracing forced on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "telemetry/attribution.h"
#include "telemetry/telemetry.h"

namespace robustify::telemetry {

#if ROBUSTIFY_TELEMETRY_ENABLED

namespace detail {

extern std::atomic<bool> g_tracing;

// Out of line: appends to the thread's ring, creating it on first use.
void EmitEvent(const char* name, char phase);

// When a traced thread exits, its ring's valid events are copied into a
// buffer of their own size and kept for WriteTrace; the retained copies
// are bounded by bytes (oldest dropped first, flight-recorder style), so a
// long traced process that starts thousands of short-lived workers — every
// campaign::RunCampaign call starts and joins its own (the query service
// keeps one pool for its lifetime) — holds at most this much for the
// exited ones.
inline constexpr std::size_t kMaxRetiredTraceBytes = std::size_t{8} << 20;

// Bytes the retired copies hold now (for tests).
std::size_t RetiredTraceBytes();

// Every kFaultSampleEvery-th injected fault on a thread becomes an instant
// event; the counter is thread-local and deterministic.
inline constexpr std::uint64_t kFaultSampleEvery = 64;
inline thread_local std::uint64_t tls_fault_modulus = 0;

}  // namespace detail

// True when span collection is active (ROBUSTIFY_TRACE=1 or StartTracing).
inline bool TracingActive() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

void StartTracing();
void StopTracing();

// The sampled instant events of `faults` more injected faults: one per
// kFaultSampleEvery faults on this thread.  Called once per fault walk, and
// per fault from the non-default models' (already cold) fault paths.
inline void FaultInstants(std::uint64_t faults) {
  if (!TracingActive()) return;
  const std::uint64_t before = detail::tls_fault_modulus;
  detail::tls_fault_modulus = before + faults;
  for (std::uint64_t n = (before + faults) / detail::kFaultSampleEvery -
                         before / detail::kFaultSampleEvery;
       n != 0; --n) {
    detail::EmitEvent("fault", 'i');
  }
}

inline void Instant(const char* name) {
  if (TracingActive()) detail::EmitEvent(name, 'i');
}

// RAII span: emits a B event now and the matching E on destruction.  The
// name must be a string literal (the ring stores the pointer).  The same
// scope feeds the attribution ledger (attribution.h) when --attr enabled
// it — with or without the trace ring; both off costs two relaxed loads.
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    const bool traced = TracingActive();
    const bool attributed = AttributionActive();
    if (!(traced || attributed)) return;
    name_ = name;
    traced_ = traced;
    attributed_ = attributed;
    if (traced) detail::EmitEvent(name, 'B');
    if (attributed) detail::AttrEnter(name);
  }
  ~SpanScope() {
    if (traced_) detail::EmitEvent(name_, 'E');
    if (attributed_) detail::AttrExit();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  bool traced_ = false;
  bool attributed_ = false;
};

#else  // compiled out

inline bool TracingActive() { return false; }
inline void StartTracing() {}
inline void StopTracing() {}
inline void FaultInstants(std::uint64_t) {}
inline void Instant(const char*) {}
class SpanScope {
 public:
  explicit SpanScope(const char*) {}
};

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

// Serializes every ring (live and retired) as Chrome trace-event JSON and
// stops collection.  Call when worker pools are joined.  The writer repairs
// ring-overwrite artifacts so the output always has balanced B/E pairs and
// per-tid monotonic timestamps (tools/trace_validate.py enforces this).
// Returns false (without throwing) when tracing is compiled out or the file
// cannot be written.
bool WriteTrace(const std::string& path);

}  // namespace robustify::telemetry
