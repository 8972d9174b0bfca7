#include "telemetry/trace.h"

#if ROBUSTIFY_TELEMETRY_ENABLED

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/registry.h"

namespace robustify::telemetry {

namespace detail {

std::atomic<bool> g_tracing{false};

// 32768 events * 24 bytes = 768 KiB per traced thread; old events are
// overwritten once the window fills (flight-recorder semantics).
constexpr std::uint32_t kRingCapacity = 1u << 15;

struct TraceRing {
  void Append(const char* name, char phase, std::int64_t ts_ns) {
    events[head] = TraceEvent{name, ts_ns, phase};
    head = (head + 1) & (kRingCapacity - 1);
    if (count < kRingCapacity) {
      ++count;
    } else {
      ++dropped;
    }
  }

  std::uint32_t head = 0;   // next write slot
  std::uint32_t count = 0;  // valid events (<= capacity)
  std::uint64_t dropped = 0;
  std::unique_ptr<TraceEvent[]> events{new TraceEvent[kRingCapacity]};
};

namespace {

// A ring's valid events, oldest first.
std::vector<TraceEvent> Chronological(const TraceRing& ring) {
  const std::uint32_t oldest = ring.count < kRingCapacity ? 0 : ring.head;
  std::vector<TraceEvent> events;
  events.reserve(ring.count);
  for (std::uint32_t i = 0; i < ring.count; ++i) {
    events.push_back(ring.events[(oldest + i) & (kRingCapacity - 1)]);
  }
  return events;
}

// Honor ROBUSTIFY_TRACE=1 without any call-site wiring: force-enables
// collection for the whole process (the CI telemetry leg runs the entire
// test suite this way).
struct EnvTraceInit {
  EnvTraceInit() {
    const char* env = std::getenv("ROBUSTIFY_TRACE");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') {
      g_tracing.store(true, std::memory_order_relaxed);
    }
  }
};
EnvTraceInit env_trace_init;

}  // namespace

void RetireRing(ThreadRecord& record, Registry& registry) {
  if (record.ring == nullptr) return;
  registry.retired_rings.push_back(
      {record.tid, record.ring->dropped, Chronological(*record.ring)});
  registry.retired_ring_bytes += registry.retired_rings.back().bytes();
  delete record.ring;
  record.ring = nullptr;
  // Drop the oldest retired rings once over budget: flight recorder.
  while (registry.retired_ring_bytes > kMaxRetiredTraceBytes) {
    registry.retired_ring_bytes -= registry.retired_rings.front().bytes();
    registry.retired_rings.pop_front();
  }
}

void EmitEvent(const char* name, char phase) {
  ThreadRecord& record = ThisThread();
  if (record.ring == nullptr) {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    // A thread-exit destructor that runs after the retirer: drop the event.
    if (record.retired) return;
    record.ring = new TraceRing;
  }
  record.ring->Append(name, phase, NowNs());
}

std::size_t RetiredTraceBytes() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.retired_ring_bytes;
}

}  // namespace detail

void StartTracing() {
  detail::g_tracing.store(true, std::memory_order_relaxed);
}

void StopTracing() {
  detail::g_tracing.store(false, std::memory_order_relaxed);
}

bool WriteTrace(const std::string& path) {
  StopTracing();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;

  detail::Registry& registry = detail::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);

  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", out);
  std::fputs(
      "{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": 1, "
      "\"tid\": 0, \"args\": {\"name\": \"robustify\"}}",
      out);

  // Per-ring repair pass for what ring overwrite can tear: an orphan E
  // whose B was overwritten is dropped, and any span still open at the end
  // is closed at the ring's final timestamp — so the output always carries
  // balanced B/E pairs per tid, which tools/trace_validate.py enforces.
  std::vector<const char*> stack;
  const auto emit_ring = [&](std::uint32_t tid, std::uint64_t dropped,
                             const std::vector<detail::TraceEvent>& events) {
    stack.clear();
    std::int64_t last_ts = 0;
    for (const detail::TraceEvent& e : events) {
      last_ts = e.ts_ns;
      if (e.phase == 'E') {
        if (stack.empty()) continue;  // its B was overwritten: drop
        stack.pop_back();
      } else if (e.phase == 'B') {
        stack.push_back(e.name);
      }
      const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
      std::fprintf(out,
                   ",\n{\"name\": \"%s\", \"ph\": \"%c\", \"ts\": %.3f, "
                   "\"pid\": 1, \"tid\": %u%s}",
                   e.name, e.phase, ts_us, tid,
                   e.phase == 'i' ? ", \"s\": \"t\"" : "");
    }
    // Close spans the ring saw begin but never end (an unfinished run or a
    // SpanScope still alive on another frame): balance is a validator
    // invariant, truncation is not.
    const double close_us = static_cast<double>(last_ts) / 1000.0;
    while (!stack.empty()) {
      std::fprintf(out,
                   ",\n{\"name\": \"%s\", \"ph\": \"E\", \"ts\": %.3f, "
                   "\"pid\": 1, \"tid\": %u}",
                   stack.back(), close_us, tid);
      stack.pop_back();
    }
    if (dropped > 0) {
      std::fprintf(out,
                   ",\n{\"name\": \"trace.dropped\", \"ph\": \"M\", \"ts\": 0, "
                   "\"pid\": 1, \"tid\": %u, \"args\": {\"events\": %llu}}",
                   tid, static_cast<unsigned long long>(dropped));
    }
  };

  for (const detail::RetiredRing& ring : registry.retired_rings) {
    emit_ring(ring.tid, ring.dropped, ring.events);
  }
  for (const detail::ThreadRecord* record = registry.head; record != nullptr;
       record = record->next) {
    if (record->ring == nullptr) continue;
    emit_ring(record->tid, record->ring->dropped,
              detail::Chronological(*record->ring));
  }

  std::fputs("\n]}\n", out);
  const bool ok = std::fclose(out) == 0;
  return ok;
}

}  // namespace robustify::telemetry

#else  // compiled out

namespace robustify::telemetry {

bool WriteTrace(const std::string&) { return false; }

}  // namespace robustify::telemetry

#endif  // ROBUSTIFY_TELEMETRY_ENABLED
