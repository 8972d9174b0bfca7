#include "harness/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/trace.h"

namespace robustify::harness {

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ParallelFor(int count, int threads, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  const int workers = std::min(ResolveThreadCount(threads), count);
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<int> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  const auto drive = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::unique_lock<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(drive);
  {
    // The calling thread parks here while workers drain the range; the
    // attribution ledger books it as pool.wait so a parent span's self
    // time is its own machinery, not the wait.
    telemetry::SpanScope wait_span("pool.wait");
    for (std::thread& worker : pool) worker.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace robustify::harness
