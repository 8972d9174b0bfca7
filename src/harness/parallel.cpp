#include "harness/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "telemetry/trace.h"

namespace robustify::harness {

namespace {

std::atomic<std::uint64_t> g_threads_started{0};

}  // namespace

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

WorkerPool::WorkerPool(int threads) : size_(ResolveThreadCount(threads)) {}

WorkerPool::~WorkerPool() {
  for (const std::unique_ptr<Slot>& slot : slots_) {
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      slot->stop = true;
    }
    slot->cv.notify_one();
  }
  for (const std::unique_ptr<Slot>& slot : slots_) slot->thread.join();
}

std::uint64_t WorkerPool::ThreadsStarted() {
  return g_threads_started.load(std::memory_order_relaxed);
}

void WorkerPool::Run(int workers, const std::function<void()>& job) {
  workers = std::min(workers, size_);
  if (workers <= 1) {
    job();
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mu_);
  while (static_cast<int>(slots_.size()) < workers) {
    slots_.push_back(std::make_unique<Slot>());
    Slot* slot = slots_.back().get();
    try {
      slot->thread = std::thread([this, slot] { Loop(slot); });
    } catch (...) {
      slots_.pop_back();  // no thread: the slot must never get a job
      throw;
    }
    g_threads_started.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    pending_ = workers;
  }
  for (int w = 0; w < workers; ++w) {
    Slot& slot = *slots_[static_cast<std::size_t>(w)];
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.job = &job;
    }
    slot.cv.notify_one();
  }
  telemetry::SpanScope wait_span("pool.wait");
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void WorkerPool::Loop(Slot* slot) {
  for (;;) {
    const std::function<void()>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(slot->mu);
      slot->cv.wait(lock, [&] { return slot->stop || slot->job != nullptr; });
      if (slot->stop) return;
      job = std::exchange(slot->job, nullptr);
    }
    std::exception_ptr error;
    try {
      (*job)();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(done_mu_);
    if (error && !error_) error_ = error;
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

}  // namespace robustify::harness
