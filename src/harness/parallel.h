// Worker threads for the campaign executor, and worker-count resolution for
// the runner and the benches.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace robustify::harness {

// An explicit request (> 0) wins, else hardware concurrency.  Always at
// least 1.
int ResolveThreadCount(int requested);

// Up to `threads` workers that outlive one job.  Constructing a pool starts
// nothing: a thread is started the first time a job needs it, and every
// started thread is kept, parked on a condition variable, until the pool is
// destroyed.  A caller that runs many small jobs (the query service, one per
// fresh query) pays the thread start once; a pool made for one call (one
// RunCampaign) is the old start-and-join.  The pool's threads keep their
// thread-local state between jobs.
class WorkerPool {
 public:
  explicit WorkerPool(int threads);  // 0 = hardware concurrency
  ~WorkerPool();                     // joins every started thread
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs `job` once on each of min(workers, threads) workers and returns
  // when every run has returned.  One worker means the calling thread runs
  // the job itself.  With more, the pool's threads run it while the caller
  // parks under the `pool.wait` span, so the attribution ledger books the
  // wait, not the caller's own machinery.  When a run throws, the first
  // exception is rethrown here once every run has returned, and the pool
  // stays usable.  Calls are serialized.
  void Run(int workers, const std::function<void()>& job);

  // Threads started by every pool of the process so far (for tests).
  static std::uint64_t ThreadsStarted();

 private:
  // One started thread's mailbox: its own lock and condition variable, so
  // a job wakes each worker directly instead of a herd contending for one
  // lock.
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    const std::function<void()>* job = nullptr;  // set to hand a job over
    bool stop = false;
    std::thread thread;
  };

  void Loop(Slot* slot);

  const int size_;
  std::mutex run_mu_;  // one job at a time; guards slots_
  std::vector<std::unique_ptr<Slot>> slots_;
  std::mutex done_mu_;  // guards pending_ and error_
  std::condition_variable done_cv_;
  int pending_ = 0;             // workers still running the current job
  std::exception_ptr error_;    // the first exception a worker's run threw
};

}  // namespace robustify::harness
