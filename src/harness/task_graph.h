// Dependency-graph task scheduler for in-trial parallelism.
//
// The tiled solvers (linalg/tiled.h) decompose a factorization into tile
// tasks (potrf/trsm/syrk/gemm) whose ordering constraints are exactly the
// reads/writes each task performs on tile resources.  The builder declares
// those accesses and the graph derives the edges itself: a read depends on
// the resource's last writer; a write depends on the last writer plus every
// reader since (anti/output dependencies), then becomes the new last writer.
// Declaration order is the serial elaboration order, so an inout chain on
// one resource executes in submission order regardless of worker count —
// which is what lets each task own a deterministically-seeded injector
// stream and keep results bit-identical at any thread count.
//
// Run(threads <= 1, body) executes ready tasks inline with no locking and —
// once the graph buffers are warmed — no allocation, which is what the
// zero-allocation solver contract (tests/test_allocation.cpp) pins.  With
// more workers it fans the ready set across ParallelFor's workers.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

namespace robustify::harness {

// Task payload: a kernel discriminator plus up to three tile coordinates.
// Plain data so the graph stores it by value and bodies switch on it.
struct TaskTag {
  int kind = 0;
  int i = 0;
  int j = 0;
  int k = 0;
};

class TaskGraph {
 public:
  // Clears all tasks and resets the access history for `resources` resource
  // slots.  Buffers are retained across Reset so a warmed graph rebuilds
  // without allocating.
  void Reset(std::size_t resources);

  // Appends a task and returns its id (dense, starting at 0).  Ids double as
  // the deterministic per-task ordinal for seed derivation.
  int AddTask(const TaskTag& tag);

  // Declares that `task` reads / writes resource slot `resource`.  Writes
  // are read-modify-write: a writer may also read the resource's prior
  // value without a separate Reads call.
  void Reads(int task, std::size_t resource);
  void Writes(int task, std::size_t resource);

  int size() const { return static_cast<int>(tags_.size()); }
  const TaskTag& tag(int id) const { return tags_[static_cast<std::size_t>(id)]; }

  // Executes every task exactly once, respecting the derived dependencies,
  // across min(threads, size()) workers (threads <= 1 runs inline on the
  // calling thread).  Throws std::logic_error if the declared accesses form
  // a cycle; rethrows the first body exception after idling the workers.
  template <class Body>
  void Run(int threads, Body&& body) {
    RunImpl(threads, &InvokeBody<std::remove_reference_t<Body>>, &body);
  }

 private:
  using RawBody = void (*)(void* ctx, int id, const TaskTag& tag);

  template <class Body>
  static void InvokeBody(void* ctx, int id, const TaskTag& tag) {
    (*static_cast<Body*>(ctx))(id, tag);
  }

  void AddEdge(int pred, int succ);
  void RunImpl(int threads, RawBody fn, void* ctx);
  void RunSerial(RawBody fn, void* ctx);
  void RunParallel(int workers, RawBody fn, void* ctx);
  void SeedReady();

  std::vector<TaskTag> tags_;
  std::vector<std::vector<int>> succ_;  // succ_[pred] -> dependent task ids
  std::vector<int> indegree_;
  // Per-resource access history used while building.
  std::vector<int> last_writer_;  // -1 = not written yet
  std::vector<std::vector<int>> readers_;  // readers since the last write
  // Run scratch, reused across runs.
  std::vector<int> pending_;
  std::vector<int> ready_;
};

}  // namespace robustify::harness
