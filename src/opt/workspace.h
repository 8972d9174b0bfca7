// Per-trial scratch-buffer pool: the allocation-free backbone of the hot
// paths.
//
// Profile context: one fig-6.1 run used to perform 6.3 million heap
// allocations because every SortObjective::Gradient call constructed two
// std::vector<T>, and the CGLS inner loop built a fresh vector per
// matrix-vector product.  A Workspace owns those buffers instead: Borrow(n)
// hands out a vector resized to n (resize-without-free — capacity is never
// returned to the allocator), and the RAII Lease puts it back on a free
// list when it goes out of scope.  After the first pass over a code path
// ("warm-up") every Borrow is a free-list pop + bounds-checked resize: zero
// heap traffic, which tests/test_allocation.cpp locks in with a counting
// operator new.
//
// Ownership model: the harness's unit of work is the trial, and each campaign
// worker thread runs many trials back to back, so the natural owner is the
// thread — ThreadWorkspace<T>() hands every trial on a worker the same
// warmed pool.  App entry points default to it and accept an explicit
// Workspace* for callers (tests, nested solvers) that want isolation.
//
// Borrowed contents are unspecified: callers overwrite every element they
// read (gradient evaluations write the full output; in-place MatTVec zeroes
// its target first).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/vector.h"

namespace robustify::opt {

template <class T>
class Workspace {
 public:
  // RAII handle on a pooled vector: releases the buffer back to the free
  // list on destruction.  Movable, not copyable.
  class Lease {
   public:
    Lease(Workspace* owner, std::size_t index) : owner_(owner), index_(index) {}
    Lease(Lease&& other) noexcept : owner_(other.owner_), index_(other.index_) {
      other.owner_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        owner_ = other.owner_;
        index_ = other.index_;
        other.owner_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    linalg::Vector<T>& operator*() const { return *owner_->pool_[index_]; }
    linalg::Vector<T>* operator->() const { return owner_->pool_[index_].get(); }

   private:
    void Release() {
      if (owner_ != nullptr) owner_->free_.push_back(index_);
      owner_ = nullptr;
    }

    Workspace* owner_;
    std::size_t index_;
  };

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // A pooled vector resized to n (contents unspecified).  Allocates only
  // when the pool has no free buffer or the buffer has never been this
  // large; steady state is pop + resize-within-capacity.
  Lease Borrow(std::size_t n) {
    std::size_t index;
    if (free_.empty()) {
      index = pool_.size();
      pool_.push_back(std::make_unique<linalg::Vector<T>>());
    } else {
      index = free_.back();
      free_.pop_back();
    }
    pool_[index]->resize(n);
    return Lease(this, index);
  }

  std::size_t pooled() const { return pool_.size(); }

 private:
  friend class Lease;

  // unique_ptr entries keep vector addresses stable while pool_ regrows.
  std::vector<std::unique_ptr<linalg::Vector<T>>> pool_;
  std::vector<std::size_t> free_;
};

// The worker thread's workspace: every trial that runs on this thread
// shares (and keeps warm) the same pool.  See the ownership note above.
template <class T>
Workspace<T>& ThreadWorkspace() {
  thread_local Workspace<T> workspace;
  return workspace;
}

}  // namespace robustify::opt
