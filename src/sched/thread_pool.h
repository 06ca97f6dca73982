// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// A small fixed-size worker pool plus ParallelFor, the one fan-out
// primitive over it (the concurrency benchmark's batched Search, and
// tests). Deliberately minimal: submit closures, wait for the batch to
// drain. Submitted work must do its own synchronization against the
// index (the tree's epoch protocol, DESIGN.md §8); the pool only
// provides the threads.

#ifndef REXP_SCHED_THREAD_POOL_H_
#define REXP_SCHED_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "sched/mutex.h"

namespace rexp::sched {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    REXP_CHECK(num_threads >= 1);
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(&mu_);
      stopping_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& t : workers_) t.join();
  }

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn` for execution on some worker. Never blocks.
  void Submit(std::function<void()> fn) EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      queue_.push_back(std::move(fn));
      ++outstanding_;
    }
    wake_.NotifyOne();
  }

  // Blocks until every task submitted so far has finished executing.
  // Must not be called from inside a task.
  void Wait() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    drained_.Wait(mu_, [this]() REQUIRES(mu_) { return outstanding_ == 0; });
  }

 private:
  void WorkerLoop() EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> fn;
      {
        MutexLock lock(&mu_);
        wake_.Wait(mu_, [this]() REQUIRES(mu_) {
          return stopping_ || !queue_.empty();
        });
        if (queue_.empty()) return;  // stopping_, nothing left to run.
        fn = std::move(queue_.front());
        queue_.pop_front();
      }
      fn();
      {
        MutexLock lock(&mu_);
        if (--outstanding_ == 0) drained_.NotifyAll();
      }
    }
  }

  Mutex mu_{LockRank::kLeaf, "thread_pool"};
  CondVar wake_;
  CondVar drained_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t outstanding_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  // Written only in the constructor, joined in the destructor; threads
  // never touch it — safe without mu_.
  std::vector<std::thread> workers_;
};

// Runs fn(i) for every i in [0, n) and returns once all n calls have
// finished. With a pool, min(n, threads) tasks pull indices from a shared
// cursor (dynamic scheduling: per-index costs vary, so static striping
// would idle the fast workers). Completion is tracked by a per-call
// latch, not ThreadPool::Wait(), so callers sharing one pool wait only
// for their own indices. A null pool (or n <= 1) runs the loop inline on
// the caller. Must not be called from inside a task of the same pool.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, Fn&& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t tasks = std::min(n, static_cast<size_t>(pool->num_threads()));
  std::atomic<size_t> next{0};
  Mutex done_mu(LockRank::kLeaf, "parallel_for_latch");
  CondVar done_cv;
  size_t pending = tasks;
  for (size_t t = 0; t < tasks; ++t) {
    pool->Submit([&] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
      MutexLock lk(&done_mu);
      if (--pending == 0) done_cv.NotifyAll();
    });
  }
  MutexLock lk(&done_mu);
  done_cv.Wait(done_mu, [&pending] { return pending == 0; });
}

}  // namespace rexp::sched

#endif  // REXP_SCHED_THREAD_POOL_H_
