// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Runtime lock-rank checking: the dynamic half of the locking contract
// (the static half is common/thread_annotations.h). Every ranked lock in
// the system — sched::Mutex, sched::SharedMutex, sched::SharedLatch —
// carries a LockRank, and debug builds verify on every acquisition that
// ranks only ever DECREASE down each thread's held-lock stack. That is
// exactly the documented order of DESIGN.md §13:
//
//   kMonitor > kRegistry > kPartitionRouter > kLiveTier > kTreeEpoch
//           > kFrameLatch > kBufferPool > kLeaf
//
// A violation (acquiring a rank >= one already held, or an equal rank out
// of address order) is a potential deadlock even if this particular
// interleaving did not hang, so the checker aborts immediately and prints
// BOTH stacks: where the conflicting outer lock was acquired and where
// the inverted acquisition is happening now. TSan only reports deadlocks
// whose cycles it observes; the rank checker rejects the ordering bug on
// first sight.
//
// Equal ranks are allowed only in increasing address order (the
// convention an address-ordered dual acquisition of two peer locks
// follows).
//
// Cost model: compiled out entirely unless REXP_LOCK_RANK is defined —
// CMake defines it for Debug builds and under -DREXP_LOCK_RANK=ON. In
// other builds every hook is an empty inline function, so Release
// binaries contain no LockRank symbols and the hot paths pay nothing
// (micro_tree_ops guards this; see tests/lock_rank_test.cc and the CI
// symbol check).

#ifndef REXP_SCHED_LOCK_RANK_H_
#define REXP_SCHED_LOCK_RANK_H_

#ifdef REXP_LOCK_RANK
#define REXP_LOCK_RANK_ENABLED 1
#else
#define REXP_LOCK_RANK_ENABLED 0
#endif

#if REXP_LOCK_RANK_ENABLED
#include <execinfo.h>

#include <cstdio>
#include <cstdlib>
#endif

namespace rexp::sched {

// Acquisition order: a thread may acquire a lock only if its rank is
// strictly below every rank it already holds (or equal with a greater
// address). Values are spaced so future layers (shards, partitions) can
// slot in between without renumbering.
enum class LockRank : int {
  // Leaf locks: never held across an acquisition of anything else.
  // Histogram and tracer mutexes, page-file internals, test scaffolding.
  kLeaf = 0,
  // BufferManager::pool_mu_ (page table, LRU, frame metadata). Taken
  // while holding a frame latch (guard release, MarkDirty); never the
  // reverse.
  kBufferPool = 10,
  // Per-frame content latches (BufferManager::Frame::latch). Taken under
  // the tree's epoch lock; pool_mu_ nests inside.
  kFrameLatch = 20,
  // Tree::epoch_mu_ — the single-writer/multi-reader epoch protocol.
  kTreeEpoch = 30,
  // TieredIndex::mu_ — the live tier. Held for the whole of every tiered
  // operation, migration ticks included, and calls into the tree (epoch)
  // while held; nothing takes it while holding tree or buffer locks.
  kLiveTier = 40,
  // PartitionedIndex::router_mu_ — the speed-class routing table and
  // partition states. Calls into partition trees (epoch) while held;
  // nothing takes it while holding tree or buffer locks.
  kPartitionRouter = 45,
  // obs::MetricsRegistry::mu_ — snapshot callbacks run under it and take
  // component locks (live tier, shared epoch) beneath.
  kRegistry = 60,
  // obs::Monitor::mu_ — the sampler holds it across whole registry
  // snapshots.
  kMonitor = 70,
};

#if REXP_LOCK_RANK_ENABLED

namespace lock_rank_internal {

constexpr int kMaxHeld = 16;    // Locks one thread may hold at once.
constexpr int kStackDepth = 24; // Frames captured per acquisition.

struct HeldLock {
  const void* lock = nullptr;
  LockRank rank = LockRank::kLeaf;
  const char* name = "";
  void* stack[kStackDepth];
  int stack_depth = 0;
};

struct ThreadLockState {
  HeldLock held[kMaxHeld];
  int count = 0;
};

inline ThreadLockState& State() {
  thread_local ThreadLockState state;
  return state;
}

[[noreturn]] inline void RankAbort(const HeldLock& outer, LockRank rank,
                                   const void* lock, const char* name) {
  std::fprintf(stderr,
               "LockRank: acquisition-order inversion\n"
               "  acquiring %s (rank %d, %p)\n"
               "  while holding %s (rank %d, %p)\n"
               "ranks must strictly decrease down the acquisition stack "
               "(equal ranks in increasing address order)\n"
               "--- stack of the current (inverted) acquisition ---\n",
               name, static_cast<int>(rank), lock, outer.name,
               static_cast<int>(outer.rank), outer.lock);
  std::fflush(stderr);
  void* here[kStackDepth];
  int depth = backtrace(here, kStackDepth);
  backtrace_symbols_fd(here, depth, 2);
  std::fprintf(stderr, "--- stack where %s was acquired ---\n", outer.name);
  std::fflush(stderr);
  backtrace_symbols_fd(const_cast<void* const*>(outer.stack),
                       outer.stack_depth, 2);
  std::fflush(stderr);
  std::abort();
}

}  // namespace lock_rank_internal

inline constexpr bool kLockRankEnabled = true;

// Called immediately BEFORE blocking on the lock, so an inversion is
// reported even when this particular interleaving would not deadlock.
inline void LockRankCheckAcquire(LockRank rank, const void* lock,
                                 const char* name) {
  using namespace lock_rank_internal;
  ThreadLockState& s = State();
  for (int i = 0; i < s.count; ++i) {
    const HeldLock& h = s.held[i];
    const bool ok = rank < h.rank ||
                    (rank == h.rank && lock > h.lock);
    if (!ok) RankAbort(h, rank, lock, name);
  }
  if (s.count >= kMaxHeld) {
    std::fprintf(stderr, "LockRank: >%d locks held by one thread\n",
                 kMaxHeld);
    std::abort();
  }
}

// Called after the lock is actually held; records it with the current
// stack so a later inversion can print where this hold began.
inline void LockRankRecordAcquired(LockRank rank, const void* lock,
                                   const char* name) {
  using namespace lock_rank_internal;
  ThreadLockState& s = State();
  HeldLock& h = s.held[s.count++];
  h.lock = lock;
  h.rank = rank;
  h.name = name;
  h.stack_depth = backtrace(h.stack, kStackDepth);
}

inline void LockRankRecordReleased(const void* lock) {
  using namespace lock_rank_internal;
  ThreadLockState& s = State();
  for (int i = s.count - 1; i >= 0; --i) {
    if (s.held[i].lock != lock) continue;
    // Preserve stack order of the remaining holds.
    for (int j = i; j + 1 < s.count; ++j) s.held[j] = s.held[j + 1];
    --s.count;
    return;
  }
  std::fprintf(stderr, "LockRank: release of a lock this thread does not "
                       "hold (%p)\n", lock);
  std::fflush(stderr);
  std::abort();
}

// Number of ranked locks the calling thread currently holds (test hook).
inline int LockRankHeldByThisThread() {
  return lock_rank_internal::State().count;
}

#else  // !REXP_LOCK_RANK_ENABLED

inline constexpr bool kLockRankEnabled = false;

inline void LockRankCheckAcquire(LockRank, const void*, const char*) {}
inline void LockRankRecordAcquired(LockRank, const void*, const char*) {}
inline void LockRankRecordReleased(const void*) {}
inline int LockRankHeldByThisThread() { return 0; }

#endif  // REXP_LOCK_RANK_ENABLED

}  // namespace rexp::sched

#endif  // REXP_SCHED_LOCK_RANK_H_
