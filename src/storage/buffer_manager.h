// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// LRU buffer manager, reproducing the paper's experimental setup: a fixed
// number of page frames (50 frames of 4 KiB = 200 KiB in the paper), the
// root page pinned, least-recently-used replacement. Pages modified during
// an index operation are marked dirty and written out at the end of the
// operation (FlushDirty) or when they are evicted — exactly the write-
// counting discipline described in Section 5.1.
//
// Concurrency. The pool is thread-safe for the workload the tree's epoch
// protocol produces (DESIGN.md §8): any number of concurrent read fetches,
// with structure-modifying calls (NewPage, FreePage, FlushDirty, write-
// intent fetches) serialized by the caller. Internally:
//
//   * One pool mutex guards the page table, the LRU list, the free list,
//     and all frame metadata (id, dirty, pin count, generation). Device
//     transfers on the miss/eviction path run under it, serializing
//     misses — the paper-accurate global LRU order and I/O counts are
//     preserved exactly, and the concurrency win comes from the hit path,
//     where page *content* is decoded outside the pool mutex.
//   * Each frame carries a reader/writer latch protecting its content. A
//     PageGuard holds the latch (shared for read intent, exclusive for
//     write intent) plus a pin for its lifetime, so a guarded frame can
//     never be evicted or reused under the caller.
//   * Lock order: the pool mutex may be acquired while holding a frame
//     latch (guard release, MarkDirty); a frame latch is NEVER acquired
//     while holding the pool mutex. Frame identity is stable across the
//     gap between pool unlock and latch acquisition because the frame is
//     already pinned.
//
// Fetch/NewPage return a PageGuard instead of a raw Page*: the historic
// "pointer valid only until the next BufferManager call" rule — and the
// pin-leak-on-error-path hazard that came with manual Pin/Unpin — are
// gone by construction. In debug builds every guard dereference also
// checks the frame's generation stamp, aborting if a stale guard (e.g.
// kept across Release) would have been dereferenced.
//
// Device failures propagate: Fetch, NewPage, and FlushDirty return
// Status/StatusOr (a fetch miss can hit a checksum failure; making room
// can fail writing out a dirty victim). The *OrDie variants wrap them for
// call sites where storage failure is unrecoverable by design.

#ifndef REXP_STORAGE_BUFFER_MANAGER_H_
#define REXP_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/registry.h"
#include "sched/mutex.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace rexp {

class BufferManager;

// Declared access to a fetched page: read intent takes the frame latch
// shared (any number of concurrent readers), write intent takes it
// exclusive and unlocks MarkDirty/mutable_page on the guard.
enum class PageIntent { kRead, kWrite };

// RAII handle to a buffered page. Holds the frame's latch and a pin for
// its lifetime; both are released on destruction (or Release()). Move-
// only. Each thread may hold at most one guard at a time — the frame
// latch is not reentrant, so fetching a page while already holding a
// guard on it deadlocks.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { MoveFrom(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  ~PageGuard() { Release(); }

  bool valid() const { return bm_ != nullptr; }
  PageId id() const { return id_; }

  const Page& operator*() const {
    CheckLive();
    return *page_;
  }
  const Page* operator->() const {
    CheckLive();
    return page_;
  }
  const Page& page() const {
    CheckLive();
    return *page_;
  }

  // Mutable access; the guard must have been fetched with write intent.
  Page* mutable_page() {
    CheckLive();
    REXP_DCHECK(intent_ == PageIntent::kWrite);
    return page_;
  }

  // Marks the page dirty so it is written back on flush/eviction.
  // Requires write intent.
  void MarkDirty();

  // Drops latch and pin early (destruction does the same).
  void Release();

 private:
  friend class BufferManager;

  PageGuard(BufferManager* bm, uint32_t frame_index, Page* page, PageId id,
            PageIntent intent, uint64_t generation)
      : bm_(bm),
        page_(page),
        frame_index_(frame_index),
        id_(id),
        intent_(intent),
        generation_(generation) {}

  void MoveFrom(PageGuard& other) {
    bm_ = other.bm_;
    page_ = other.page_;
    frame_index_ = other.frame_index_;
    id_ = other.id_;
    intent_ = other.intent_;
    generation_ = other.generation_;
    other.bm_ = nullptr;
    other.page_ = nullptr;
  }

  // Debug-build stale-guard detection: aborts if the underlying frame
  // was reassigned since this guard was created (impossible while the
  // guard's pin is held; catches use-after-Release bugs).
  void CheckLive() const;

  BufferManager* bm_ = nullptr;
  Page* page_ = nullptr;
  uint32_t frame_index_ = 0;
  PageId id_ = kInvalidPageId;
  PageIntent intent_ = PageIntent::kRead;
  uint64_t generation_ = 0;
};

class BufferManager {
 public:
  // `file` must outlive the buffer manager. `num_frames` >= 1.
  BufferManager(PageFile* file, uint32_t num_frames);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  ~BufferManager();

  // Returns a guard on the buffered page, reading it from the device on a
  // miss (which counts one read I/O, possibly plus one write I/O if a
  // dirty page must be evicted to make room). Fails with the device's
  // kIOError/kCorruption on a bad read or a failed victim write-out; the
  // buffer state is left consistent (the frame is returned to the free
  // pool, nothing stays pinned).
  StatusOr<PageGuard> Fetch(PageId id, PageIntent intent = PageIntent::kRead);

  // Allocates a new page in the file and returns a write guard on a
  // zeroed, dirty frame for it. No device read is performed. Fails if the
  // file cannot grow or a dirty victim cannot be written out.
  StatusOr<PageGuard> NewPage(PageId* id);

  // Abort-on-failure wrappers for in-memory devices and legacy call sites
  // where a storage failure is unrecoverable by design. The error is
  // reported before aborting, never swallowed.
  PageGuard FetchOrDie(PageId id, PageIntent intent = PageIntent::kRead);
  PageGuard NewPageOrDie(PageId* id);

  // Pins / unpins a page so it is never evicted. Pins nest, and stack
  // with the implicit pin of live guards. Used for the root page, which
  // stays pinned across operations.
  void Pin(PageId id);
  void Unpin(PageId id);

  // Deallocates a page: drops it from the buffer (discarding any dirty
  // contents without a write — it is garbage now) and returns it to the
  // file's free list (or the deferred-free quarantine). The page must not
  // be pinned (no live guards).
  void FreePage(PageId id);

  // Writes out all dirty pages (counting write I/Os). Called by the index
  // structures at the end of each logical operation. On failure, keeps
  // going — every still-writable page is flushed — and returns the first
  // error; failed pages stay dirty and `stats().flush_errors` is bumped
  // per failed page so the failure is never silent. Must not run
  // concurrently with live write guards.
  Status FlushDirty();

  // One frame's heat for the hot-page view: how often the buffered page
  // was fetched since it was bound to this frame (the counter resets when
  // the frame is rebound, so heat reflects the page's current residency,
  // not its whole history).
  struct FrameHeat {
    PageId id = kInvalidPageId;
    uint64_t accesses = 0;
    uint32_t pin_count = 0;
    bool dirty = false;
  };

  // The `top_n` hottest bound frames, most-accessed first (ties by page
  // id). Thread-safe; takes the pool mutex.
  std::vector<FrameHeat> Heatmap(size_t top_n) const;

  // Heatmap(top_n) as a JSON array:
  //   [{"page":N,"accesses":N,"pins":N,"dirty":B}, ...]
  // The monitor splices this into its sample lines verbatim.
  std::string HeatmapJson(size_t top_n) const;

  // True if `id` currently occupies a frame (test hook).
  bool IsBuffered(PageId id) const;

  // Number of frames with a nonzero pin count (test hook: a quiescent
  // pool has exactly the explicitly pinned pages — e.g. the root — and a
  // failed operation must not leak guard pins).
  uint32_t PinnedFrames() const;

  uint32_t num_frames() const { return num_frames_; }
  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Binds every IoStats counter as `prefix` + "buffer.<name>", plus the
  // hit_rate, pinned_frames and heat_max_accesses gauges, under `owner`.
  // The caller holds the owner's ScopedRegistration and must drop it
  // before this pool dies.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix, obs::OwnerId owner) const;

 private:
  friend class PageGuard;

  // Null link / "no frame" sentinel for the intrusive LRU list.
  static constexpr uint32_t kNoFrame = 0xFFFFFFFFu;

  struct Frame {
    Page page;
    PageId id = kInvalidPageId;
    bool dirty = false;
    uint32_t pin_count = 0;
    // Fetches of the bound page since binding (Heatmap's heat measure).
    uint64_t accesses = 0;
    // Bumped every time the frame is bound to a different page (or its
    // binding is dropped); guards snapshot it for stale detection.
    uint64_t generation = 0;
    // Links of the intrusive LRU list (valid while in_lru). The list is
    // threaded through the fixed frame array so touching a page on every
    // fetch/unpin allocates nothing — a std::list node per touch showed
    // up directly in search latency.
    uint32_t lru_prev = kNoFrame;
    uint32_t lru_next = kNoFrame;
    bool in_lru = false;
    // Content latch. Guards hold it shared (read) or exclusive (write);
    // frame metadata above is guarded by pool_mu_, not by this latch
    // (the analysis cannot express "guarded by a member of the enclosing
    // class", so that half of the contract is checked by LockRank and
    // the *Locked naming convention instead).
    sched::SharedLatch latch;

    explicit Frame(uint32_t page_size) : page(page_size) {}
  };

  // Returns a free frame index, evicting the LRU unpinned page if needed
  // (which can fail on a dirty victim write-out). Caller holds pool_mu_.
  StatusOr<uint32_t> AcquireFrameLocked() REQUIRES(pool_mu_);
  void TouchLocked(uint32_t frame_index) REQUIRES(pool_mu_);
  void RemoveFromLruLocked(uint32_t frame_index) REQUIRES(pool_mu_);
  void PinFrameLocked(uint32_t frame_index) REQUIRES(pool_mu_);
  void UnpinFrameLocked(uint32_t frame_index) REQUIRES(pool_mu_);

  // Latches frame `fi` (already pinned by the caller) per `intent` and
  // wraps it in a guard. Must NOT hold pool_mu_ (lock order: latches are
  // never acquired under the pool mutex).
  PageGuard MakeGuard(uint32_t fi, PageIntent intent) EXCLUDES(pool_mu_);
  // PageGuard back-ends.
  void ReleaseGuard(uint32_t fi, PageIntent intent) EXCLUDES(pool_mu_);
  void MarkDirtyFrame(uint32_t fi) EXCLUDES(pool_mu_);
  uint64_t FrameGeneration(uint32_t fi) const EXCLUDES(pool_mu_);

  PageFile* const file_;
  const uint32_t num_frames_;

  // Guards everything below it plus per-frame metadata; see file header
  // for the lock order. Mutable so const test hooks can lock it.
  mutable sched::Mutex pool_mu_{sched::LockRank::kBufferPool, "buffer_pool"};
  // unique_ptr keeps Frame (which holds a shared_mutex) off the vector's
  // move path and its address stable for outstanding guards. The vector
  // itself is immutable after the constructor (MakeGuard dereferences it
  // with only a pin, no lock); the Frame *metadata* behind each pointer
  // is pool_mu_-guarded per the comment on Frame.
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<uint32_t> free_frames_ GUARDED_BY(pool_mu_);
  // Intrusive LRU list over frames_ (links in Frame). Head = most
  // recently used; tail = least recently used (the eviction victim).
  uint32_t lru_head_ GUARDED_BY(pool_mu_) = kNoFrame;
  uint32_t lru_tail_ GUARDED_BY(pool_mu_) = kNoFrame;
  std::unordered_map<PageId, uint32_t> frame_of_ GUARDED_BY(pool_mu_);
  IoStats stats_;
};

inline void PageGuard::CheckLive() const {
  REXP_DCHECK(bm_ != nullptr);
  REXP_DCHECK(bm_->FrameGeneration(frame_index_) == generation_);
}

}  // namespace rexp

#endif  // REXP_STORAGE_BUFFER_MANAGER_H_
