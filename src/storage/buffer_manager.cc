// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "storage/buffer_manager.h"

#include <algorithm>

#include "common/check.h"
#include "obs/json_writer.h"

namespace rexp {

void PageGuard::MarkDirty() {
  CheckLive();
  REXP_DCHECK(intent_ == PageIntent::kWrite);
  bm_->MarkDirtyFrame(frame_index_);
}

void PageGuard::Release() {
  if (bm_ == nullptr) return;
  bm_->ReleaseGuard(frame_index_, intent_);
  bm_ = nullptr;
  page_ = nullptr;
}

BufferManager::BufferManager(PageFile* file, uint32_t num_frames)
    : file_(file), num_frames_(num_frames) {
  REXP_CHECK(num_frames >= 1);
  frames_.reserve(num_frames);
  for (uint32_t i = 0; i < num_frames; ++i) {
    frames_.push_back(std::make_unique<Frame>(file->page_size()));
    free_frames_.push_back(num_frames - 1 - i);  // Use frame 0 first.
  }
}

BufferManager::~BufferManager() {
  Status s = FlushDirty();
  if (!s.ok()) {
    std::fprintf(stderr, "BufferManager: flush on destruction failed: %s\n",
                 s.ToString().c_str());
  }
}

StatusOr<PageGuard> BufferManager::Fetch(PageId id, PageIntent intent) {
  REXP_CHECK(id != kInvalidPageId);
  uint32_t fi;
  {
    sched::MutexLock lock(&pool_mu_);
    auto it = frame_of_.find(id);
    if (it != frame_of_.end()) {
      ++stats_.hits;
      fi = it->second;
      ++frames_[fi]->accesses;
    } else {
      ++stats_.misses;
      REXP_ASSIGN_OR_RETURN(fi, AcquireFrameLocked());
      Frame& f = *frames_[fi];
      // Device transfer under pool_mu_: misses serialize, keeping the
      // global LRU order and I/O counts exactly as in the single-
      // threaded pool. Concurrent hits do not wait here for the latch.
      Status read = file_->ReadPage(id, &f.page);
      if (!read.ok()) {
        // The frame was never published; hand it back so the buffer
        // stays consistent and the caller can retry or fail upward.
        free_frames_.push_back(fi);
        return read;
      }
      ++stats_.reads;
      f.id = id;
      f.dirty = false;
      f.pin_count = 0;
      f.accesses = 1;
      ++f.generation;
      frame_of_[id] = fi;
    }
    // Pin before dropping pool_mu_ so the frame cannot be evicted or
    // reassigned in the gap before the latch is taken.
    PinFrameLocked(fi);
  }
  return MakeGuard(fi, intent);
}

StatusOr<PageGuard> BufferManager::NewPage(PageId* id) {
  uint32_t fi;
  {
    sched::MutexLock lock(&pool_mu_);
    REXP_ASSIGN_OR_RETURN(*id, file_->Allocate());
    // The page may be a recycled one that is still buffered with stale
    // contents; reuse its frame in that case.
    auto it = frame_of_.find(*id);
    if (it != frame_of_.end()) {
      fi = it->second;
      REXP_CHECK(frames_[fi]->pin_count == 0);  // Freed pages have no guards.
      ++frames_[fi]->generation;
    } else {
      auto acquired = AcquireFrameLocked();
      if (!acquired.ok()) {
        // Undo the allocation; the caller never saw the page.
        file_->Free(*id);
        *id = kInvalidPageId;
        return acquired.status();
      }
      fi = *acquired;
      frames_[fi]->id = *id;
      frames_[fi]->pin_count = 0;
      frame_of_[*id] = fi;
      ++frames_[fi]->generation;
    }
    frames_[fi]->accesses = 1;
    Frame& f = *frames_[fi];
    f.page.Clear();
    f.dirty = true;
    PinFrameLocked(fi);
  }
  return MakeGuard(fi, PageIntent::kWrite);
}

PageGuard BufferManager::FetchOrDie(PageId id, PageIntent intent) {
  auto guard = Fetch(id, intent);
  if (!guard.ok()) {
    std::fprintf(stderr, "BufferManager::Fetch(%u) failed: %s\n", id,
                 guard.status().ToString().c_str());
    std::abort();
  }
  return *std::move(guard);
}

PageGuard BufferManager::NewPageOrDie(PageId* id) {
  auto guard = NewPage(id);
  if (!guard.ok()) {
    std::fprintf(stderr, "BufferManager::NewPage failed: %s\n",
                 guard.status().ToString().c_str());
    std::abort();
  }
  return *std::move(guard);
}

void BufferManager::Pin(PageId id) {
  sched::MutexLock lock(&pool_mu_);
  auto it = frame_of_.find(id);
  REXP_CHECK(it != frame_of_.end());
  PinFrameLocked(it->second);
}

void BufferManager::Unpin(PageId id) {
  sched::MutexLock lock(&pool_mu_);
  auto it = frame_of_.find(id);
  REXP_CHECK(it != frame_of_.end());
  UnpinFrameLocked(it->second);
}

void BufferManager::FreePage(PageId id) {
  sched::MutexLock lock(&pool_mu_);
  auto it = frame_of_.find(id);
  if (it != frame_of_.end()) {
    uint32_t fi = it->second;
    Frame& f = *frames_[fi];
    REXP_CHECK(f.pin_count == 0);
    RemoveFromLruLocked(fi);
    f.id = kInvalidPageId;
    f.dirty = false;
    f.accesses = 0;
    ++f.generation;
    frame_of_.erase(it);
    free_frames_.push_back(fi);
  }
  file_->Free(id);
}

Status BufferManager::FlushDirty() {
  sched::MutexLock lock(&pool_mu_);
  Status first_error;
  for (auto& frame : frames_) {
    Frame& f = *frame;
    if (f.id != kInvalidPageId && f.dirty) {
      Status s = file_->WritePage(f.id, f.page);
      if (!s.ok()) {
        // Keep the page dirty so a later flush can retry; remember the
        // first failure but try every remaining page, and count each
        // failed page so the error is visible in telemetry even when a
        // caller drops the status.
        ++stats_.flush_errors;
        if (first_error.ok()) first_error = s;
        continue;
      }
      ++stats_.writes;
      f.dirty = false;
    }
  }
  return first_error;
}

std::vector<BufferManager::FrameHeat> BufferManager::Heatmap(
    size_t top_n) const {
  std::vector<FrameHeat> heat;
  {
    sched::MutexLock lock(&pool_mu_);
    heat.reserve(frames_.size());
    for (const auto& f : frames_) {
      if (f->id == kInvalidPageId) continue;
      heat.push_back(FrameHeat{f->id, f->accesses, f->pin_count, f->dirty});
    }
  }
  std::sort(heat.begin(), heat.end(),
            [](const FrameHeat& a, const FrameHeat& b) {
              if (a.accesses != b.accesses) return a.accesses > b.accesses;
              return a.id < b.id;
            });
  if (heat.size() > top_n) heat.resize(top_n);
  return heat;
}

std::string BufferManager::HeatmapJson(size_t top_n) const {
  obs::JsonWriter w;
  w.BeginArray();
  for (const FrameHeat& h : Heatmap(top_n)) {
    w.BeginObject();
    w.KV("page", static_cast<uint64_t>(h.id));
    w.KV("accesses", h.accesses);
    w.KV("pins", static_cast<uint64_t>(h.pin_count));
    w.KV("dirty", h.dirty);
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

void BufferManager::RegisterMetrics(obs::MetricsRegistry* registry,
                                    const std::string& prefix,
                                    obs::OwnerId owner) const {
  for (const auto& [name, counter] : IoStats::kCounters) {
    registry->AddCounter(prefix + "buffer." + name, &(stats_.*counter),
                         owner);
  }
  registry->AddGauge(prefix + "buffer.hit_rate",
                     [this] { return stats_.HitRate(); }, owner);
  registry->AddGauge(prefix + "buffer.pinned_frames", [this] {
    return static_cast<double>(PinnedFrames());
  }, owner);
  registry->AddGauge(prefix + "buffer.heat_max_accesses", [this] {
    auto heat = Heatmap(1);
    return heat.empty() ? 0.0 : static_cast<double>(heat[0].accesses);
  }, owner);
}

bool BufferManager::IsBuffered(PageId id) const {
  sched::MutexLock lock(&pool_mu_);
  return frame_of_.count(id) > 0;
}

uint32_t BufferManager::PinnedFrames() const {
  sched::MutexLock lock(&pool_mu_);
  uint32_t pinned = 0;
  for (const auto& f : frames_) {
    if (f->id != kInvalidPageId && f->pin_count > 0) ++pinned;
  }
  return pinned;
}

StatusOr<uint32_t> BufferManager::AcquireFrameLocked() {
  if (!free_frames_.empty()) {
    uint32_t fi = free_frames_.back();
    free_frames_.pop_back();
    return fi;
  }
  // Evict the least-recently-used unpinned page. Pinned (and therefore
  // guarded) frames are never on the LRU list, so evicting the victim
  // cannot race with a reader of its content.
  // All frames pinned => misconfigured buffer.
  REXP_CHECK(lru_tail_ != kNoFrame);
  uint32_t fi = lru_tail_;
  Frame& f = *frames_[fi];
  if (f.dirty) {
    // Write the victim out *before* dismantling its mapping: if the write
    // fails, the page stays buffered and dirty and the buffer is exactly
    // as it was.
    REXP_RETURN_IF_ERROR(file_->WritePage(f.id, f.page));
    ++stats_.writes;
    ++stats_.write_backs;
    ++stats_.evictions_dirty;
    f.dirty = false;
  } else {
    ++stats_.evictions_clean;
  }
  RemoveFromLruLocked(fi);
  frame_of_.erase(f.id);
  f.id = kInvalidPageId;
  f.accesses = 0;
  ++f.generation;
  return fi;
}

void BufferManager::TouchLocked(uint32_t frame_index) {
  Frame& f = *frames_[frame_index];
  if (f.pin_count > 0) return;  // Pinned pages are not on the LRU list.
  RemoveFromLruLocked(frame_index);
  f.lru_prev = kNoFrame;
  f.lru_next = lru_head_;
  if (lru_head_ != kNoFrame) frames_[lru_head_]->lru_prev = frame_index;
  lru_head_ = frame_index;
  if (lru_tail_ == kNoFrame) lru_tail_ = frame_index;
  f.in_lru = true;
}

void BufferManager::RemoveFromLruLocked(uint32_t frame_index) {
  Frame& f = *frames_[frame_index];
  if (!f.in_lru) return;
  if (f.lru_prev != kNoFrame) {
    frames_[f.lru_prev]->lru_next = f.lru_next;
  } else {
    lru_head_ = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    frames_[f.lru_next]->lru_prev = f.lru_prev;
  } else {
    lru_tail_ = f.lru_prev;
  }
  f.in_lru = false;
}

void BufferManager::PinFrameLocked(uint32_t frame_index) {
  Frame& f = *frames_[frame_index];
  ++stats_.pins;
  if (f.pin_count++ == 0) RemoveFromLruLocked(frame_index);
}

void BufferManager::UnpinFrameLocked(uint32_t frame_index) {
  Frame& f = *frames_[frame_index];
  REXP_CHECK(f.pin_count > 0);
  ++stats_.unpins;
  if (--f.pin_count == 0) TouchLocked(frame_index);
}

// NO_THREAD_SAFETY_ANALYSIS: capability hand-off — the latch acquired
// here is carried out of the function inside the returned PageGuard and
// released in ReleaseGuard, a flow the function-local analysis cannot
// follow. LockRank still tracks the hold at run time.
PageGuard BufferManager::MakeGuard(uint32_t fi, PageIntent intent)
    NO_THREAD_SAFETY_ANALYSIS {
  Frame& f = *frames_[fi];
  // The frame is pinned, so its binding and generation are stable here
  // even though pool_mu_ is no longer held.
  if (intent == PageIntent::kWrite) {
    f.latch.lock();
  } else {
    f.latch.lock_shared();
  }
  return PageGuard(this, fi, &f.page, f.id, intent, f.generation);
}

// NO_THREAD_SAFETY_ANALYSIS: releases the latch MakeGuard acquired (see
// there); the other half of the guard hand-off.
void BufferManager::ReleaseGuard(uint32_t fi, PageIntent intent)
    NO_THREAD_SAFETY_ANALYSIS {
  Frame& f = *frames_[fi];
  // Latch first, pool second — never the reverse (see header).
  if (intent == PageIntent::kWrite) {
    f.latch.unlock();
  } else {
    f.latch.unlock_shared();
  }
  sched::MutexLock lock(&pool_mu_);
  UnpinFrameLocked(fi);
}

void BufferManager::MarkDirtyFrame(uint32_t fi) {
  sched::MutexLock lock(&pool_mu_);
  frames_[fi]->dirty = true;
}

uint64_t BufferManager::FrameGeneration(uint32_t fi) const {
  sched::MutexLock lock(&pool_mu_);
  return frames_[fi]->generation;
}

}  // namespace rexp
