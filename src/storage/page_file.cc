// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "storage/page_file.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/check.h"
#include "common/crc32c.h"

#if defined(_WIN32)
#define REXP_FSEEK64 _fseeki64
#define REXP_FTELL64 _ftelli64
using rexp_off_t = long long;
#else
#include <unistd.h>
#define REXP_FSEEK64 fseeko
#define REXP_FTELL64 ftello
using rexp_off_t = off_t;
#endif

namespace rexp {

static_assert(std::endian::native == std::endian::little,
              "Page accessors assume a little-endian host.");

namespace {

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Frame CRC covers the whole frame with the CRC field itself zeroed.
uint32_t FrameCrc(const uint8_t* frame, uint32_t frame_size) {
  uint32_t crc = Crc32c(frame, kFrameCrcOffset);
  const uint8_t zeros[4] = {0, 0, 0, 0};
  crc = Crc32c(zeros, 4, crc);
  crc = Crc32c(frame + kFrameCrcOffset + 4, frame_size - kFrameCrcOffset - 4,
               crc);
  return crc;
}

bool AllZero(const uint8_t* p, size_t n) {
  return std::all_of(p, p + n, [](uint8_t b) { return b == 0; });
}

std::string Errno() { return std::strerror(errno); }

// Sleeps for the exponential-backoff delay before retry number `retry`
// (1-based): initial * multiplier^(retry-1), capped. A zero-initial policy
// retries immediately (how tests keep retry paths fast).
void BackoffSleep(const RetryPolicy& policy, uint32_t retry) {
  double us = static_cast<double>(policy.backoff_initial_us);
  for (uint32_t i = 1; i < retry; ++i) us *= policy.backoff_multiplier;
  us = std::min(us, static_cast<double>(policy.backoff_max_us));
  if (us >= 1.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(us)));
  }
}

}  // namespace

StatusOr<PageId> PageFile::Allocate() {
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    ++allocated_;
    return id;
  }
  const PageId id = static_cast<PageId>(capacity_);
  REXP_RETURN_IF_ERROR(GrowDevice(id));
  ++capacity_;
  ++allocated_;
  return id;
}

void PageFile::Free(PageId id) {
  REXP_CHECK(id != kInvalidPageId && id < capacity_);
  REXP_CHECK(allocated_ > 0);
  --allocated_;
  if (deferred_free_) {
    deferred_.push_back(id);
  } else {
    free_list_.push_back(id);
  }
}

void PageFile::PublishDeferredFrees() {
  free_list_.insert(free_list_.end(), deferred_.begin(), deferred_.end());
  deferred_.clear();
}

void PageFile::RestoreFreeList(std::vector<PageId> ids, uint64_t leaked) {
  for (PageId id : ids) {
    REXP_CHECK(id < capacity_);
  }
  REXP_CHECK(ids.size() + leaked <= capacity_);
  // Absolute restore: every page not on the free list is allocated
  // (leaked pages included). Idempotent for in-process re-opens, correct
  // for device re-opens where everything started out "allocated".
  free_list_ = std::move(ids);
  deferred_.clear();
  allocated_ = capacity_ - free_list_.size();
  leaked_ = leaked;
}

void PageFile::RegisterMetrics(obs::MetricsRegistry* registry,
                               const std::string& prefix,
                               obs::OwnerId owner) const {
  for (const auto& [name, counter] : DeviceStats::kCounters) {
    registry->AddCounter(prefix + "device." + name, &(device_stats_.*counter),
                         owner);
  }
  for (const auto& [name, histogram] : DeviceStats::kHistograms) {
    registry->AddHistogram(prefix + "device." + name,
                           &(device_stats_.*histogram), owner);
  }
}

Status PageFile::ReadPage(PageId id, Page* page) {
  Status s = ReadPageAttempt(id, page);
  // Retry both kIOError and kCorruption: a transiently garbled transfer
  // surfaces as a checksum failure, and only a reread can tell it from
  // real rot (which keeps failing until the budget runs out).
  for (uint32_t retry = 1; !s.ok() && retry <= retry_policy_.max_retries;
       ++retry) {
    ++device_stats_.read_retries;
    BackoffSleep(retry_policy_, retry);
    s = ReadPageAttempt(id, page);
  }
  if (!s.ok() && retry_policy_.max_retries > 0) ++device_stats_.read_giveups;
  return s;
}

Status PageFile::ReadPageAttempt(PageId id, Page* page) {
  REXP_CHECK(id < capacity_);
  REXP_CHECK(page->size() == page_size_);
  frame_scratch_.resize(frame_size());
  ++device_stats_.frame_reads;
  {
    obs::LatencyTimer timer(&device_stats_.read_latency_us);
    Status s = ReadFrame(id, frame_scratch_.data());
    if (!s.ok()) {
      if (s.IsIOError()) {
        ++device_stats_.read_errors;
      } else {
        ++device_stats_.checksum_failures;
      }
      return s;
    }
  }
  const uint8_t* frame = frame_scratch_.data();
  const uint32_t magic = GetU32(frame + kFrameMagicOffset);
  if (magic != kPageFrameMagic) {
    // A frame that is zero end-to-end is a page that was allocated (the
    // device grew) but never written — it legitimately reads as zeros.
    // Any nonzero byte under a bad magic means the frame was damaged
    // (torn write, misdirected write, rot).
    if (magic == 0 && AllZero(frame, frame_size())) {
      std::memset(page->data(), 0, page_size_);
      return Status::OK();
    }
    ++device_stats_.checksum_failures;
    return Status::Corruption("page " + std::to_string(id) +
                              ": bad frame magic");
  }
  const uint32_t stamp = GetU32(frame + kFramePageIdOffset);
  if (stamp != id) {
    ++device_stats_.checksum_failures;
    return Status::Corruption("page " + std::to_string(id) +
                              ": frame stamped for page " +
                              std::to_string(stamp) + " (misdirected write)");
  }
  const uint32_t stored_crc = GetU32(frame + kFrameCrcOffset);
  if (stored_crc != FrameCrc(frame, frame_size())) {
    ++device_stats_.checksum_failures;
    return Status::Corruption("page " + std::to_string(id) +
                              ": checksum mismatch");
  }
  std::memcpy(page->data(), frame + kPageHeaderSize, page_size_);
  return Status::OK();
}

Status PageFile::WritePage(PageId id, const Page& page) {
  Status s = WritePageAttempt(id, page);
  // Writes only fail with kIOError (validation happens on read), so any
  // failure here is worth the bounded retry.
  for (uint32_t retry = 1; !s.ok() && retry <= retry_policy_.max_retries;
       ++retry) {
    ++device_stats_.write_retries;
    BackoffSleep(retry_policy_, retry);
    s = WritePageAttempt(id, page);
  }
  if (!s.ok() && retry_policy_.max_retries > 0) ++device_stats_.write_giveups;
  return s;
}

Status PageFile::WritePageAttempt(PageId id, const Page& page) {
  REXP_CHECK(id < capacity_);
  REXP_CHECK(page.size() == page_size_);
  frame_scratch_.resize(frame_size());
  uint8_t* frame = frame_scratch_.data();
  PutU32(frame + kFrameMagicOffset, kPageFrameMagic);
  PutU32(frame + kFramePageIdOffset, id);
  PutU32(frame + kFrameCrcOffset, 0);
  PutU32(frame + kFrameReservedOffset, 0);
  std::memcpy(frame + kPageHeaderSize, page.data(), page_size_);
  PutU32(frame + kFrameCrcOffset, FrameCrc(frame, frame_size()));
  ++device_stats_.frame_writes;
  obs::LatencyTimer timer(&device_stats_.write_latency_us);
  Status s = WriteFrame(id, frame);
  if (!s.ok()) ++device_stats_.write_errors;
  return s;
}

// --- MemoryPageFile ----------------------------------------------------

Status MemoryPageFile::ReadFrame(PageId id, uint8_t* frame) {
  REXP_CHECK(id < frames_.size());
  std::memcpy(frame, frames_[id].data(), frame_size());
  return Status::OK();
}

Status MemoryPageFile::WriteFrame(PageId id, const uint8_t* frame) {
  REXP_CHECK(id < frames_.size());
  std::memcpy(frames_[id].data(), frame, frame_size());
  return Status::OK();
}

Status MemoryPageFile::GrowDevice(PageId id) {
  REXP_CHECK(id == frames_.size());
  frames_.emplace_back(frame_size(), 0);
  return Status::OK();
}

// --- DiskPageFile ------------------------------------------------------

StatusOr<std::unique_ptr<DiskPageFile>> DiskPageFile::Open(
    const std::string& path, uint32_t page_size, bool keep) {
  // Re-open an existing file without truncation; create it otherwise.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    f = std::fopen(path.c_str(), "w+b");
  }
  if (f == nullptr) {
    return Status::IOError("open '" + path + "': " + Errno());
  }
  auto file = std::unique_ptr<DiskPageFile>(
      new DiskPageFile(path, page_size, keep, f));
  if (REXP_FSEEK64(f, 0, SEEK_END) != 0) {
    return Status::IOError("seek to end of '" + path + "': " + Errno());
  }
  const auto end = REXP_FTELL64(f);
  if (end < 0) {
    return Status::IOError("tell '" + path + "': " + Errno());
  }
  // A trailing partial frame — the signature of a grow torn by a crash —
  // is ignored: capacity is the number of *complete* frames. Recovery
  // reconciles page bookkeeping against the persisted index metadata.
  const uint64_t pages = static_cast<uint64_t>(end) / file->frame_size();
  file->capacity_ = pages;
  // Every existing page is treated as allocated until the index restores
  // its persisted free list.
  file->RestoreAllocated(pages);
  return file;
}

DiskPageFile::~DiskPageFile() {
  if (file_ != nullptr) {
    Status s = Sync();
    if (!s.ok()) {
      std::fprintf(stderr, "DiskPageFile '%s': flush on close failed: %s\n",
                   path_.c_str(), s.ToString().c_str());
    }
    if (std::fclose(file_) != 0) {
      std::fprintf(stderr, "DiskPageFile '%s': close failed: %s\n",
                   path_.c_str(), Errno().c_str());
    }
  }
  if (!keep_) std::remove(path_.c_str());
}

Status DiskPageFile::Sync() {
  if (std::fflush(file_) != 0) {
    return Status::IOError("flush '" + path_ + "': " + Errno());
  }
#if !defined(_WIN32)
  if (fsync(fileno(file_)) != 0) {
    return Status::IOError("fsync '" + path_ + "': " + Errno());
  }
#endif
  return Status::OK();
}

Status DiskPageFile::SeekTo(PageId id) {
  const uint64_t offset = static_cast<uint64_t>(id) * frame_size();
  if (REXP_FSEEK64(file_, static_cast<rexp_off_t>(offset), SEEK_SET) != 0) {
    return Status::IOError("seek to page " + std::to_string(id) + " in '" +
                           path_ + "': " + Errno());
  }
  return Status::OK();
}

Status DiskPageFile::ReadFrame(PageId id, uint8_t* frame) {
  REXP_RETURN_IF_ERROR(SeekTo(id));
  const size_t n = std::fread(frame, 1, frame_size(), file_);
  if (n != frame_size()) {
    if (std::ferror(file_)) {
      std::clearerr(file_);
      return Status::IOError("read page " + std::to_string(id) + " from '" +
                             path_ + "': " + Errno());
    }
    // EOF mid-frame: part of the frame is simply gone (e.g. the file was
    // truncated inside it). The device worked; the data did not survive.
    return Status::Corruption("read page " + std::to_string(id) + " from '" +
                              path_ + "': short read (" + std::to_string(n) +
                              " of " + std::to_string(frame_size()) +
                              " bytes)");
  }
  return Status::OK();
}

Status DiskPageFile::WriteFrame(PageId id, const uint8_t* frame) {
  REXP_RETURN_IF_ERROR(SeekTo(id));
  const size_t n = std::fwrite(frame, 1, frame_size(), file_);
  if (n != frame_size()) {
    std::clearerr(file_);
    return Status::IOError("write page " + std::to_string(id) + " to '" +
                           path_ + "': short write (" + std::to_string(n) +
                           " of " + std::to_string(frame_size()) +
                           " bytes): " + Errno());
  }
  return Status::OK();
}

Status DiskPageFile::GrowDevice(PageId id) {
  // Extend the file with a zero frame so subsequent reads are
  // well-defined (an all-zero frame reads back as a fresh zero page).
  std::vector<uint8_t> zeros(frame_size(), 0);
  return WriteFrame(id, zeros.data());
}

}  // namespace rexp
