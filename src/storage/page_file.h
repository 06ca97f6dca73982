// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Page files: the raw storage devices under the buffer manager. Two
// implementations are provided:
//
//   * MemoryPageFile — pages live in memory. This is the default for the
//     experiments: the paper's metric is the I/O *count*, not device
//     latency, and the count is taken at the buffer-manager boundary, so a
//     memory-backed device reproduces the measurements exactly while
//     keeping runs fast.
//   * DiskPageFile — pages live in an ordinary file (stdio), demonstrating
//     that the index is a genuine external-memory structure.
//
// Durability layering. Every page is stored as a *frame*: a 16-byte header
// (magic, page-id stamp, CRC-32C) followed by the page payload. The base
// class implements ReadPage/WritePage on top of the virtual frame-transfer
// interface (ReadFrame/WriteFrame/GrowDevice) that concrete devices
// provide; it seals the header on every write and verifies it on every
// read, so bit rot, torn writes, and misdirected writes surface as typed
// kCorruption errors instead of silently decoded garbage. Device failures
// surface as kIOError. An entirely zero frame is accepted as a fresh
// (never written) page and reads back as zeros.
//
// Because checksums are applied in the base class *above* the frame
// interface, a fault-injecting decorator (FaultInjectionPageFile) can
// corrupt frames below the checksum layer and the corruption is detected
// exactly as device-level corruption would be.
//
// Both implementations maintain a free list so that deallocated pages
// (subtrees dropped by the lazy expiration purge) are reused before the
// file grows. With set_deferred_free(true), freed pages are quarantined
// until PublishDeferredFrees() — the hook crash-consistent index commits
// use so that pages referenced by the last durable metadata are never
// reused (and thus never overwritten) before the next commit.

#ifndef REXP_STORAGE_PAGE_FILE_H_
#define REXP_STORAGE_PAGE_FILE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "storage/page.h"

namespace rexp {

// Device-level telemetry, kept by the PageFile base class across every
// checksummed transfer (ReadPage/WritePage), decorators included. The
// error counters split failures by kind: `read_errors`/`write_errors`
// count device failures (kIOError), `checksum_failures` counts frames
// that transferred but failed validation (kCorruption: bad magic,
// misdirected-write stamp, CRC mismatch, short read). Latency histograms
// are recorded in microseconds around the raw frame transfer — beneath
// the checksum work, so they measure the device — and only when runtime
// telemetry is enabled.
// Counters are relaxed atomics so concurrent fetch misses (serialized at
// the buffer pool, but sampled by the metrics registry from other
// threads) never tear; see io_stats.h for the ordering rationale.
struct DeviceStats {
  std::atomic<uint64_t> frame_reads{0};
  std::atomic<uint64_t> frame_writes{0};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> write_errors{0};
  std::atomic<uint64_t> checksum_failures{0};
  // Transient-fault retry accounting (see RetryPolicy): attempts repeated
  // after a failure, and operations that still failed with the retry
  // budget exhausted.
  std::atomic<uint64_t> read_retries{0};
  std::atomic<uint64_t> write_retries{0};
  std::atomic<uint64_t> read_giveups{0};
  std::atomic<uint64_t> write_giveups{0};
  obs::Histogram read_latency_us{obs::LatencyBoundsUs()};
  obs::Histogram write_latency_us{obs::LatencyBoundsUs()};

  // The one list of each member type: Reset walks both, and
  // PageFile::RegisterMetrics binds each entry as `device.<name>`.
  static constexpr obs::NamedField<DeviceStats, std::atomic<uint64_t>>
      kCounters[] = {{"frame_reads", &DeviceStats::frame_reads},
                     {"frame_writes", &DeviceStats::frame_writes},
                     {"read_errors", &DeviceStats::read_errors},
                     {"write_errors", &DeviceStats::write_errors},
                     {"checksum_failures", &DeviceStats::checksum_failures},
                     {"read_retries", &DeviceStats::read_retries},
                     {"write_retries", &DeviceStats::write_retries},
                     {"read_giveups", &DeviceStats::read_giveups},
                     {"write_giveups", &DeviceStats::write_giveups}};
  static constexpr obs::NamedField<DeviceStats, obs::Histogram>
      kHistograms[] = {{"read_latency_us", &DeviceStats::read_latency_us},
                       {"write_latency_us", &DeviceStats::write_latency_us}};

  void Reset() {
    for (const auto& [name, counter] : kCounters) {
      (this->*counter).store(0, std::memory_order_relaxed);
    }
    for (const auto& [name, histogram] : kHistograms) {
      (this->*histogram).Reset();
    }
  }
};

// Bounded retry-with-exponential-backoff for flaky devices. Applied by
// ReadPage/WritePage around the whole frame transfer + validation:
// a failed attempt is retried up to `max_retries` times, sleeping
// backoff_initial_us * backoff_multiplier^k (capped at backoff_max_us)
// between attempts. Reads retry on both kIOError (the device balked) and
// kCorruption (the transfer may have garbled a frame that is fine on the
// platter — a reread distinguishes transient garbling from real rot,
// which simply keeps failing until the budget runs out). Writes retry on
// kIOError only. The default policy performs no retries, preserving
// fail-fast semantics; the caller sets a policy on the device
// (set_retry_policy).
struct RetryPolicy {
  uint32_t max_retries = 0;  // Extra attempts after the first failure.
  uint32_t backoff_initial_us = 100;
  double backoff_multiplier = 2.0;
  uint32_t backoff_max_us = 10000;
};

// Bytes of frame header preceding each page payload on the device.
inline constexpr uint32_t kPageHeaderSize = 16;

// Frame header field offsets.
inline constexpr uint32_t kFrameMagicOffset = 0;
inline constexpr uint32_t kFramePageIdOffset = 4;
inline constexpr uint32_t kFrameCrcOffset = 8;
inline constexpr uint32_t kFrameReservedOffset = 12;

// "RXPG" little-endian: identifies a sealed rexp page frame.
inline constexpr uint32_t kPageFrameMagic = 0x47505852;

// Abstract page device. Not thread-safe; the index structures are
// single-writer by design (as in the paper's experimental setup).
class PageFile {
 public:
  virtual ~PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  uint32_t page_size() const { return page_size_; }

  // Bytes per on-device frame (header + payload).
  uint32_t frame_size() const { return page_size_ + kPageHeaderSize; }

  // Allocates a page (reusing a freed one if possible) and returns its id.
  // The page's previous contents are unspecified. Fails with kIOError if
  // the device cannot grow.
  StatusOr<PageId> Allocate();

  // Returns `id` to the free list (or, in deferred mode, to the
  // quarantine). The page must be allocated.
  void Free(PageId id);

  // Deferred-free mode: while enabled, Free() quarantines pages instead of
  // making them reusable; PublishDeferredFrees() releases the quarantine
  // to the free list. Crash-consistent commits publish right before
  // writing metadata so that no page referenced by the previous durable
  // metadata is ever reused mid-epoch.
  void set_deferred_free(bool on) { deferred_free_ = on; }
  void PublishDeferredFrees();
  uint64_t deferred_free_pages() const { return deferred_.size(); }

  // Number of pages currently allocated (excludes freed pages).
  uint64_t allocated_pages() const { return allocated_; }

  // Total number of page slots the file has ever grown to.
  uint64_t capacity_pages() const { return capacity_; }

  // The current free list (pages returned by Free and not yet reused;
  // excludes quarantined deferred frees). Index structures persist it in
  // their metadata so that reopening a file resumes page reuse.
  const std::vector<PageId>& free_list() const { return free_list_; }

  // Restores a previously persisted free list. `leaked` counts pages that
  // were free at save time but did not fit in the persisted metadata;
  // they stay allocated-but-unreachable. Only meaningful right after
  // re-opening, before any allocation.
  void RestoreFreeList(std::vector<PageId> ids, uint64_t leaked);

  // Pages permanently lost to free-list truncation across re-opens.
  uint64_t leaked_pages() const { return leaked_; }

  // Device telemetry (see DeviceStats).
  const DeviceStats& device_stats() const { return device_stats_; }
  void ResetDeviceStats() { device_stats_.Reset(); }

  // Binds every DeviceStats counter and histogram as
  // `prefix` + "device.<name>" under `owner`. The caller holds the
  // owner's ScopedRegistration and must drop it before this file dies.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix, obs::OwnerId owner) const;

  // Transient-fault retry policy applied by ReadPage/WritePage (see
  // RetryPolicy). The default performs no retries. Not thread-safe: the
  // caller sets it on the device before the device is shared.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

  // Checksummed page transfer. `page->size()` must equal page_size() and
  // `id` must be allocated-or-free within capacity (anything else is a
  // programming error). Returns kCorruption if the stored frame fails
  // validation, kIOError on device failure.
  Status ReadPage(PageId id, Page* page);
  Status WritePage(PageId id, const Page& page);

  // Pushes buffered device state toward durability (fflush/fsync for disk
  // files; a no-op for memory files).
  virtual Status Sync() { return Status::OK(); }

  // --- Device-level frame transfer ------------------------------------
  // Raw frames of frame_size() bytes, no validation. Public so that
  // decorators (fault injection) and recovery tooling can operate below
  // the checksum layer; normal clients use ReadPage/WritePage.
  virtual Status ReadFrame(PageId id, uint8_t* frame) = 0;
  virtual Status WriteFrame(PageId id, const uint8_t* frame) = 0;

  // Extends the device by one frame (id == current device extent),
  // zero-filled.
  virtual Status GrowDevice(PageId id) = 0;

 protected:
  explicit PageFile(uint32_t page_size) : page_size_(page_size) {}

  // Marks all `n` existing pages as allocated (device re-open).
  void RestoreAllocated(uint64_t n) { allocated_ = n; }

  uint64_t capacity_ = 0;

 private:
  // One checksummed transfer attempt (the bodies ReadPage/WritePage retry
  // around, per retry_policy_).
  Status ReadPageAttempt(PageId id, Page* page);
  Status WritePageAttempt(PageId id, const Page& page);

  const uint32_t page_size_;
  RetryPolicy retry_policy_;
  std::vector<PageId> free_list_;
  std::vector<PageId> deferred_;
  bool deferred_free_ = false;
  uint64_t allocated_ = 0;
  uint64_t leaked_ = 0;
  DeviceStats device_stats_;
  // Scratch frame for ReadPage/WritePage (the device is single-threaded
  // by contract; reusing the buffer avoids a heap allocation per I/O).
  std::vector<uint8_t> frame_scratch_;
};

// Memory-backed page file.
class MemoryPageFile final : public PageFile {
 public:
  explicit MemoryPageFile(uint32_t page_size) : PageFile(page_size) {}

  Status ReadFrame(PageId id, uint8_t* frame) override;
  Status WriteFrame(PageId id, const uint8_t* frame) override;
  Status GrowDevice(PageId id) override;

 private:
  std::vector<std::vector<uint8_t>> frames_;
};

// Stdio-backed page file. Open() creates a new file if `path` does not
// exist and re-opens an existing file with its pages intact (which is how
// an index persisted by a previous process is brought back). A trailing
// partial frame — the signature of a write torn by a crash while the file
// was growing — is tolerated and ignored: capacity is the number of
// *complete* frames. The file is removed on destruction unless `keep` is
// set.
//
// File offsets are 64-bit (fseeko/ftello), so files larger than 2 GiB are
// addressed correctly.
class DiskPageFile final : public PageFile {
 public:
  // Fails with kIOError if the file cannot be opened or its size cannot
  // be determined.
  static StatusOr<std::unique_ptr<DiskPageFile>> Open(
      const std::string& path, uint32_t page_size, bool keep = false);

  ~DiskPageFile() override;

  Status Sync() override;

  Status ReadFrame(PageId id, uint8_t* frame) override;
  Status WriteFrame(PageId id, const uint8_t* frame) override;
  Status GrowDevice(PageId id) override;

 private:
  DiskPageFile(const std::string& path, uint32_t page_size, bool keep,
               std::FILE* file)
      : PageFile(page_size), path_(path), file_(file), keep_(keep) {}

  Status SeekTo(PageId id);

  std::string path_;
  std::FILE* file_;
  bool keep_;
};

}  // namespace rexp

#endif  // REXP_STORAGE_PAGE_FILE_H_
