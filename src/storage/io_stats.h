// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Buffer-pool accounting. The paper's headline metrics are the I/O counts
// measured at the buffer-manager boundary: a read is counted when a page
// is fetched and misses the buffer; a write is counted when a dirty page
// is flushed (at the end of an index operation or on eviction). Those two
// counters (`reads`, `writes`) are unchanged; the rest break the pool's
// behavior down for the telemetry layer — cache effectiveness (hits vs
// misses), replacement pressure (clean vs dirty evictions), and pinning
// discipline.
//
// The counters are relaxed atomics so that concurrent readers (shared
// tree epochs, see DESIGN.md §8) can bump them without tearing and the
// metrics registry can sample them from another thread. Relaxed ordering
// is enough: each counter is an independent monotone event count, never
// used to synchronize other memory. Readers load one field at a time;
// cross-field consistency of reads taken mid-operation is not guaranteed
// and not needed.
//
// `kCounters` is the one list of the counters: Reset walks it, and
// BufferManager::RegisterMetrics binds each entry as `buffer.<name>`.

#ifndef REXP_STORAGE_IO_STATS_H_
#define REXP_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"

namespace rexp {

struct IoStats {
  // The paper's metrics.
  std::atomic<uint64_t> reads{0};   // Device reads on fetch misses.
  std::atomic<uint64_t> writes{0};  // Device writes: flushes + write-backs.

  // Cache effectiveness. `hits + misses` counts every Fetch; a miss is
  // counted when the lookup fails, even if the subsequent device read
  // errors (so `misses >= reads` under I/O errors).
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};

  // Replacement. An eviction is a frame reclaimed from the LRU list;
  // dirty victims additionally cost one write-back (counted both in
  // `write_backs` and in `writes`). Flush-path writes are
  // `writes - write_backs`.
  std::atomic<uint64_t> evictions_clean{0};
  std::atomic<uint64_t> evictions_dirty{0};
  std::atomic<uint64_t> write_backs{0};

  // Pinning. Counts pin/unpin events, not distinct pages: both the
  // legacy Pin/Unpin calls and the implicit pin every PageGuard holds
  // for its lifetime.
  std::atomic<uint64_t> pins{0};
  std::atomic<uint64_t> unpins{0};

  // Pages whose write-back failed in FlushDirty. The flush returns the
  // first error, but this counter makes a swallowed flush failure
  // visible in telemetry (`buffer.flush_errors`).
  std::atomic<uint64_t> flush_errors{0};

  static constexpr obs::NamedField<IoStats, std::atomic<uint64_t>>
      kCounters[] = {{"reads", &IoStats::reads},
                     {"writes", &IoStats::writes},
                     {"hits", &IoStats::hits},
                     {"misses", &IoStats::misses},
                     {"evictions_clean", &IoStats::evictions_clean},
                     {"evictions_dirty", &IoStats::evictions_dirty},
                     {"write_backs", &IoStats::write_backs},
                     {"pins", &IoStats::pins},
                     {"unpins", &IoStats::unpins},
                     {"flush_errors", &IoStats::flush_errors}};

  uint64_t Total() const { return reads + writes; }

  double HitRate() const {
    uint64_t h = hits, m = misses;
    uint64_t fetches = h + m;
    return fetches == 0
               ? 0
               : static_cast<double>(h) / static_cast<double>(fetches);
  }

  void Reset() {
    for (const auto& [name, counter] : kCounters) {
      (this->*counter).store(0, std::memory_order_relaxed);
    }
  }
};

}  // namespace rexp

#endif  // REXP_STORAGE_IO_STATS_H_
