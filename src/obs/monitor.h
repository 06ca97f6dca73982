// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// obs::Monitor: the continuous profiler. A background thread snapshots a
// MetricsRegistry at a fixed interval, computes per-interval deltas and
// rates for every registered counter, re-derives per-interval latency
// percentiles from histogram bucket-count deltas, and appends one JSON
// line per sample to a time-series file under REXP_MONITOR_DIR. rexp_top
// tails that stream; scripts/extract_results.py consumes it offline.
//
// Stream schema (version 1), one object per line:
//   {"v":1,"type":"monitor_meta","pid":N,"interval_s":X,"name":"..."}
//   {"v":1,"type":"sample","seq":K,"wall_ms":N,"dt_s":X,
//    "counters":{name:total,...},         <- cumulative values
//    "rates":{name:per_second,...},       <- (delta / dt) per counter
//    "gauges":{name:x,...},
//    "hist":{name:{"count":n,"p50":x,"p90":x,"p99":x,"mean":x},...},
//    ["extra_key":<raw json>,...]}        <- AddJsonProvider output
// `hist` entries cover only the *interval*: count is the bucket-delta
// count and percentiles are interpolated from the delta buckets, so p99
// is the tail of the last dt seconds, not of the whole run. Histograms
// with no new samples in the interval are omitted from `hist`.
//
// Overhead: sampling cost is proportional to the number of bindings and
// entirely off the hot path — operations never wait on the monitor (the
// registry mutex is held only while copying values). At the default
// 100 ms interval against a fully-registered Tree the sampler uses well
// under 1% of one core; see DESIGN.md §7 for measured numbers.

#ifndef REXP_OBS_MONITOR_H_
#define REXP_OBS_MONITOR_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/registry.h"
#include "sched/mutex.h"

namespace rexp::obs {

class Monitor {
 public:
  struct Options {
    // Sampling period. The acceptance soak runs at the 100 ms default.
    double interval_s = 0.1;
    // Output directory; empty means $REXP_MONITOR_DIR, falling back to
    // the current directory.
    std::string dir;
    // Stream name baked into the file name and meta line.
    std::string name = "rexp";
  };

  // The registry must outlive the monitor. Components may keep
  // registering/unregistering while the monitor runs.
  Monitor(const MetricsRegistry* registry, Options options);

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // Stops and joins the sampler thread, flushing the stream.
  ~Monitor();

  // Opens monitor_<name>_<pid>.jsonl in the output directory, writes the
  // meta line and the seq-0 baseline sample, and starts the sampler
  // thread. Fails if already started or the file cannot be opened.
  Status Start() EXCLUDES(mu_);

  // Stops the sampler thread (taking one final sample) and closes the
  // stream. Idempotent.
  void Stop() EXCLUDES(mu_);

  // Takes one sample immediately from the calling thread. Usable without
  // Start() after OpenStream(), and with the thread running (samples
  // serialize internally). Tests and --once tooling.
  void SampleNow() EXCLUDES(mu_);

  // Opens the stream and writes meta + baseline without starting the
  // thread; SampleNow() then drives sampling manually.
  Status OpenStream() EXCLUDES(mu_);

  // Registers an extra top-level key whose value is the provider's raw
  // JSON output (must be a complete JSON value). Used for the buffer
  // heatmap. Call before Start()/OpenStream().
  void AddJsonProvider(std::string key, std::function<std::string()> fn)
      EXCLUDES(mu_);

  // Full path of the stream file (valid after Start()/OpenStream()).
  const std::string& path() const { return path_; }

  uint64_t samples() const EXCLUDES(mu_) {
    sched::MutexLock lock(&mu_);
    return seq_;
  }

 private:
  void Run() EXCLUDES(mu_);
  void SampleLocked() REQUIRES(mu_);

  const MetricsRegistry* registry_;
  Options options_;
  // Written once in OpenStream(), before the sampler thread exists and
  // before SampleNow() is usable; read-only afterwards, so path() can
  // hand out a reference without the lock.
  std::string path_;

  // kMonitor is the top of the lock order: SampleLocked() snapshots the
  // registry (kRegistry) — and through its callbacks the component locks
  // below that — while holding mu_.
  mutable sched::Mutex mu_{sched::LockRank::kMonitor, "monitor"};
  sched::CondVar cv_;
  std::FILE* file_ GUARDED_BY(mu_) = nullptr;
  bool running_ GUARDED_BY(mu_) = false;
  uint64_t seq_ GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point epoch_ GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point last_sample_ GUARDED_BY(mu_);
  std::vector<MetricSample> prev_counters_ GUARDED_BY(mu_);
  std::vector<HistogramSnapshot> prev_hists_ GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::function<std::string()>>>
      providers_ GUARDED_BY(mu_);
  std::thread thread_ GUARDED_BY(mu_);  // Joined outside mu_ after move-out.
};

}  // namespace rexp::obs

#endif  // REXP_OBS_MONITOR_H_
