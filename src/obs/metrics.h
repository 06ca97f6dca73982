// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Telemetry value types: counters, gauges, and fixed-bucket histograms
// with percentile readout. The index structures embed these directly in
// their stats structs, so the hot path is a plain member increment — no
// name lookup. Naming happens only at snapshot time, via MetricsRegistry.
//
// Overhead model, by layer:
//   * Counters are one 64-bit add each (a relaxed atomic add where the
//     owning stats struct is shared across reader threads) and are always
//     compiled in: the paper's I/O counts are a functional metric (the
//     experiment harness depends on them), not optional telemetry.
//   * Histogram::Record and trace emission are telemetry proper. They are
//     gated by the cheap runtime flag (telemetry::Enabled(), one branch on
//     a global flag) and removed entirely — bodies compile to nothing —
//     when REXP_NO_TELEMETRY is defined (cmake -DREXP_NO_TELEMETRY=ON).
//     When enabled, Record additionally takes the histogram's internal
//     mutex so concurrent reader epochs stay race-free.
//   * Latency timing additionally pays a steady_clock read per measured
//     section; LatencyTimer skips the clock when telemetry is disabled.

#ifndef REXP_OBS_METRICS_H_
#define REXP_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "sched/mutex.h"

namespace rexp::obs {

namespace telemetry {

#ifdef REXP_NO_TELEMETRY
constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}
#else
// Process-wide runtime switch; intentionally a mutable global (one branch
// on the hot path is the whole design).
// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
inline std::atomic<bool> g_enabled{true};

inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
inline void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}
#endif

}  // namespace telemetry

// One entry of a stats struct's field list: the metric name (without the
// layer prefix) and the member it reads. Each stats struct keeps one list
// per member type, and both its Reset and its registration walk that list,
// so every counter is named exactly once.
template <typename Stats, typename T>
using NamedField = std::pair<const char*, T Stats::*>;

// Interpolated quantile q in [0, 1] from one histogram's bucket counts
// (`bounds` as Histogram's): the value at rank q * total, interpolated
// linearly within the bucket holding that rank. `first_lo` is the first
// bucket's lower edge; the overflow bucket reports the last bound, i.e.
// percentiles saturate there. 0 when the counts are all zero.
// Histogram::Percentile reads its own buckets through it; the monitor
// feeds it interval deltas.
inline double PercentileFromBuckets(const std::vector<double>& bounds,
                                    const std::vector<uint64_t>& counts,
                                    double q, double first_lo) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  const double last = bounds.empty() ? 0.0 : bounds.back();
  uint64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double lo = b == 0 ? first_lo : bounds[b - 1];
    const double hi = b < bounds.size() ? bounds[b] : last;
    seen += counts[b];
    if (static_cast<double>(seen) >= rank) {
      const double frac = 1.0 - (static_cast<double>(seen) - rank) /
                                    static_cast<double>(counts[b]);
      return lo + (hi - lo) * frac;
    }
  }
  return last;
}

// Fixed-bucket histogram. `bounds` are inclusive upper bounds of the
// first N buckets; one implicit overflow bucket catches everything above
// the last bound. Tracks count/sum/min/max exactly; percentiles are read
// out by linear interpolation within the containing bucket (the overflow
// bucket reports its lower edge, i.e. percentiles saturate at the last
// finite bound).
//
// Thread safety: Record and every reader serialize on an internal mutex,
// so histograms embedded in stats structs stay consistent when shared
// tree epochs record from several reader threads (DESIGN.md §8). The
// lock is taken after the telemetry-enabled branch, so a disabled
// histogram still costs only the branch.
class Histogram {
 public:
  // A bound-less histogram still tracks count/sum/min/max (one overflow
  // bucket holds everything).
  Histogram() : counts_(1, 0) {}
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double v) {
#ifndef REXP_NO_TELEMETRY
    if (!telemetry::Enabled()) return;
    sched::MutexLock lock(&mu_);
    size_t b = std::upper_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
    // upper_bound treats bounds as exclusive; make them inclusive.
    if (b > 0 && bounds_[b - 1] == v) --b;
    ++counts_[b];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
#else
    (void)v;
#endif
  }

  uint64_t count() const {
    sched::MutexLock lock(&mu_);
    return count_;
  }
  double sum() const {
    sched::MutexLock lock(&mu_);
    return sum_;
  }
  double min() const {
    sched::MutexLock lock(&mu_);
    return MinLocked();
  }
  double max() const {
    sched::MutexLock lock(&mu_);
    return MaxLocked();
  }
  double mean() const {
    sched::MutexLock lock(&mu_);
    return MeanLocked();
  }

  // Value at quantile q in [0, 1], interpolated within the bucket that
  // holds the q-th recorded sample (PercentileFromBuckets, the first
  // bucket starting at the smallest sample) and clamped to the recorded
  // range. 0 when empty.
  double Percentile(double q) const {
    sched::MutexLock lock(&mu_);
    if (count_ == 0) return 0;
    if (bounds_.empty())
      return std::clamp(MeanLocked(), MinLocked(), MaxLocked());
    const double v = PercentileFromBuckets(
        bounds_, counts_, q, std::min(MinLocked(), bounds_[0]));
    return std::clamp(v, MinLocked(), MaxLocked());
  }

  void Reset() {
    sched::MutexLock lock(&mu_);
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
  }

  // Snapshots (copies): consistent even while other threads record.
  std::vector<double> bounds() const {
    sched::MutexLock lock(&mu_);
    return bounds_;
  }
  std::vector<uint64_t> bucket_counts() const {
    sched::MutexLock lock(&mu_);
    return counts_;
  }

 private:
  double MinLocked() const REQUIRES(mu_) { return count_ ? min_ : 0; }
  double MaxLocked() const REQUIRES(mu_) { return count_ ? max_ : 0; }
  double MeanLocked() const REQUIRES(mu_) {
    return count_ ? sum_ / static_cast<double>(count_) : 0;
  }

  mutable sched::Mutex mu_{sched::LockRank::kLeaf, "histogram"};
  std::vector<double> bounds_ GUARDED_BY(mu_);
  std::vector<uint64_t> counts_ GUARDED_BY(mu_);
  uint64_t count_ GUARDED_BY(mu_) = 0;
  double sum_ GUARDED_BY(mu_) = 0;
  double min_ GUARDED_BY(mu_) = std::numeric_limits<double>::infinity();
  double max_ GUARDED_BY(mu_) = -std::numeric_limits<double>::infinity();
};

// `n` bucket bounds start, start*factor, start*factor^2, ...
inline std::vector<double> ExponentialBounds(double start, double factor,
                                             int n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double v = start;
  for (int i = 0; i < n; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

// Microsecond latency buckets: 1 µs .. ~8.4 s in powers of two.
inline std::vector<double> LatencyBoundsUs() {
  return ExponentialBounds(1.0, 2.0, 24);
}

// Per-operation I/O-count buckets: 1 .. 4096 pages in powers of two
// (bucket 0 additionally catches buffer-resident operations with 0 I/Os).
inline std::vector<double> IoCountBounds() {
  std::vector<double> bounds = ExponentialBounds(1.0, 2.0, 13);
  bounds.insert(bounds.begin(), 0.0);
  return bounds;
}

// Measures the wall time of a scope into a histogram, in microseconds.
// Reads the clock only when telemetry is enabled at construction.
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram* h)
      : h_(telemetry::Enabled() ? h : nullptr) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

  // Microseconds elapsed so far; 0 when telemetry was disabled at
  // construction (no clock was read). Lets callers reuse the one timer
  // for secondary sinks (the flight recorder) without a second clock pair.
  double ElapsedUs() const {
    if (h_ == nullptr) return 0;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    return static_cast<double>(ns) * 1e-3;
  }

  ~LatencyTimer() {
    if (h_ == nullptr) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    h_->Record(static_cast<double>(ns) * 1e-3);
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rexp::obs

#endif  // REXP_OBS_METRICS_H_
