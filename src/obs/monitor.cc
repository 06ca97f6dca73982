// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "obs/monitor.h"

#include <cstdlib>

#include <unistd.h>

#include "common/check.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace rexp::obs {

Monitor::Monitor(const MetricsRegistry* registry, Options options)
    : registry_(registry), options_(std::move(options)) {
  REXP_CHECK(registry_ != nullptr);
  if (options_.interval_s <= 0) options_.interval_s = 0.1;
  if (options_.dir.empty()) {
    const char* env = std::getenv("REXP_MONITOR_DIR");
    options_.dir = (env != nullptr && env[0] != '\0') ? env : ".";
  }
}

Monitor::~Monitor() { Stop(); }

Status Monitor::OpenStream() {
  sched::MutexLock lock(&mu_);
  if (file_ != nullptr) {
    return Status::FailedPrecondition("monitor stream already open");
  }
  path_ = options_.dir + "/monitor_" + options_.name + "_" +
          std::to_string(::getpid()) + ".jsonl";
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("open monitor stream '" + path_ + "'");
  }
  file_ = f;

  JsonWriter meta;
  meta.BeginObject();
  meta.KV("v", 1);
  meta.Key("type").Value("monitor_meta");
  meta.KV("pid", static_cast<int64_t>(::getpid()));
  meta.KV("interval_s", options_.interval_s);
  meta.Key("name").Value(options_.name);
  meta.EndObject();
  std::fputs(meta.str().c_str(), file_);
  std::fputc('\n', file_);

  epoch_ = std::chrono::steady_clock::now();
  last_sample_ = epoch_;
  seq_ = 0;
  prev_counters_.clear();
  prev_hists_.clear();
  SampleLocked();  // seq-0 baseline.
  return Status::OK();
}

Status Monitor::Start() {
  {
    sched::MutexLock lock(&mu_);
    if (running_) return Status::FailedPrecondition("monitor already running");
  }
  REXP_RETURN_IF_ERROR(OpenStream());
  sched::MutexLock lock(&mu_);
  running_ = true;
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void Monitor::Stop() {
  std::thread to_join;
  {
    sched::MutexLock lock(&mu_);
    if (running_) {
      running_ = false;
      cv_.NotifyAll();
      to_join = std::move(thread_);
    }
  }
  if (to_join.joinable()) to_join.join();
  sched::MutexLock lock(&mu_);
  if (file_ != nullptr) {
    SampleLocked();  // Final sample so short runs still show activity.
    std::fclose(file_);
    file_ = nullptr;
  }
}

void Monitor::SampleNow() {
  sched::MutexLock lock(&mu_);
  if (file_ == nullptr) return;
  SampleLocked();
}

void Monitor::AddJsonProvider(std::string key,
                              std::function<std::string()> fn) {
  sched::MutexLock lock(&mu_);
  providers_.emplace_back(std::move(key), std::move(fn));
}

void Monitor::Run() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.interval_s));
  sched::MutexLock lock(&mu_);
  while (running_) {
    // Timed wait doubles as the stop signal: Stop() notifies under mu_.
    if (cv_.WaitFor(mu_, interval,
                    [this]() REQUIRES(mu_) { return !running_; })) {
      break;
    }
    if (file_ != nullptr) SampleLocked();
  }
}

void Monitor::SampleLocked() {
  const auto now = std::chrono::steady_clock::now();
  const double dt =
      std::chrono::duration<double>(now - last_sample_).count();
  const auto wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - epoch_)
          .count();

  std::vector<MetricSample> counters = registry_->Snapshot();
  std::vector<HistogramSnapshot> hists = registry_->SnapshotHistograms();

  JsonWriter w;
  w.BeginObject();
  w.KV("v", 1);
  w.Key("type").Value("sample");
  w.KV("seq", seq_);
  w.KV("wall_ms", static_cast<int64_t>(wall_ms));
  w.KV("dt_s", dt);

  w.Key("counters").BeginObject();
  for (const MetricSample& s : counters) {
    if (s.is_counter) w.KV(s.name.c_str(), s.value);
  }
  w.EndObject();

  // Rates: delta / dt per counter, matched by name against the previous
  // sample (bindings can come and go between samples as components
  // register/unregister). seq 0 has no previous sample -> empty.
  w.Key("rates").BeginObject();
  if (dt > 0 && !prev_counters_.empty()) {
    for (const MetricSample& s : counters) {
      if (!s.is_counter) continue;
      for (const MetricSample& p : prev_counters_) {
        if (p.is_counter && p.name == s.name) {
          // A counter below its previous sample was re-registered (its
          // owner cycled) or reset; rating the difference would emit a
          // huge negative spike. Rate it as if it restarted from zero.
          const double d = s.value >= p.value ? s.value - p.value : s.value;
          w.KV(s.name.c_str(), d / dt);
          break;
        }
      }
    }
  }
  w.EndObject();

  w.Key("gauges").BeginObject();
  for (const MetricSample& s : counters) {
    if (!s.is_counter) w.KV(s.name.c_str(), s.value);
  }
  w.EndObject();

  // Interval histograms: percentiles over this interval's bucket deltas.
  w.Key("hist").BeginObject();
  for (const HistogramSnapshot& h : hists) {
    const HistogramSnapshot* prev = nullptr;
    for (const HistogramSnapshot& p : prev_hists_) {
      if (p.name == h.name) {
        prev = &p;
        break;
      }
    }
    std::vector<uint64_t> delta = h.bucket_counts;
    uint64_t delta_count = h.count;
    double delta_sum = h.sum;
    if (prev != nullptr && prev->bucket_counts.size() == delta.size()) {
      // A histogram Reset() between samples shows up as a cumulative
      // count, sum, or bucket going backwards — possibly after regrowing
      // past the previous count, so the count alone cannot be trusted.
      // Subtracting across a reset would emit clamped-garbage buckets
      // and a negative mean; treat the cumulative state as this
      // interval's delta instead (the interval since the reset).
      bool regressed = h.count < prev->count || h.sum < prev->sum;
      for (size_t i = 0; !regressed && i < delta.size(); ++i) {
        if (h.bucket_counts[i] < prev->bucket_counts[i]) regressed = true;
      }
      if (!regressed) {
        for (size_t i = 0; i < delta.size(); ++i) {
          delta[i] -= prev->bucket_counts[i];
        }
        delta_count = h.count - prev->count;
        delta_sum = h.sum - prev->sum;
      }
    }
    // A quiet interval (or an all-zero histogram) contributes no "hist"
    // entry at all rather than a zero-count object with NaN percentiles.
    if (delta_count == 0) continue;
    w.Key(h.name.c_str()).BeginObject();
    w.KV("count", delta_count);
    w.KV("mean", delta_sum / static_cast<double>(delta_count));
    w.KV("p50", PercentileFromBuckets(h.bounds, delta, 0.50, 0.0));
    w.KV("p90", PercentileFromBuckets(h.bounds, delta, 0.90, 0.0));
    w.KV("p99", PercentileFromBuckets(h.bounds, delta, 0.99, 0.0));
    w.EndObject();
  }
  w.EndObject();

  for (const auto& [key, fn] : providers_) {
    w.Key(key.c_str()).RawValue(fn());
  }
  w.EndObject();

  std::fputs(w.str().c_str(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);

  prev_counters_ = std::move(counters);
  prev_hists_ = std::move(hists);
  last_sample_ = now;
  ++seq_;
}

}  // namespace rexp::obs
