// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Live-tier benchmark: the same bursty report stream applied two ways —
// straight into the tree (bottom-up Update/Insert) and through
// TieredIndex, whose in-memory live tier absorbs the churn and
// bulk-migrates only the survivors (DESIGN.md §12). Reported as per-report
// latency percentiles (p50/p99, microseconds) plus the fraction of
// short-expiry records that died in the live tier without a single page
// touch, and exported as BENCH_livetier.json (REXP_BENCH_DIR redirects
// the output directory, as for the figure benchmarks).
//
// The workload is the tier's design case: a long-lived fleet re-reports
// in bursts, and each burst also carries one-shot reports with
// heavy-tailed short expirations (sensor blips, probe cars) that mostly
// die before any query would have found them. The stream is generated
// once, so both modes apply byte-identical reports in the same order;
// migration runs between bursts and is timed separately.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/vec.h"
#include "harness/bench_export.h"
#include "harness/experiment.h"
#include "livetier/tiered_index.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "storage/page_file.h"
#include "tree/tree.h"

namespace rexp {
namespace {

// One pre-generated report. Short-expiry reports are one-shot inserts;
// fleet reports replace `old_record`.
struct Report {
  ObjectId oid = 0;
  Tpbr<2> old_record;
  Tpbr<2> record;
  Time now = 0;
  bool is_short = false;
  bool is_insert = false;
};

struct Run {
  std::string mode;
  double seconds = 0;
  double migrate_seconds = 0;
  double reports_per_sec = 0;
  double p50_update_us = 0;
  double p99_update_us = 0;
  uint64_t page_io = 0;
};

double Percentile(std::vector<double>* sorted_into, double q) {
  std::vector<double>& v = *sorted_into;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

int Main() {
  const uint64_t num_objects = EnvU64("REXP_LT_OBJECTS", 5000);
  const uint64_t num_bursts = EnvU64("REXP_LT_BURSTS", 150);
  const uint64_t burst_reports = EnvU64("REXP_LT_BURST_REPORTS", 120);
  const uint64_t burst_shorts = EnvU64("REXP_LT_BURST_SHORTS", 30);

  // Measure the index, not the telemetry (counters stay on either way).
  obs::telemetry::SetEnabled(false);

  // Initial fleet, shared by both modes.
  Rng rng(41);
  Time now = 0.0;
  std::vector<Tpbr<2>> fleet(num_objects);
  for (uint64_t i = 0; i < num_objects; ++i) {
    Vec<2> pos{rng.Uniform(0, 1000.0), rng.Uniform(0, 1000.0)};
    Vec<2> vel{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    fleet[i] = MakeMovingPoint<2>(pos, vel, now, now + 120.0);
  }

  // Pre-generate the burst stream. Bursts are 0.5 logical seconds apart;
  // within a burst all reports share (nearly) one timestamp. Short-expiry
  // lifetimes are drawn from [0.5, 4): with migrate_age 2 the quiet tail
  // gets migrated, the rest die in the tier — the fraction below is an
  // honest measurement, not a foregone conclusion.
  std::vector<Tpbr<2>> last = fleet;
  std::vector<Report> stream;
  stream.reserve(num_bursts * (burst_reports + burst_shorts));
  ObjectId next_short = static_cast<ObjectId>(num_objects) + 1000000;
  uint64_t shorts_issued = 0;
  for (uint64_t b = 0; b < num_bursts; ++b) {
    now = 0.5 * static_cast<double>(b + 1);
    for (uint64_t r = 0; r < burst_reports; ++r) {
      ObjectId oid = static_cast<ObjectId>(rng.UniformInt(num_objects));
      Vec<2> pos, vel;
      for (int d = 0; d < 2; ++d) {
        pos[d] = last[oid].LoAt(d, now) + rng.Uniform(-0.5, 0.5);
        vel[d] = std::clamp<double>(last[oid].vlo[d] + rng.Uniform(-0.2, 0.2),
                                    -3.0, 3.0);
      }
      Tpbr<2> fresh = MakeMovingPoint<2>(pos, vel, now, now + 120.0);
      stream.push_back(Report{oid, last[oid], fresh, now, false, false});
      last[oid] = fresh;
    }
    for (uint64_t s = 0; s < burst_shorts; ++s) {
      Vec<2> pos{rng.Uniform(0, 1000.0), rng.Uniform(0, 1000.0)};
      Vec<2> vel{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
      Time life = rng.Uniform(0.5, 4.0);
      Tpbr<2> rec = MakeMovingPoint<2>(pos, vel, now, now + life);
      stream.push_back(Report{next_short++, Tpbr<2>{}, rec, now, true, true});
      ++shorts_issued;
    }
  }
  const Time end_now = now + 8.0;  // Past every short expiry.
  const uint64_t num_reports = stream.size();

  std::printf("=== livetier ===\n");
  std::printf(
      "%llu fleet objects, %llu bursts x (%llu re-reports + %llu shorts) "
      "= %llu reports\n",
      static_cast<unsigned long long>(num_objects),
      static_cast<unsigned long long>(num_bursts),
      static_cast<unsigned long long>(burst_reports),
      static_cast<unsigned long long>(burst_shorts),
      static_cast<unsigned long long>(num_reports));
  std::printf("%10s %10s %13s %10s %10s %10s\n", "mode", "seconds",
              "reports/sec", "p50 us", "p99 us", "page I/O");

  std::vector<Run> runs;
  double short_died_fraction = 0.0;
  uint64_t migration_batches = 0;

  for (int mode = 0; mode < 2; ++mode) {
    MemoryPageFile file(4096);
    TreeConfig config = TreeConfig::Rexp();
    std::vector<double> lat_us;
    lat_us.reserve(num_reports);
    Run run;
    run.mode = mode == 0 ? "tree_only" : "tiered";

    if (mode == 0) {
      RexpTree2 tree(config, &file);
      for (uint64_t i = 0; i < num_objects; ++i) {
        tree.Insert(static_cast<ObjectId>(i), fleet[i], 0.0);
      }
      const uint64_t io_before = tree.io_stats().Total();
      auto start = std::chrono::steady_clock::now();
      for (const Report& r : stream) {
        auto t0 = std::chrono::steady_clock::now();
        if (r.is_insert) {
          tree.Insert(r.oid, r.record, r.now);
        } else {
          (void)tree.Update(r.oid, r.old_record, r.record, r.now);
        }
        lat_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
      }
      run.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      run.page_io = tree.io_stats().Total() - io_before;
    } else {
      LiveTierOptions opts;
      opts.migrate_age = 2.0;
      TieredIndex<2> index(config, &file, opts);
      for (uint64_t i = 0; i < num_objects; ++i) {
        index.Insert(static_cast<ObjectId>(i), fleet[i], 0.0);
      }
      index.DrainLiveTier(0.0);  // Both modes start tree-resident.
      const uint64_t io_before = index.tree().io_stats().Total();
      Time burst_now = -1.0;
      auto start = std::chrono::steady_clock::now();
      double migrate_s = 0.0;
      for (const Report& r : stream) {
        if (r.now != burst_now) {
          // Between bursts: one migration tick, timed separately.
          burst_now = r.now;
          auto m0 = std::chrono::steady_clock::now();
          index.MigrateTick();
          migrate_s += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - m0)
                           .count();
        }
        auto t0 = std::chrono::steady_clock::now();
        if (r.is_insert) {
          index.Insert(r.oid, r.record, r.now);
        } else {
          (void)index.Update(r.oid, r.old_record, r.record, r.now);
        }
        lat_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
      }
      // Let every outstanding short expire in place.
      index.Insert(next_short, MakeMovingPoint<2>({500, 500}, {0, 0},
                                                  end_now, end_now + 120.0),
                   end_now);
      run.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      run.migrate_seconds = migrate_s;
      run.page_io = index.tree().io_stats().Total() - io_before;
      const LiveTier<2>::Stats stats = index.live_stats();
      short_died_fraction = shorts_issued == 0
                                ? 0.0
                                : static_cast<double>(stats.died_in_place) /
                                      static_cast<double>(shorts_issued);
      migration_batches = stats.migration_batches;
    }

    run.reports_per_sec = static_cast<double>(num_reports) / run.seconds;
    run.p50_update_us = Percentile(&lat_us, 0.50);
    run.p99_update_us = Percentile(&lat_us, 0.99);
    std::printf("%10s %10.4f %13.0f %10.2f %10.2f %10llu\n",
                run.mode.c_str(), run.seconds, run.reports_per_sec,
                run.p50_update_us, run.p99_update_us,
                static_cast<unsigned long long>(run.page_io));
    runs.push_back(run);
  }

  const double speedup_p99 =
      runs[1].p99_update_us == 0
          ? 0.0
          : runs[0].p99_update_us / runs[1].p99_update_us;
  std::printf("p99 speedup (tree-only / tiered): %.2fx\n", speedup_p99);
  std::printf("short-expiry died in tier: %.3f of %llu issued\n",
              short_died_fraction,
              static_cast<unsigned long long>(shorts_issued));
  std::fflush(stdout);

  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", "livetier");
  w.KV("objects", num_objects);
  w.KV("bursts", num_bursts);
  w.KV("reports", num_reports);
  w.KV("shorts_issued", shorts_issued);
  w.Key("runs").BeginArray();
  for (const Run& run : runs) {
    w.BeginObject();
    w.KV("mode", run.mode);
    w.KV("seconds", run.seconds);
    w.KV("migrate_seconds", run.migrate_seconds);
    w.KV("reports_per_sec", run.reports_per_sec);
    w.KV("p50_update_us", run.p50_update_us);
    w.KV("p99_update_us", run.p99_update_us);
    w.KV("page_io", run.page_io);
    w.EndObject();
  }
  w.EndArray();
  w.KV("speedup_p99", speedup_p99);
  w.KV("short_died_in_tier_fraction", short_died_fraction);
  w.KV("migration_batch_count", migration_batches);
  w.EndObject();

  if (Status s = WriteBenchJson("livetier", w.str()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rexp

int main() { return rexp::Main(); }
