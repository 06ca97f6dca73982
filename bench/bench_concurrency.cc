// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Multi-threaded query throughput benchmark: Tree::Search on a fig-style
// uniform workload at 1, 2, and 4 threads (the caller plus started
// threads, all pulling query indices from one shared cursor, each Search
// under its own shared epoch), reported as
// queries/second and speedup over single-threaded, exported as
// BENCH_concurrency.json (REXP_BENCH_DIR redirects the output directory,
// as for the figure benchmarks).
//
// The buffer pool is sized to hold the whole index (default 4096 frames)
// and warmed with one sequential pass, so the measurement isolates what
// the concurrency work actually parallelizes: page decode and predicate
// evaluation under shared frame latches, outside the pool mutex. A
// paper-sized 50-frame pool would serialize on miss I/O and measure the
// device model instead.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/query.h"
#include "common/random.h"
#include "common/vec.h"
#include "harness/bench_export.h"
#include "harness/experiment.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "storage/page_file.h"
#include "tree/tree.h"

namespace rexp {
namespace {

struct Run {
  int threads;
  double seconds;
  double queries_per_sec;
  double speedup;
};

int Main() {
  const uint64_t num_objects = EnvU64("REXP_CONC_OBJECTS", 20000);
  const uint64_t num_queries = EnvU64("REXP_CONC_QUERIES", 4000);
  const int reps = static_cast<int>(EnvU64("REXP_CONC_REPS", 3));
  const uint32_t frames = static_cast<uint32_t>(EnvU64("REXP_CONC_FRAMES", 4096));

  // Histogram samples serialize on an internal mutex; turn telemetry off
  // so the measurement is the index's concurrency, not the telemetry's.
  obs::telemetry::SetEnabled(false);

  Rng rng(1);
  const Time now = 0.0;
  MemoryPageFile file(4096);
  TreeConfig config = TreeConfig::Rexp();
  config.buffer_frames = frames;
  RexpTree2 tree(config, &file);

  // Uniform workload (paper Section 5.1's second data mode): positions
  // uniform in the 1000x1000 km space, per-axis speeds up to 3 km/min,
  // ExpT = 120 min.
  std::vector<RexpTree2::BulkRecord> records;
  records.reserve(num_objects);
  for (uint64_t i = 0; i < num_objects; ++i) {
    Vec<2> pos{rng.Uniform(0, 1000.0), rng.Uniform(0, 1000.0)};
    Vec<2> vel{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    records.push_back(RexpTree2::BulkRecord{
        static_cast<ObjectId>(i),
        MakeMovingPoint<2>(pos, vel, now, now + 120.0)});
  }
  tree.BulkLoad(std::move(records), now);

  // Paper query geometry: squares covering 0.25 % of the space (side 50),
  // window W = UI/2 = 30; type mix 0.6 / 0.2 / 0.2.
  constexpr double kSide = 50.0;
  constexpr double kWindow = 30.0;
  std::vector<Query<2>> queries;
  queries.reserve(num_queries);
  for (uint64_t i = 0; i < num_queries; ++i) {
    Vec<2> c1{rng.Uniform(0, 1000.0), rng.Uniform(0, 1000.0)};
    double t1 = now + rng.Uniform(0, kWindow);
    double pick = rng.Uniform(0, 1.0);
    if (pick < 0.6) {
      queries.push_back(Query<2>::Timeslice(Rect<2>::Cube(c1, kSide), t1));
    } else if (pick < 0.8) {
      double t2 = t1 + rng.Uniform(0, kWindow);
      queries.push_back(Query<2>::Window(Rect<2>::Cube(c1, kSide), t1, t2));
    } else {
      Vec<2> c2{c1[0] + rng.Uniform(-50.0, 50.0),
                c1[1] + rng.Uniform(-50.0, 50.0)};
      double t2 = t1 + rng.Uniform(0, kWindow);
      queries.push_back(Query<2>::Moving(Rect<2>::Cube(c1, kSide),
                                         Rect<2>::Cube(c2, kSide), t1, t2));
    }
  }

  // Answers every query on `threads` threads, the caller included, into
  // `results`.
  std::vector<std::vector<ObjectId>> results(queries.size());
  auto search_all = [&](int threads) {
    std::atomic<size_t> next{0};
    auto drain = [&] {
      for (size_t i = next++; i < queries.size(); i = next++) {
        results[i].clear();
        tree.Search(queries[i], &results[i]);
      }
    };
    std::vector<std::thread> helpers;
    for (int t = 1; t < threads; ++t) helpers.emplace_back(drain);
    drain();
    for (std::thread& helper : helpers) helper.join();
  };
  auto total_hits = [&results] {
    uint64_t hits = 0;
    for (const auto& result : results) hits += result.size();
    return hits;
  };

  // Warmup: faults the working set into the buffer and fixes the
  // expected total result count for the sanity check below.
  search_all(1);
  const uint64_t expected_hits = total_hits();

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("=== concurrency ===\n");
  std::printf(
      "%llu objects (bulk-loaded), %llu queries, %u-frame buffer, "
      "best of %d reps, %u hardware threads\n",
      static_cast<unsigned long long>(num_objects),
      static_cast<unsigned long long>(num_queries), frames, reps,
      hw_threads);
  if (hw_threads < 4) {
    std::printf(
        "note: fewer than 4 hardware threads; speedups reflect scheduling "
        "overhead only\n");
  }
  std::printf("%8s %12s %14s %9s\n", "threads", "seconds", "queries/sec",
              "speedup");

  std::vector<Run> runs;
  for (int threads : {1, 2, 4}) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      search_all(threads);
      std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      const uint64_t hits = total_hits();
      if (hits != expected_hits) {
        std::fprintf(stderr,
                     "result mismatch at %d threads: %llu hits, expected "
                     "%llu\n",
                     threads, static_cast<unsigned long long>(hits),
                     static_cast<unsigned long long>(expected_hits));
        return 1;
      }
      double qps = static_cast<double>(num_queries) / elapsed.count();
      if (qps > best) best = qps;
    }
    Run run;
    run.threads = threads;
    run.queries_per_sec = best;
    run.seconds = static_cast<double>(num_queries) / best;
    run.speedup = runs.empty() ? 1.0 : best / runs.front().queries_per_sec;
    runs.push_back(run);
    std::printf("%8d %12.4f %14.0f %8.2fx\n", run.threads, run.seconds,
                run.queries_per_sec, run.speedup);
  }
  std::fflush(stdout);

  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", "concurrency");
  w.KV("objects", num_objects);
  w.KV("queries", num_queries);
  w.KV("buffer_frames", static_cast<uint64_t>(frames));
  w.KV("hardware_threads", static_cast<uint64_t>(hw_threads));
  w.KV("avg_result_size",
       static_cast<double>(expected_hits) / static_cast<double>(num_queries));
  w.Key("runs").BeginArray();
  for (const Run& run : runs) {
    w.BeginObject();
    w.KV("threads", static_cast<uint64_t>(run.threads));
    w.KV("seconds", run.seconds);
    w.KV("queries_per_sec", run.queries_per_sec);
    w.KV("speedup", run.speedup);
    w.EndObject();
  }
  w.EndArray();
  w.KV("speedup_4_threads", runs.back().speedup);
  w.EndObject();

  if (Status s = WriteBenchJson("concurrency", w.str()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rexp

int main() { return rexp::Main(); }
