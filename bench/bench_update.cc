// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Update-path benchmark: the same position re-report stream applied three
// ways — the classic delete+insert sequence, the bottom-up Update API,
// and batched GroupUpdate — each on a freshly bulk-loaded tree, reported
// as updates/second and speedup over delete+insert and exported as
// BENCH_update.json (REXP_BENCH_DIR redirects the output directory, as
// for the figure benchmarks).
//
// The workload is the paper's update-dominated steady state: a uniform
// fleet (1000 x 1000 km space, per-axis speeds up to 3 km/min, ExpT =
// 120 min) where each re-report lands near the object's predicted
// position with a bounded heading change. The stream is generated once,
// so all three modes apply byte-identical requests in the same order.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

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

struct TimedRequest {
  RexpTree2::UpdateRequest request;
  Time now;
};

struct Run {
  std::string mode;
  double seconds = 0;
  double updates_per_sec = 0;
  double speedup = 1.0;
};

int Main() {
  const uint64_t num_objects = EnvU64("REXP_UPD_OBJECTS", 20000);
  const uint64_t num_updates = EnvU64("REXP_UPD_UPDATES", 40000);
  const int reps = static_cast<int>(EnvU64("REXP_UPD_REPS", 3));
  const uint64_t batch_size = EnvU64("REXP_UPD_BATCH", 64);

  // Measure the index, not the telemetry (counters stay on either way).
  obs::telemetry::SetEnabled(false);

  // Initial fleet, shared by every mode and rep.
  Rng rng(7);
  Time now = 0.0;
  std::vector<RexpTree2::BulkRecord> fleet;
  fleet.reserve(num_objects);
  for (uint64_t i = 0; i < num_objects; ++i) {
    Vec<2> pos{rng.Uniform(0, 1000.0), rng.Uniform(0, 1000.0)};
    Vec<2> vel{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    fleet.push_back(RexpTree2::BulkRecord{
        static_cast<ObjectId>(i),
        MakeMovingPoint<2>(pos, vel, now, now + 120.0)});
  }

  // Pre-generate the re-report stream. The time step keeps the whole
  // stream well inside one ExpT lifetime, so every old record is still
  // live when its update arrives and the three modes see identical work.
  const double dt = 40.0 / static_cast<double>(num_updates);
  std::vector<Tpbr<2>> last(num_objects);
  for (uint64_t i = 0; i < num_objects; ++i) last[i] = fleet[i].point;
  std::vector<TimedRequest> stream;
  stream.reserve(num_updates);
  for (uint64_t i = 0; i < num_updates; ++i) {
    now += dt;
    ObjectId oid = static_cast<ObjectId>(rng.UniformInt(num_objects));
    Vec<2> pos, vel;
    for (int d = 0; d < 2; ++d) {
      pos[d] = last[oid].LoAt(d, now) + rng.Uniform(-0.5, 0.5);
      vel[d] = std::clamp<double>(last[oid].vlo[d] + rng.Uniform(-0.2, 0.2),
                                  -3.0, 3.0);
    }
    Tpbr<2> fresh = MakeMovingPoint<2>(pos, vel, now, now + 120.0);
    stream.push_back(
        TimedRequest{RexpTree2::UpdateRequest{oid, last[oid], fresh}, now});
    last[oid] = fresh;
  }

  enum Mode { kDeleteInsert = 0, kBottomUp = 1, kGroup = 2 };
  const char* kModeNames[] = {"delete_insert", "bottom_up", "group"};

  std::printf("=== update ===\n");
  std::printf(
      "%llu objects (bulk-loaded), %llu re-reports, batch %llu, best of "
      "%d reps\n",
      static_cast<unsigned long long>(num_objects),
      static_cast<unsigned long long>(num_updates),
      static_cast<unsigned long long>(batch_size), reps);
  std::printf("%15s %12s %14s %9s\n", "mode", "seconds", "updates/sec",
              "speedup");

  std::vector<Run> runs;
  double fast_path_rate = 0.0;
  for (Mode mode : {kDeleteInsert, kBottomUp, kGroup}) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      MemoryPageFile file(4096);
      TreeConfig config = TreeConfig::Rexp();
      RexpTree2 tree(config, &file);
      std::vector<RexpTree2::BulkRecord> records = fleet;
      tree.BulkLoad(std::move(records), 0.0);
      tree.ResetOpStats();

      auto start = std::chrono::steady_clock::now();
      switch (mode) {
        case kDeleteInsert:
          for (const TimedRequest& t : stream) {
            (void)tree.Delete(t.request.oid, t.request.old_record, t.now);
            tree.Insert(t.request.oid, t.request.new_record, t.now);
          }
          break;
        case kBottomUp:
          for (const TimedRequest& t : stream) {
            (void)tree.Update(t.request.oid, t.request.old_record,
                        t.request.new_record, t.now);
          }
          break;
        case kGroup:
          for (size_t i = 0; i < stream.size(); i += batch_size) {
            size_t end = std::min(stream.size(), i + batch_size);
            std::vector<RexpTree2::UpdateRequest> batch;
            batch.reserve(end - i);
            for (size_t j = i; j < end; ++j) {
              batch.push_back(stream[j].request);
            }
            // A batch spans a short time window; apply it at the time of
            // its newest request (times are non-decreasing).
            (void)tree.GroupUpdate(batch, stream[end - 1].now);
          }
          break;
      }
      std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      double ups = static_cast<double>(num_updates) / elapsed.count();
      if (ups > best) best = ups;
      if (mode == kBottomUp && rep == 0) {
        const TreeOpStats& ops = tree.op_stats();
        uint64_t updates = ops.updates.load();
        fast_path_rate =
            updates == 0 ? 0.0
                         : static_cast<double>(ops.update_fast.load()) /
                               static_cast<double>(updates);
      }
    }
    Run run;
    run.mode = kModeNames[mode];
    run.updates_per_sec = best;
    run.seconds = static_cast<double>(num_updates) / best;
    run.speedup =
        runs.empty() ? 1.0 : best / runs.front().updates_per_sec;
    runs.push_back(run);
    std::printf("%15s %12.4f %14.0f %8.2fx\n", run.mode.c_str(),
                run.seconds, run.updates_per_sec, run.speedup);
  }
  std::printf("fast-path rate: %.3f\n", fast_path_rate);
  std::fflush(stdout);

  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", "update");
  w.KV("objects", num_objects);
  w.KV("updates", num_updates);
  w.KV("batch_size", batch_size);
  w.Key("runs").BeginArray();
  for (const Run& run : runs) {
    w.BeginObject();
    w.KV("mode", run.mode);
    w.KV("seconds", run.seconds);
    w.KV("updates_per_sec", run.updates_per_sec);
    w.KV("speedup", run.speedup);
    w.EndObject();
  }
  w.EndArray();
  w.KV("speedup_bottom_up", runs[1].speedup);
  w.KV("speedup_group", runs[2].speedup);
  w.KV("fast_path_rate", fast_path_rate);
  w.EndObject();

  if (Status s = WriteBenchJson("update", w.str()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rexp

int main() { return rexp::Main(); }
