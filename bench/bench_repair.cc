// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Repair-path benchmark: how long the offline maintenance pipeline takes
// on a bulk-loaded on-disk index — a full verification pass over a clean
// file, an in-place repair of a seeded parent-bound corruption, and a
// whole-file salvage after both meta slots are destroyed. Timings and
// record-preservation counts are exported as BENCH_repair.json
// (REXP_BENCH_DIR redirects the output directory, as for the figure
// benchmarks). REXP_REPAIR_OBJECTS scales the index.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/vec.h"
#include "harness/bench_export.h"
#include "harness/experiment.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "storage/page_file.h"
#include "tree/meta_format.h"
#include "tree/node.h"
#include "tree/tree.h"
#include "verify/repair.h"
#include "verify/verifier.h"

namespace rexp {
namespace {

double Seconds(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       from)
      .count();
}

int Main() {
  const uint64_t num_objects = EnvU64("REXP_REPAIR_OBJECTS", 200000);
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = static_cast<uint32_t>(
      EnvU64("REXP_REPAIR_PAGE_SIZE", 4096));
  obs::telemetry::SetEnabled(false);

  const std::string dir = BenchDir();
  const std::string path = dir + "/bench_repair_index.bin";
  const std::string fresh_path = dir + "/bench_repair_salvaged.bin";

  // ---- Build: one bulk-loaded fleet, committed to disk. ----
  Time now = 0.0;
  {
    std::remove(path.c_str());
    auto file =
        DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
    auto tree = std::make_unique<Tree<2>>(config, file.get());
    Rng rng(7);
    std::vector<RexpTree2::BulkRecord> fleet;
    fleet.reserve(num_objects);
    for (uint64_t i = 0; i < num_objects; ++i) {
      Vec<2> pos{rng.Uniform(0, 1000.0), rng.Uniform(0, 1000.0)};
      Vec<2> vel{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
      fleet.push_back(RexpTree2::BulkRecord{
          static_cast<ObjectId>(i),
          MakeMovingPoint<2>(pos, vel, now, now + 120.0)});
    }
    tree->BulkLoad(std::move(fleet), now, 0.7);
  }

  verify::VerifyOptions verify_options;
  verify_options.now = now;

  // ---- Phase 1: verification pass over the clean index. ----
  double verify_seconds;
  uint64_t pages_walked, leaf_records;
  {
    auto file =
        DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
    const auto t0 = std::chrono::steady_clock::now();
    verify::Report report =
        verify::TreeVerifier<2>::VerifyFile(file.get(), config,
                                            verify_options);
    verify_seconds = Seconds(t0);
    pages_walked = report.pages_walked;
    leaf_records = report.leaf_records_checked;
    if (!report.ok()) {
      std::fprintf(stderr, "clean index has findings:\n%s",
                   report.ToString().c_str());
      return 1;
    }
  }

  // ---- Phase 2: in-place repair of a seeded parent-bound violation. ----
  double repair_seconds;
  uint64_t bounds_recomputed;
  {
    auto file =
        DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
    const bool seeded = verify::EditCommittedNode<2>(
        file.get(), config, 1, [](Node<2>* node) {
          node->entries[0].region.hi[0] = node->entries[0].region.lo[0];
          node->entries[0].region.vhi[0] = node->entries[0].region.vlo[0];
        });
    if (!seeded) {
      std::fprintf(stderr, "index too shallow to seed corruption\n");
      return 1;
    }

    verify::RepairOptions repair_options;
    repair_options.verify = verify_options;
    const auto t0 = std::chrono::steady_clock::now();
    auto report =
        verify::TreeRepairer<2>::Repair(file.get(), config, repair_options);
    repair_seconds = Seconds(t0);
    if (!report.ok() || !report.value().ok()) {
      std::fprintf(stderr, "repair failed\n");
      return 1;
    }
    bounds_recomputed = report.value().bounds_recomputed;
  }

  // ---- Phase 3: salvage after destroying both meta slots. ----
  double salvage_seconds;
  uint64_t records_salvaged, salvage_pages_scanned;
  {
    auto file =
        DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
    Page junk(config.page_size);
    std::memset(junk.data(), 0xa5, junk.size());
    for (PageId s = 0; s < kNumMetaSlots; ++s) {
      if (!file->WritePage(s, junk).ok()) return 1;
    }
    std::remove(fresh_path.c_str());
    auto fresh = DiskPageFile::Open(fresh_path, config.page_size,
                                    /*keep=*/true)
                     .value();
    verify::SalvageOptions salvage_options;
    salvage_options.now = now;
    salvage_options.verify = verify_options;
    std::vector<verify::QuarantinedPage> quarantine;
    const auto t0 = std::chrono::steady_clock::now();
    auto report = verify::TreeRepairer<2>::Salvage(
        file.get(), fresh.get(), config, salvage_options, &quarantine);
    salvage_seconds = Seconds(t0);
    if (!report.ok() || !report.value().ok()) {
      std::fprintf(stderr, "salvage failed\n");
      return 1;
    }
    records_salvaged = report.value().records_salvaged;
    salvage_pages_scanned = report.value().pages_scanned;
    if (records_salvaged != num_objects) {
      std::fprintf(stderr,
                   "salvage lost records: %llu of %llu recovered\n",
                   static_cast<unsigned long long>(records_salvaged),
                   static_cast<unsigned long long>(num_objects));
      return 1;
    }
  }
  std::remove(path.c_str());
  std::remove(fresh_path.c_str());

  std::printf("%12s %12s %14s\n", "phase", "seconds", "records/sec");
  std::printf("%12s %12.4f %14.0f\n", "verify", verify_seconds,
              static_cast<double>(leaf_records) / verify_seconds);
  std::printf("%12s %12.4f %14.0f\n", "repair", repair_seconds,
              static_cast<double>(leaf_records) / repair_seconds);
  std::printf("%12s %12.4f %14.0f\n", "salvage", salvage_seconds,
              static_cast<double>(records_salvaged) / salvage_seconds);
  std::fflush(stdout);

  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", "repair");
  w.KV("objects", num_objects);
  w.KV("page_size", static_cast<uint64_t>(config.page_size));
  w.KV("pages_walked", pages_walked);
  w.KV("leaf_records", leaf_records);
  w.KV("verify_seconds", verify_seconds);
  w.KV("repair_seconds", repair_seconds);
  w.KV("bounds_recomputed", bounds_recomputed);
  w.KV("salvage_seconds", salvage_seconds);
  w.KV("salvage_pages_scanned", salvage_pages_scanned);
  w.KV("records_salvaged", records_salvaged);
  w.EndObject();

  if (Status s = WriteBenchJson("repair", w.str()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rexp

int main() { return rexp::Main(); }
