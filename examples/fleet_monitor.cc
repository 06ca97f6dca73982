// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Fleet telemetry monitor: vehicles moving on a road network between
// cities (the paper's workload scenario) report position/velocity when
// their movement changes; a dispatcher repeatedly asks "which vehicles
// will be inside this service region during the next few minutes?"
// (window queries) and tracks a convoy with a moving query.
//
// The index is stored in an ordinary file on disk and re-opened midway to
// demonstrate persistence.
//
//   $ ./fleet_monitor [minutes]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/parse.h"
#include "storage/page_file.h"
#include "tree/tree.h"
#include "workload/generator.h"
#include "workload/workload_spec.h"

using namespace rexp;

int main(int argc, char** argv) {
  double minutes = 180.0;
  if (argc > 1 && !ParsePositiveDouble(argv[1], &minutes)) {
    std::fprintf(stderr, "usage: %s [minutes]\n", argv[0]);
    return 2;
  }

  // The paper's network scenario, scaled to a dispatch fleet: 2,000
  // vehicles, reports paced at ~15-minute intervals, telemetry trusted
  // for 30 minutes.
  WorkloadSpec spec;
  spec.target_objects = 2000;
  spec.total_insertions = 1000000;  // Run until the clock says stop.
  spec.ui = 15;
  spec.exp_t = 30;
  spec.insertions_per_query = 1u << 31;  // We issue our own queries.
  spec.seed = 99;

  std::string path = "/tmp/rexp_fleet_index.bin";
  std::remove(path.c_str());
  auto file = DiskPageFile::Open(path, 4096, /*keep=*/true).value();
  auto tree = std::make_unique<RexpTree2>(TreeConfig::Rexp(), file.get());

  WorkloadGenerator fleet(spec);
  Operation op;
  Time now = 0;
  double next_dispatch = 20;
  bool reopened = false;
  uint64_t reports = 0;

  // The dispatcher's service region: a 120 km square around the middle of
  // the map.
  Rect<2> region = Rect<2>::Cube({500, 500}, 120);

  std::vector<ObjectId> hits;
  while (fleet.Next(&op) && op.time < minutes) {
    now = op.time;
    switch (op.kind) {
      case Operation::Kind::kInsert:
        tree->Insert(op.oid, op.record, now);
        ++reports;
        break;
      case Operation::Kind::kUpdate:
        // Stale (expired) telemetry may already be gone; that is fine.
        (void)tree->Delete(op.oid, op.old_record, now);
        tree->Insert(op.oid, op.record, now);
        ++reports;
        break;
      case Operation::Kind::kQuery:
        break;  // Not generated (see insertions_per_query above).
    }

    if (now >= next_dispatch) {
      next_dispatch += 20;

      // Which vehicles will touch the service region in the next 10 min?
      hits.clear();
      tree->Search(Query<2>::Window(region, now, now + 10), &hits);
      uint64_t io = tree->io_stats().Total();
      std::printf(
          "t=%6.1f  fleet reports=%6llu  entries=%5llu (%4.1f%% stale)  "
          "region hits(10min)=%3zu  cumulative I/O=%llu\n",
          now, static_cast<unsigned long long>(reports),
          static_cast<unsigned long long>(tree->leaf_entries()),
          100 * tree->ExpiredLeafFraction(now).value(), hits.size(),
          static_cast<unsigned long long>(io));

      // Track one vehicle from the answer with a moving query: who will be
      // near it over the next 5 minutes (escort candidates)?
      if (!hits.empty()) {
        // A 30 km box following the region center as a simple convoy path.
        Rect<2> from = Rect<2>::Cube({470, 500}, 30);
        Rect<2> to = Rect<2>::Cube({530, 500}, 30);
        std::vector<ObjectId> escort;
        tree->Search(Query<2>::Moving(from, to, now, now + 5), &escort);
        std::printf("          convoy corridor: %zu candidate escorts\n",
                    escort.size());
      }

      // Halfway through, tear the index down and re-open it from disk.
      if (!reopened && now >= minutes / 2) {
        reopened = true;
        tree.reset();  // Flushes nodes and metadata.
        tree = std::make_unique<RexpTree2>(TreeConfig::Rexp(), file.get());
        std::printf("          -- index re-opened from %s (%llu pages) --\n",
                    path.c_str(),
                    static_cast<unsigned long long>(tree->PagesUsed()));
      }
    }
  }

  std::printf("\nfinal: %llu vehicle reports indexed, %llu pages on disk\n",
              static_cast<unsigned long long>(reports),
              static_cast<unsigned long long>(tree->PagesUsed()));
  tree.reset();
  file.reset();
  std::remove(path.c_str());
  return 0;
}
