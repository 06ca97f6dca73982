// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// rexp_inspect: open a persisted R^exp-tree index file and print its
// structure — height, page usage, per-level fill and bounding-rectangle
// statistics, and the live/expired entry split at a given time.
//
//   $ ./inspect_index <index-file> [--now T] [--page-size N]
//                     [--json] [--metrics]
//
// --json emits the whole report as one JSON object (structure, per-level
// stats, horizon estimate, and the telemetry registry snapshot) instead
// of the human-readable text; --metrics emits only the registry snapshot,
// whose buffer and device counters include the open and the statistics
// walk. Opening checks the newest meta slot and every reachable page
// (checksum and node header); the statistics walk reads every page
// through the same checked decode. Exit 0 when both pass, 1 on damage
// (or an unopenable file), 2 on usage errors. The full invariant catalog
// is rexp_fsck's job; to follow an index another process is writing, run
// `watch -n 1 inspect_index <index-file>`. The file is only read: the
// tree commits on close only after a mutation, so it keeps its bytes.
//
// The configuration flags must match the ones the index was created with
// (defaults: the standard R^exp-tree configuration). Build an index to
// inspect with, e.g., the fleet_monitor example (which leaves
// /tmp/rexp_fleet_index.bin while it runs) or your own code using
// DiskPageFile.

#include <cstdio>
#include <cstring>
#include <string>

#include "common/parse.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "storage/page_file.h"
#include "tree/stats.h"
#include "tree/tree.h"

using namespace rexp;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <index-file> [--now T] [--page-size N] [--json] "
               "[--metrics]\n",
               argv0);
  return 2;
}

int Inspect(const std::string& path, Time now, uint32_t page_size, bool json,
            bool metrics_only) {
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  if (probe == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fclose(probe);

  auto file_or = DiskPageFile::Open(path, page_size, /*keep=*/true);
  if (!file_or.ok()) {
    std::fprintf(stderr, "%s\n", file_or.status().ToString().c_str());
    return 1;
  }
  auto file = std::move(file_or).value();
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = page_size;
  auto tree_or = Tree<2>::Open(config, file.get());
  if (!tree_or.ok()) {
    std::fprintf(stderr, "cannot open index: %s\n",
                 tree_or.status().ToString().c_str());
    return 1;
  }
  auto tree = std::move(tree_or).value();

  // The damage verdict: the statistics walk reads every reachable page.
  StatusOr<TreeStats<2>> stats = CollectStats(tree.get(), now);
  const Status verify = stats.status();

  if (metrics_only) {
    // Just the registry snapshot (the open and the statistics walk
    // already populated the device and buffer counters).
    obs::MetricsRegistry registry;
    tree->RegisterMetrics(&registry, "tree.");
    std::printf("%s\n", registry.ToJson().c_str());
    return verify.ok() ? 0 : 1;
  }

  if (json) {
    obs::JsonWriter w;
    w.BeginObject();
    w.KV("path", path);
    w.KV("page_size", static_cast<uint64_t>(page_size));
    w.KV("now", now);
    w.KV("meta_epoch", tree->meta_epoch());
    w.KV("meta_slot_errors", tree->meta_slot_errors());
    w.KV("verify_ok", verify.ok());
    if (!verify.ok()) w.KV("verify_error", verify.ToString());
    if (verify.ok()) {
      w.KV("height", stats->height);
      w.KV("pages", stats->pages);
      w.KV("total_entries", stats->TotalEntries());
      w.Key("levels").BeginArray();
      for (const LevelStats& l : stats->levels) {
        w.BeginObject();
        w.KV("level", l.level);
        w.KV("nodes", l.nodes);
        w.KV("entries", l.entries);
        w.KV("live_entries", l.live_entries);
        w.KV("avg_fill", l.avg_fill);
        w.KV("avg_extent", l.avg_extent);
        w.KV("avg_growth_rate", l.avg_growth_rate);
        w.EndObject();
      }
      w.EndArray();
      w.Key("horizon")
          .BeginObject()
          .KV("ui", tree->horizon().ui())
          .KV("w", tree->horizon().w())
          .KV("h", tree->horizon().DecisionHorizon())
          .EndObject();
      w.KV("expired_leaf_fraction", tree->ExpiredLeafFraction(now));
    }
    obs::MetricsRegistry registry;
    tree->RegisterMetrics(&registry, "tree.");
    w.Key("metrics").RawValue(registry.ToJson());
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return verify.ok() ? 0 : 1;
  }

  std::printf("index %s (page size %u)\n", path.c_str(), page_size);
  std::printf("metadata: epoch %llu",
              static_cast<unsigned long long>(tree->meta_epoch()));
  if (tree->meta_slot_errors() > 0) {
    std::printf(" (%d damaged meta slot%s ignored)", tree->meta_slot_errors(),
                tree->meta_slot_errors() == 1 ? "" : "s");
  }
  std::printf("\n");
  std::printf("page verification: %s\n",
              verify.ok() ? "OK (all checksums valid)"
                          : verify.ToString().c_str());
  if (!verify.ok()) {
    // The expired-fraction walk would abort on the corrupt page; stop at
    // the report.
    std::fflush(stdout);
    return 1;
  }
  std::printf("%s", FormatStats(*stats).c_str());
  std::printf("estimated update interval UI = %.2f (W = %.2f, H = %.2f)\n",
              tree->horizon().ui(), tree->horizon().w(),
              tree->horizon().DecisionHorizon());
  std::printf("expired leaf fraction at t=%.2f: %.2f%%\n", now,
              100 * tree->ExpiredLeafFraction(now));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  std::string path = argv[1];
  Time now = 0;
  uint32_t page_size = 4096;
  bool json = false;
  bool metrics_only = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_only = true;
    } else if (std::strcmp(argv[i], "--now") == 0 ||
               std::strcmp(argv[i], "--page-size") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s requires a value\n", argv[i]);
        return Usage(argv[0]);
      }
      if (std::strcmp(argv[i], "--now") == 0) {
        if (!ParseDouble(argv[i + 1], &now)) {
          std::fprintf(stderr, "--now requires a finite number, got '%s'\n",
                       argv[i + 1]);
          return Usage(argv[0]);
        }
      } else {
        if (!ParsePositiveU32(argv[i + 1], &page_size)) {
          std::fprintf(stderr,
                       "--page-size must be a positive integer, got '%s'\n",
                       argv[i + 1]);
          return Usage(argv[0]);
        }
      }
      ++i;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  return Inspect(path, now, page_size, json, metrics_only);
}
