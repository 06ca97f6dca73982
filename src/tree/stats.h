// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Index introspection: per-level structural statistics (node counts, fill
// factors, live fractions, aggregate bounding-rectangle geometry) and a
// human-readable dump. Used by operators/examples to understand index
// health — e.g. how much dead weight the lazy purge is currently carrying
// — and by tests as a coarse structural fingerprint.

#ifndef REXP_TREE_STATS_H_
#define REXP_TREE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "tree/tree.h"

namespace rexp {

struct LevelStats {
  int level = 0;
  uint64_t nodes = 0;
  uint64_t entries = 0;
  uint64_t live_entries = 0;
  double avg_fill = 0;        // entries / capacity, averaged over nodes.
  double avg_extent = 0;      // Mean per-dimension extent of live entry
                              // regions at the inspection time.
  double avg_growth_rate = 0; // Mean per-dimension extent growth (vhi-vlo).
};

template <int kDims>
struct TreeStats {
  int height = 0;
  uint64_t pages = 0;
  std::vector<LevelStats> levels;  // Leaf level first.

  uint64_t TotalEntries() const {
    uint64_t n = 0;
    for (const LevelStats& l : levels) n += l.entries;
    return n;
  }
};

// Walks the whole tree (unmeasured I/O pattern; intended for diagnostics,
// not hot paths) and aggregates statistics as of time `now`. The walk is
// Tree::ForEachNode's, with its checked decode: a page that fails to read
// or decode comes back as that error (kCorruption or kIOError).
template <int kDims>
StatusOr<TreeStats<kDims>> CollectStats(Tree<kDims>* tree, Time now);

// Renders the statistics as a small fixed-width report.
template <int kDims>
std::string FormatStats(const TreeStats<kDims>& stats);

}  // namespace rexp

#endif  // REXP_TREE_STATS_H_
