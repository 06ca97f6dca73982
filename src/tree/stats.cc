// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "tree/stats.h"

#include <cstdio>
#include <utility>

#include "tree/node.h"

namespace rexp {

template <int kDims>
StatusOr<TreeStats<kDims>> CollectStats(Tree<kDims>* tree, Time now) {
  TreeStats<kDims> stats;
  stats.height = tree->height();
  stats.pages = tree->PagesUsed();
  if (tree->root() == kInvalidPageId) return stats;

  stats.levels.assign(stats.height, LevelStats{});
  for (int l = 0; l < stats.height; ++l) stats.levels[l].level = l;

  struct Accumulator {
    double fill_sum = 0;
    double extent_sum = 0;
    double growth_sum = 0;
    uint64_t live_dims = 0;
  };
  std::vector<Accumulator> acc(stats.height);

  const bool expires = tree->config().expire_entries;
  REXP_RETURN_IF_ERROR(tree->ForEachNode([&](PageId, const Node<kDims>& node) {
    const int level = node.level;
    LevelStats& ls = stats.levels[level];
    Accumulator& a = acc[level];
    ls.nodes += 1;
    ls.entries += node.entries.size();
    a.fill_sum += static_cast<double>(node.entries.size()) /
                  tree->codec().Capacity(level);
    for (const NodeEntry<kDims>& e : node.entries) {
      if (expires && e.region.t_exp < now) continue;
      ls.live_entries += 1;
      for (int d = 0; d < kDims; ++d) {
        a.extent_sum += e.region.ExtentAt(d, now);
        a.growth_sum += e.region.vhi[d] - e.region.vlo[d];
        a.live_dims += 1;
      }
    }
  }));
  for (int l = 0; l < stats.height; ++l) {
    LevelStats& ls = stats.levels[l];
    if (ls.nodes > 0) {
      ls.avg_fill = acc[l].fill_sum / static_cast<double>(ls.nodes);
    }
    if (acc[l].live_dims > 0) {
      const double live_dims = static_cast<double>(acc[l].live_dims);
      ls.avg_extent = acc[l].extent_sum / live_dims;
      ls.avg_growth_rate = acc[l].growth_sum / live_dims;
    }
  }
  return stats;
}

template <int kDims>
std::string FormatStats(const TreeStats<kDims>& stats) {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line), "height %d, %llu pages\n", stats.height,
                static_cast<unsigned long long>(stats.pages));
  out += line;
  std::snprintf(line, sizeof(line), "%-6s %8s %9s %9s %7s %10s %9s\n",
                "level", "nodes", "entries", "live", "fill", "extent",
                "growth");
  out += line;
  for (auto it = stats.levels.rbegin(); it != stats.levels.rend(); ++it) {
    std::snprintf(line, sizeof(line),
                  "%-6d %8llu %9llu %9llu %6.1f%% %10.2f %9.3f\n", it->level,
                  static_cast<unsigned long long>(it->nodes),
                  static_cast<unsigned long long>(it->entries),
                  static_cast<unsigned long long>(it->live_entries),
                  100 * it->avg_fill, it->avg_extent, it->avg_growth_rate);
    out += line;
  }
  return out;
}

#define REXP_INSTANTIATE(D)                                    \
  template StatusOr<TreeStats<D>> CollectStats<D>(Tree<D>*, Time); \
  template std::string FormatStats<D>(const TreeStats<D>&);

REXP_INSTANTIATE(1)
REXP_INSTANTIATE(2)
REXP_INSTANTIATE(3)
#undef REXP_INSTANTIATE

}  // namespace rexp
