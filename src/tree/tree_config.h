// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Configuration of the tree engine. A single parameterized engine covers
// the whole design space studied in the paper: the R^exp-tree (all four
// finite-lifetime TPBR types, expiration recorded or not, ChooseSubtree
// honoring or ignoring expiration times) and the TPR-tree baseline
// (conservative rectangles, no expiration semantics, R*'s overlap-
// enlargement heuristic).

#ifndef REXP_TREE_TREE_CONFIG_H_
#define REXP_TREE_TREE_CONFIG_H_

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/types.h"
#include "tpbr/tpbr.h"

namespace rexp {

// Which bounding strategy drives *grouping decisions* (ChooseSubtree
// what-ifs, split metrics). The paper's Section 6 suggests, as future
// work, "separating the information that guides the grouping decisions
// from the information that guides search"; this knob implements that
// separation. kFollowStored reproduces the paper's design (decisions use
// the stored strategy).
enum class GroupingPolicy {
  kFollowStored,
  kConservative,
  kUpdateMinimum,
};

struct TreeConfig {
  // Bounding-rectangle strategy for stored internal entries.
  TpbrKind tpbr_kind = TpbrKind::kNearOptimal;

  // Bounding strategy for grouping decisions (see GroupingPolicy).
  GroupingPolicy grouping_policy = GroupingPolicy::kFollowStored;

  // R^exp behaviour: entries expire, queries/updates see only live
  // entries, and expired entries are lazily purged. When false the engine
  // behaves as the TPR-tree: expiration times are ignored entirely.
  bool expire_entries = true;

  // Record expiration times inside internal entries ("BRs with exp.t.").
  // When false, internal entries are 4 bytes smaller and queries fall back
  // to the rectangle's natural expiry (paper Section 4.1.1).
  bool store_tpbr_expiration = false;

  // "Algorithms without expiration times": insertion decisions treat every
  // entry as never-expiring (conservative what-if bounds), which groups
  // entries by velocity and avoids degrading update-minimum rectangles
  // (paper Sections 4.2.2, 5.2).
  bool choose_subtree_ignores_expiration = false;

  // R*'s overlap-enlargement heuristic in ChooseSubtree at the level above
  // the leaves (quadratic). The R^exp-tree drops it (paper Section 4.2.2);
  // the TPR-tree baseline keeps it.
  bool use_overlap_enlargement = false;

  // W = horizon_alpha * UI (paper Section 4.2.3; the experiments use 0.5).
  double horizon_alpha = 0.5;

  // Initial estimate of the average update interval, used until the online
  // estimator has seen enough insertions.
  double initial_ui = 60.0;

  // Storage geometry (paper Section 5.1: 4 KiB pages, 50-page buffer).
  uint32_t page_size = 4096;
  uint32_t buffer_frames = 50;

  // R* structure parameters: minimum node fill and the fraction of entries
  // removed by forced reinsertion.
  double min_fill_fraction = 0.4;
  double reinsert_fraction = 0.3;

  // Upper bound on the orphan list built by one update operation (paper
  // Section 4.3: "a natural solution to this problem is to fix the maximum
  // size of orphans and stop handling underfull nodes when orphans is
  // almost full" — this also bounds the cost of any single update). When
  // the cap is reached, further underfull nodes are simply left underfull;
  // queries remain correct and later updates re-balance them.
  uint32_t max_orphans = 4096;

  // Crash-consistent operation: every index operation ends with a durable
  // commit (copy-on-write node relocation, deferred page frees, an
  // alternating-slot metadata write, and a device sync), so a crash at any
  // write boundary recovers the state as of the last completed operation.
  // Off by default: the paper's experiments measure in-place update I/O,
  // and commits add a meta write + sync per operation.
  bool crash_consistent = false;

  // Seed for the engine's internal randomness (near-optimal TPBR dimension
  // order).
  uint64_t seed = 1;

  // True if internal entries carry velocities on the page (all strategies
  // except static bounds).
  bool StoresVelocities() const { return tpbr_kind != TpbrKind::kStatic; }

  // R*'s minimum fill of a node holding at most `capacity` entries: the
  // tree's underflow threshold and split bound, the verifier's occupancy
  // check and repair's underfull count all read it here.
  int MinEntries(int capacity) const {
    return std::max(2, static_cast<int>(capacity * min_fill_fraction));
  }

  // BulkLoad's target fill: above the minimum fill, at most full.
  bool ValidBulkFill(double fill) const {
    return fill > min_fill_fraction && fill <= 1.0;
  }

  // Lazy expiry (paper Section 4.3): an entry whose expiration time has
  // passed is invisible to queries and updates and may be purged. Without
  // expiration semantics every entry is live.
  bool Live(Time t_exp, Time now) const {
    return !expire_entries || t_exp >= now;
  }

  // The expiry a query tests for an entry: a leaf record's own t_exp, an
  // internal entry's effective expiry (recorded, or its rectangle's
  // natural one), or never without expiration semantics.
  template <int kDims>
  Time QueryExpiry(const Tpbr<kDims>& region, bool leaf) const {
    if (!expire_entries) return kNeverExpires;
    return leaf ? region.t_exp : region.EffectiveExpiry(0);
  }

  void Validate() const {
    REXP_CHECK(page_size >= 256);
    REXP_CHECK(buffer_frames >= 4);
    REXP_CHECK(min_fill_fraction > 0 && min_fill_fraction <= 0.5);
    REXP_CHECK(reinsert_fraction >= 0 && reinsert_fraction < 0.5);
    REXP_CHECK(horizon_alpha >= 0);
    REXP_CHECK(initial_ui > 0);
    if (!expire_entries) {
      // Without expiration semantics only conservative rectangles are
      // sound (the others rely on finite lifetimes).
      REXP_CHECK(tpbr_kind == TpbrKind::kConservative);
    }
    if (tpbr_kind == TpbrKind::kStatic) {
      // Static bounds have no velocities, so a rectangle's lifetime cannot
      // be reconstructed from its shape (the natural expiry is infinite);
      // the expiration time must be recorded.
      REXP_CHECK(store_tpbr_expiration);
    }
  }

  // The R^exp-tree as configured for the paper's headline experiments:
  // near-optimal TPBRs without recorded expiration times, normal
  // ChooseSubtree, no overlap enlargement (Section 5.2's best flavor).
  static TreeConfig Rexp() { return TreeConfig{}; }

  // The TPR-tree baseline: conservative rectangles, expiration ignored,
  // recorded expiration occupies entry space (the paper's shared setup of
  // 102 internal entries per page), R* overlap enlargement.
  static TreeConfig Tpr() {
    TreeConfig c;
    c.tpbr_kind = TpbrKind::kConservative;
    c.expire_entries = false;
    c.store_tpbr_expiration = true;
    c.use_overlap_enlargement = true;
    return c;
  }
};

}  // namespace rexp

#endif  // REXP_TREE_TREE_CONFIG_H_
