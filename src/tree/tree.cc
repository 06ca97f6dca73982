// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "tree/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/check.h"
#include "common/parse.h"
#include "common/float_round.h"
#include "tpbr/integrals.h"
#include "tpbr/intersect.h"
#include "tpbr/tpbr_compute.h"
#include "tree/meta_format.h"

namespace rexp {
namespace {

constexpr int kMaxLevels = kMetaMaxLevels;

// Number of area-enlargement-best candidates to which the quadratic R*
// overlap-enlargement test is restricted (the R*-tree paper's own
// optimization; it suggests 32).
constexpr int kOverlapCandidates = 32;

// OK when page `id`'s header passed NodeCodec::DecodeChecked at
// `expected_level`, else the kCorruption naming its fault.
Status HeaderStatus(PageId id, int expected_level, const NodeHeader& header) {
  if (header.ok()) return Status::OK();
  return Status::Corruption(
      "page " + std::to_string(id) + ": " +
      (header.fault == NodeHeader::Fault::kLevel
           ? "node level " + std::to_string(header.level) + ", expected " +
                 std::to_string(expected_level)
           : std::to_string(header.count) +
                 " entries exceed the node capacity"));
}

}  // namespace

template <int kDims>
Tpbr<kDims> MakeMovingPoint(const Vec<kDims>& pos, const Vec<kDims>& vel,
                            Time t_obs, Time t_exp) {
  Tpbr<kDims> p;
  for (int d = 0; d < kDims; ++d) {
    double v = ToFloatExactly(vel[d]);
    // Normalize to reference time 0 using the float velocity so the record
    // round-trips through 32-bit page storage exactly.
    p.lo[d] = p.hi[d] = ToFloatExactly(pos[d] - v * t_obs);
    p.vlo[d] = p.vhi[d] = v;
  }
  p.t_exp = ToFloatExactly(t_exp);
  return p;
}

namespace {

// Records live on pages in 32-bit precision, so the index only ever deals
// in float-valued coordinates. Canonicalizing at the API boundary keeps
// every in-memory copy equal to its on-page round-trip; without this, a
// record that arrived with excess precision would silently change value
// on the first evict/reload and Delete's exact-match scan could never
// find it again.
template <int kDims>
Tpbr<kDims> CanonicalRecord(const Tpbr<kDims>& point) {
  Tpbr<kDims> p = point;
  for (int d = 0; d < kDims; ++d) {
    p.lo[d] = ToFloatExactly(point.lo[d]);
    p.hi[d] = ToFloatExactly(point.hi[d]);
    p.vlo[d] = ToFloatExactly(point.vlo[d]);
    p.vhi[d] = ToFloatExactly(point.vhi[d]);
  }
  p.t_exp = ToFloatExactly(point.t_exp);
  return p;
}

}  // namespace

template <int kDims>
Tree<kDims>::Tree(const TreeConfig& config, PageFile* file, PrivateTag)
    : config_(config),
      file_(file),
      buffer_(file, config.buffer_frames),
      codec_(config.page_size, config.StoresVelocities(),
             config.store_tpbr_expiration),
      rng_(config.seed),
      horizon_(config.initial_ui, config.horizon_alpha,
               static_cast<uint32_t>(codec_.leaf_capacity())) {
  config_.Validate();
  REXP_CHECK(file->page_size() == config.page_size);
}

template <int kDims>
StatusOr<std::unique_ptr<Tree<kDims>>> Tree<kDims>::Open(
    const TreeConfig& config, PageFile* file) {
  std::unique_ptr<Tree> tree(new Tree(config, file, PrivateTag{}));
  REXP_RETURN_IF_ERROR(tree->Init());
  return tree;
}

template <int kDims>
Tree<kDims>::Tree(const TreeConfig& config, PageFile* file)
    : Tree(config, file, PrivateTag{}) {
  REXP_CHECK_OK(Init());
}

template <int kDims>
Status Tree<kDims>::Init() {
  if (file_->allocated_pages() == 0) {
    // Fresh file: reserve the two meta slots and make the empty tree
    // durable (epoch 1 lands in slot 1; slot 0 stays zero until epoch 2).
    for (PageId slot = 0; slot < kNumMetaSlots; ++slot) {
      REXP_ASSIGN_OR_RETURN(PageId id, file_->Allocate());
      REXP_CHECK(id == slot);
    }
    REXP_RETURN_IF_ERROR(Commit());
  } else {
    // No other thread can reach the tree yet, but recovery mutates the
    // epoch-guarded state (DAT, parent map), so it runs under the writer
    // epoch like every other mutation — uncontended here.
    sched::WriterMutexLock epoch(&epoch_mu_);
    REXP_RETURN_IF_ERROR(LoadMeta());
    if (root_ != kInvalidPageId) {
      REXP_RETURN_IF_ERROR(PinRoot(root_));
    }
    // The direct-access table and parent map are in-memory only; rebuild
    // them from a leaf walk of the recovered state.
    REXP_RETURN_IF_ERROR(RebuildDat());
  }
  if (config_.crash_consistent) file_->set_deferred_free(true);
  open_ok_ = true;
  return Status::OK();
}

template <int kDims>
Tree<kDims>::~Tree() {
  if (open_ok_ && uncommitted_) {
    Status s = Commit();
    if (!s.ok()) {
      std::fprintf(stderr, "Tree: commit on close failed: %s\n",
                   s.ToString().c_str());
    }
  }
  REXP_CHECK_OK(PinRoot(kInvalidPageId));
}

// ---------------------------------------------------------------------------
// Metadata persistence.

template <int kDims>
Status Tree<kDims>::Commit() {
  sched::WriterMutexLock epoch(&epoch_mu_);
  const uint64_t io_before = buffer_.stats().Total();
  if (tracer_ != nullptr) tracer_->BeginSpan("commit");
  Status s = CommitLocked();
  const uint64_t io = buffer_.stats().Total() - io_before;
  if (tracer_ != nullptr) {
    tracer_->EndSpan({{"ok", s.ok() ? 1.0 : 0.0},
                      {"io", static_cast<double>(io)}});
  }
  obs::GlobalFlightRecorder().Record(obs::FlightOp::kCommit, meta_epoch_, 0,
                                     s.code(), io);
  return s;
}

template <int kDims>
Status Tree<kDims>::CommitLocked() {
  REXP_RETURN_IF_ERROR(buffer_.FlushDirty());
  REXP_RETURN_IF_ERROR(file_->Sync());
  // Only now that every node of the new state is durable do the pages the
  // state no longer references become reusable — and only now is the meta
  // slot write safe.
  file_->PublishDeferredFrees();
  MetaState state;
  state.epoch = meta_epoch_ + 1;
  state.root = root_;
  state.height = height_;
  state.committed = file_->capacity_pages();
  state.underfull_remnants = underfull_remnants_;
  state.ui = horizon_.ui();
  state.level_counts = level_counts_;
  state.free_list = file_->free_list();
  state.leaked = file_->leaked_pages();
  Page page(config_.page_size);
  EncodeMeta(kDims, state, &page);
  const uint64_t epoch = state.epoch;
  REXP_RETURN_IF_ERROR(
      file_->WritePage(static_cast<PageId>(epoch & 1), page));
  REXP_RETURN_IF_ERROR(file_->Sync());
  meta_epoch_ = epoch;
  uncommitted_ = false;
  return Status::OK();
}

template <int kDims>
Status Tree<kDims>::LoadMeta() {
  MetaRead meta = ReadMeta(file_, kDims);
  for (const MetaSlotProbe& probe : meta.slots) {
    if (probe.outcome == MetaSlotOutcome::kMissing) {
      return Status::Corruption("index file holds no complete meta slot");
    }
    // A broken device, not slot damage: fail the open.
    if (probe.outcome == MetaSlotOutcome::kDeviceError) {
      return probe.read_status;
    }
  }
  meta_slot_errors_ = meta.damaged_slots();
  if (!meta.found()) {
    if (const int dims = meta.other_dims(); dims != 0) {
      return Status::Corruption(
          "index records " + std::to_string(dims) + " dims; open it as a " +
          std::to_string(dims) + "-d tree, not " + std::to_string(kDims) +
          "-d (" + meta.SlotSummary() + ")");
    }
    return Status::Corruption(
        "no valid meta slot (" + meta.SlotSummary() +
        "); run `rexp_fsck --salvage` to rebuild from surviving leaf pages");
  }
  if (meta.consistency != MetaConsistency::kConsistent) {
    return Status::Corruption(meta.InconsistencyDetail());
  }
  MetaState& state = meta.state;
  for (PageId id : state.free_list) {
    if (id < kNumMetaSlots || id >= state.committed) {
      return Status::Corruption("meta free list holds invalid page " +
                                std::to_string(id));
    }
  }
  root_ = state.root;
  height_ = state.height;
  underfull_remnants_ = state.underfull_remnants;
  level_counts_ = std::move(state.level_counts);
  if (state.ui > 0) horizon_.RestoreUi(state.ui);
  file_->RestoreFreeList(std::move(state.free_list), state.leaked);
  // Pages the device grew past the committed extent (writes after the
  // last commit, including a torn tail) are unreferenced by the recovered
  // state; reclaim them.
  for (uint64_t id = state.committed; id < file_->capacity_pages(); ++id) {
    file_->Free(static_cast<PageId>(id));
  }
  meta_epoch_ = state.epoch;
  return Status::OK();
}

template <int kDims>
Status Tree<kDims>::PinRoot(PageId new_root) {
  if (pinned_root_ != kInvalidPageId) buffer_.Unpin(pinned_root_);
  pinned_root_ = kInvalidPageId;
  if (new_root != kInvalidPageId) {
    REXP_ASSIGN_OR_RETURN(PageGuard guard, buffer_.Fetch(new_root));
    guard.Release();
    buffer_.Pin(new_root);
    pinned_root_ = new_root;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Node I/O.

template <int kDims>
Node<kDims> Tree<kDims>::ReadNode(PageId id) {
  Node<kDims> node;
  ReadNodeInto(id, &node);
  return node;
}

template <int kDims>
void Tree<kDims>::ReadNodeInto(PageId id, Node<kDims>* out) {
  PageGuard guard = buffer_.FetchOrDie(id);
  codec_.Decode(*guard, out);
  CountNodeRead(out->level, /*decoded=*/true);
}

template <int kDims>
void Tree<kDims>::CountNodeRead(int level, bool decoded) {
  op_stats_.level_reads[std::min(level, TreeOpStats::kMaxTrackedLevels - 1)]
      .fetch_add(1, std::memory_order_relaxed);
  if (decoded) op_stats_.node_decodes.fetch_add(1, std::memory_order_relaxed);
}

template <int kDims>
void Tree<kDims>::NoteNodeStored(PageId id, const Node<kDims>& node) {
  // Every entry placement flows through a node write, so this is the one
  // point that keeps the DAT's leaf pins and the parent map current.
  if (node.IsLeaf()) {
    for (const NodeEntry<kDims>& e : node.entries) {
      dat_.NoteLeaf(e.id, id);
    }
  } else {
    for (const NodeEntry<kDims>& e : node.entries) {
      parent_of_.Put(e.id, id);
    }
  }
}

template <int kDims>
void Tree<kDims>::WriteNode(PageId id, const Node<kDims>& node) {
  PageGuard guard = buffer_.FetchOrDie(id, PageIntent::kWrite);
  codec_.Encode(node, guard.mutable_page());
  guard.MarkDirty();
  NoteNodeStored(id, node);
}

template <int kDims>
PageId Tree<kDims>::StoreNode(PageId id, const Node<kDims>& node) {
  if (!config_.crash_consistent) {
    WriteNode(id, node);
    return id;
  }
  // Copy-on-write: relocate the node to a fresh page and quarantine the
  // old one (deferred free), so every page the last committed state
  // references stays untouched until the next commit is durable.
  FreeNode(id);
  return AllocNode(node);
}

template <int kDims>
PageId Tree<kDims>::AllocNode(const Node<kDims>& node) {
  PageId id;
  PageGuard guard = buffer_.NewPageOrDie(&id);
  codec_.Encode(node, guard.mutable_page());
  NoteNodeStored(id, node);
  return id;
}

template <int kDims>
void Tree<kDims>::FreeNode(PageId id) {
  buffer_.FreePage(id);
  parent_of_.Erase(id);
}

template <int kDims>
void Tree<kDims>::ReleaseLeafRefs(const Node<kDims>& node) {
  for (const NodeEntry<kDims>& e : node.entries) {
    dat_.ReleaseRef(e.id);
  }
}

template <int kDims>
void Tree<kDims>::FreeSubtree(PageId id, int level) {
  if (level > 0) {
    Node<kDims> node = ReadNode(id);
    REXP_CHECK(node.level == level);
    for (const NodeEntry<kDims>& e : node.entries) {
      FreeSubtree(e.id, level - 1);
    }
    level_counts_[level] -= node.entries.size();
  } else {
    Node<kDims> node = ReadNode(id);
    ReleaseLeafRefs(node);
    level_counts_[0] -= node.entries.size();
  }
  FreeNode(id);
}

// ---------------------------------------------------------------------------
// Expiration handling.

template <int kDims>
void Tree<kDims>::PurgeExpired(Node<kDims>* node, Time now, PageId skip_id,
                               const Batch* batch) {
  if (!config_.expire_entries) return;
  size_t kept = 0;
  uint64_t subtrees = 0;
  for (size_t i = 0; i < node->entries.size(); ++i) {
    NodeEntry<kDims>& e = node->entries[i];
    const bool keep =
        config_.Live(e.region.t_exp, now) ||
        (!node->IsLeaf() &&
         (e.id == skip_id ||
          (batch != nullptr && batch->contains({node->level - 1, e.id}))));
    if (keep) {
      node->entries[kept++] = e;
    } else if (node->IsLeaf()) {
      dat_.ReleaseRef(e.id);
    } else {
      // Dropping an expired internal entry deallocates its whole subtree
      // (paper Section 4.3).
      FreeSubtree(e.id, node->level - 1);
      ++subtrees;
    }
  }
  size_t removed = node->entries.size() - kept;
  if (removed > 0) {
    level_counts_[node->level] -= removed;
    node->entries.resize(kept);
    op_stats_.purged_entries += removed;
    op_stats_.purged_subtrees += subtrees;
    if (tracer_ != nullptr) {
      tracer_->Emit("purge", {{"level", static_cast<double>(node->level)},
                              {"removed", static_cast<double>(removed)},
                              {"subtrees", static_cast<double>(subtrees)},
                              {"now", now}});
    }
  }
}

// ---------------------------------------------------------------------------
// Bounds and heuristics.

template <int kDims>
double Tree<kDims>::TpbrHorizonForLevel(int parent_level) const {
  uint64_t level_entries =
      parent_level < static_cast<int>(level_counts_.size())
          ? level_counts_[parent_level]
          : 1;
  uint64_t leaf_entries = level_counts_.empty() ? 0 : level_counts_[0];
  return horizon_.TpbrHorizon(level_entries, leaf_entries);
}

template <int kDims>
Tpbr<kDims> Tree<kDims>::ComputeBound(const Node<kDims>& node, Time now) {
  std::vector<Tpbr<kDims>>& regions = bound_scratch_;
  regions.clear();
  regions.reserve(node.entries.size());
  for (const NodeEntry<kDims>& e : node.entries) {
    if (config_.Live(e.region.t_exp, now)) regions.push_back(e.region);
  }
  if (regions.empty()) {
    // A node with no live entries (possible only transiently); bound
    // whatever is physically there.
    for (const NodeEntry<kDims>& e : node.entries) {
      regions.push_back(e.region);
    }
  }
  REXP_CHECK(!regions.empty());
  ++op_stats_.tpbr_recomputes;
  if (tracer_ != nullptr) {
    tracer_->Emit("tpbr_recompute",
                  {{"level", static_cast<double>(node.level)},
                   {"entries", static_cast<double>(node.entries.size())}});
  }
  TpbrKind kind = config_.expire_entries ? config_.tpbr_kind
                                         : TpbrKind::kConservative;
  return ComputeTpbr<kDims>(kind, regions, now,
                            TpbrHorizonForLevel(node.level + 1), &rng_);
}

template <int kDims>
TpbrKind Tree<kDims>::GroupingKind() const {
  switch (config_.grouping_policy) {
    case GroupingPolicy::kFollowStored:
      return config_.tpbr_kind;
    case GroupingPolicy::kConservative:
      return TpbrKind::kConservative;
    case GroupingPolicy::kUpdateMinimum:
      return TpbrKind::kUpdateMinimum;
  }
  REXP_CHECK(false);
}

template <int kDims>
Tpbr<kDims> Tree<kDims>::DecisionBound(const Tpbr<kDims>& base,
                                       const Tpbr<kDims>& add, Time now,
                                       int parent_level) {
  Tpbr<kDims> pair[2] = {base, add};
  if (!config_.expire_entries || config_.choose_subtree_ignores_expiration) {
    return ComputeTpbr<kDims>(TpbrKind::kConservative, pair, now, 0.0,
                              nullptr);
  }
  return ComputeTpbr<kDims>(GroupingKind(), pair, now,
                            TpbrHorizonForLevel(parent_level), &rng_);
}

namespace {

// Upper integration bound for objective integrals involving rectangles
// that expire at `t_exp` (paper Section 4.2.1): min(H, t_exp - now),
// at least 0.
double MetricHorizon(double h, Time t_exp, Time now, bool use_expiration) {
  if (!use_expiration || !IsFiniteTime(t_exp)) return h;
  return std::clamp(t_exp - now, 0.0, h);
}

}  // namespace

template <int kDims>
int Tree<kDims>::ChooseSubtree(const Node<kDims>& node,
                               const Tpbr<kDims>& region, Time now,
                               Tpbr<kDims>* what_if) {
  REXP_CHECK(!node.entries.empty());
  ++op_stats_.choose_subtree_calls;
  auto chosen = [&](const ScoredChild& s) {
    if (what_if != nullptr) *what_if = s.what_if;
    if (tracer_ != nullptr) {
      tracer_->Emit("choose_subtree",
                    {{"level", static_cast<double>(node.level)},
                     {"entries", static_cast<double>(node.entries.size())},
                     {"chosen", static_cast<double>(s.index)}});
    }
    return s.index;
  };
  std::vector<ScoredChild>& scored = choose_scratch_;
  scored.clear();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (config_.Live(node.entries[i].region.t_exp, now)) {
      scored.emplace_back().index = static_cast<int>(i);
    }
  }
  if (scored.empty()) {
    // No live children (transient); fall back to all.
    for (size_t i = 0; i < node.entries.size(); ++i) {
      scored.emplace_back().index = static_cast<int>(i);
    }
  }
  if (scored.size() == 1) {
    scored[0].what_if = node.entries[scored[0].index].region;
    return chosen(scored[0]);
  }

  const double h = horizon_.DecisionHorizon();
  const bool honor_exp =
      config_.expire_entries && !config_.choose_subtree_ignores_expiration;

  for (ScoredChild& s : scored) {
    const Tpbr<kDims>& old_region = node.entries[s.index].region;
    s.what_if = DecisionBound(old_region, region, now, node.level);
    double t_cap =
        MetricHorizon(h, std::max(old_region.t_exp, s.what_if.t_exp), now,
                      honor_exp);
    s.area = AreaIntegral(old_region, now, t_cap);
    s.area_enlargement = AreaIntegral(s.what_if, now, t_cap) - s.area;
  }

  auto area_better = [](const ScoredChild& a, const ScoredChild& b) {
    if (a.area_enlargement != b.area_enlargement) {
      return a.area_enlargement < b.area_enlargement;
    }
    return a.area < b.area;
  };

  // R*'s overlap-enlargement heuristic applies at the level just above the
  // leaves; restricted (as the R*-tree paper suggests) to the
  // kOverlapCandidates entries with the least area enlargement. The
  // R^exp-tree configuration disables this heuristic entirely, making
  // ChooseSubtree linear (paper Section 4.2.2).
  if (config_.use_overlap_enlargement && node.level == 1) {
    std::sort(scored.begin(), scored.end(), area_better);
    size_t top = std::min<size_t>(scored.size(), kOverlapCandidates);
    const ScoredChild* best = nullptr;
    double best_overlap = 0, best_enlargement = 0;
    for (size_t k = 0; k < top; ++k) {
      const ScoredChild& s = scored[k];
      double delta_overlap = 0;
      for (size_t j = 0; j < node.entries.size(); ++j) {
        if (static_cast<int>(j) == s.index) continue;
        const Tpbr<kDims>& other = node.entries[j].region;
        double t_cap = MetricHorizon(
            h, std::max(s.what_if.t_exp, other.t_exp), now, honor_exp);
        delta_overlap += OverlapIntegral(s.what_if, other, now, t_cap) -
                         OverlapIntegral(node.entries[s.index].region, other,
                                         now, t_cap);
      }
      if (best == nullptr || delta_overlap < best_overlap ||
          (delta_overlap == best_overlap &&
           s.area_enlargement < best_enlargement)) {
        best = &s;
        best_overlap = delta_overlap;
        best_enlargement = s.area_enlargement;
      }
    }
    return chosen(*best);
  }

  const ScoredChild* best = &scored[0];
  for (const ScoredChild& s : scored) {
    if (area_better(s, *best)) best = &s;
  }
  return chosen(*best);
}

// ---------------------------------------------------------------------------
// Split and forced reinsertion.

template <int kDims>
int Tree<kDims>::ReinsertCount(int total) const {
  return std::clamp(static_cast<int>(config_.reinsert_fraction * total), 1,
                    total - 2);
}

template <int kDims>
Node<kDims> Tree<kDims>::SplitNode(Node<kDims>* node, Time now) {
  const int total = static_cast<int>(node->entries.size());
  const int min_entries = config_.MinEntries(codec_.Capacity(node->level));
  REXP_CHECK(total > codec_.Capacity(node->level));
  const uint64_t io_before = buffer_.stats().Total();
  if (tracer_ != nullptr) {
    tracer_->BeginSpan("split",
                       {{"level", static_cast<double>(node->level)}});
  }
  REXP_CHECK(total >= 2 * min_entries);

  const double h = horizon_.DecisionHorizon();
  const bool honor_exp =
      config_.expire_entries && !config_.choose_subtree_ignores_expiration;
  // Split *metrics* (margin/overlap/area integrals of candidate groups)
  // are evaluated on cheap O(n) bounds — by default update-minimum when
  // expiration times inform grouping, conservative otherwise (an explicit
  // grouping policy overrides this). The bounds actually stored for the
  // resulting nodes are recomputed with the configured strategy by the
  // propagation step, so only the distribution choice is affected;
  // evaluating every distribution with hull-based bounds would dominate
  // the whole insertion cost.
  TpbrKind metric_kind =
      honor_exp ? TpbrKind::kUpdateMinimum : TpbrKind::kConservative;
  if (honor_exp &&
      config_.grouping_policy == GroupingPolicy::kConservative) {
    metric_kind = TpbrKind::kConservative;
  }
  const double level_h = TpbrHorizonForLevel(node->level + 1);

  std::vector<Tpbr<kDims>> regions(total);
  auto group_bound = [&](int from, int to) {
    return ComputeTpbr<kDims>(
        metric_kind,
        std::span<const Tpbr<kDims>>(regions.data() + from, to - from), now,
        level_h, &rng_);
  };

  // Candidate orderings: by lower/upper bound position at `now` and by
  // lower/upper bound velocity, per axis (the TPR-tree's extension of the
  // R* split to time-parameterized entries).
  enum SortKey { kLoPos, kHiPos, kLoVel, kHiVel };
  auto make_sorted = [&](int axis, SortKey key) {
    std::vector<NodeEntry<kDims>> sorted = node->entries;
    std::sort(sorted.begin(), sorted.end(),
              [&](const NodeEntry<kDims>& a, const NodeEntry<kDims>& b) {
                switch (key) {
                  case kLoPos:
                    return a.region.LoAt(axis, now) < b.region.LoAt(axis, now);
                  case kHiPos:
                    return a.region.HiAt(axis, now) < b.region.HiAt(axis, now);
                  case kLoVel:
                    return a.region.vlo[axis] < b.region.vlo[axis];
                  case kHiVel:
                    return a.region.vhi[axis] < b.region.vhi[axis];
                }
                return false;
              });
    return sorted;
  };

  auto fill_regions = [&](const std::vector<NodeEntry<kDims>>& sorted) {
    for (int i = 0; i < total; ++i) regions[i] = sorted[i].region;
  };

  // Phase 1: choose the split axis by minimum total margin integral.
  int best_axis = 0;
  double best_axis_margin = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < kDims; ++axis) {
    double margin_sum = 0;
    for (SortKey key : {kLoPos, kHiPos, kLoVel, kHiVel}) {
      std::vector<NodeEntry<kDims>> sorted = make_sorted(axis, key);
      fill_regions(sorted);
      for (int k = min_entries; k <= total - min_entries; ++k) {
        Tpbr<kDims> b1 = group_bound(0, k);
        Tpbr<kDims> b2 = group_bound(k, total);
        double t1 = MetricHorizon(h, b1.t_exp, now, honor_exp);
        double t2 = MetricHorizon(h, b2.t_exp, now, honor_exp);
        margin_sum += MarginIntegral(b1, now, t1) + MarginIntegral(b2, now, t2);
      }
    }
    if (margin_sum < best_axis_margin) {
      best_axis_margin = margin_sum;
      best_axis = axis;
    }
  }

  // Phase 2: on the chosen axis, pick the distribution with the least
  // overlap integral (ties: least total area integral).
  std::vector<NodeEntry<kDims>> best_split;
  int best_k = -1;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (SortKey key : {kLoPos, kHiPos, kLoVel, kHiVel}) {
    std::vector<NodeEntry<kDims>> sorted = make_sorted(best_axis, key);
    fill_regions(sorted);
    for (int k = min_entries; k <= total - min_entries; ++k) {
      Tpbr<kDims> b1 = group_bound(0, k);
      Tpbr<kDims> b2 = group_bound(k, total);
      double t_pair = MetricHorizon(h, std::max(b1.t_exp, b2.t_exp), now,
                                    honor_exp);
      double overlap = OverlapIntegral(b1, b2, now, t_pair);
      double area = AreaIntegral(b1, now, MetricHorizon(h, b1.t_exp, now,
                                                        honor_exp)) +
                    AreaIntegral(b2, now, MetricHorizon(h, b2.t_exp, now,
                                                        honor_exp));
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_split = sorted;
        best_k = k;
      }
    }
  }
  REXP_CHECK(best_k > 0);

  Node<kDims> right;
  right.level = node->level;
  right.entries.assign(best_split.begin() + best_k, best_split.end());
  node->entries.assign(best_split.begin(), best_split.begin() + best_k);
  ++op_stats_.splits;
  if (tracer_ != nullptr) {
    tracer_->EndSpan(
        {{"axis", static_cast<double>(best_axis)},
         {"left", static_cast<double>(node->entries.size())},
         {"right", static_cast<double>(right.entries.size())},
         {"io", static_cast<double>(buffer_.stats().Total() - io_before)}});
  }
  return right;
}

template <int kDims>
void Tree<kDims>::RemoveForReinsert(Node<kDims>* node, Time now) {
  const int total = static_cast<int>(node->entries.size());
  const int remove = ReinsertCount(total);

  Tpbr<kDims> bound = ComputeBound(*node, now);
  const double h = horizon_.DecisionHorizon();
  std::vector<std::pair<double, int>> by_distance;  // (distance, index)
  by_distance.reserve(total);
  for (int i = 0; i < total; ++i) {
    by_distance.emplace_back(
        CenterDistSqIntegral(node->entries[i].region, bound, now, h), i);
  }
  std::sort(by_distance.begin(), by_distance.end());

  // The `remove` farthest entries are queued for reinsertion, closest
  // first (R*'s "close reinsert").
  std::vector<NodeEntry<kDims>> kept;
  kept.reserve(total - remove);
  for (int i = 0; i < total - remove; ++i) {
    kept.push_back(node->entries[by_distance[i].second]);
  }
  for (int i = total - remove; i < total; ++i) {
    const NodeEntry<kDims>& removed = node->entries[by_distance[i].second];
    if (node->level == 0) dat_.ReleaseRef(removed.id);
    pending_.push_back(Pending{node->level, removed});
  }
  level_counts_[node->level] -= remove;
  node->entries = std::move(kept);
  ++op_stats_.forced_reinserts;
  op_stats_.reinserted_entries += remove;
  if (tracer_ != nullptr) {
    tracer_->Emit("forced_reinsert",
                  {{"level", static_cast<double>(node->level)},
                   {"removed", static_cast<double>(remove)}});
  }
}

// ---------------------------------------------------------------------------
// Structural propagation (the paper's CondenseTree / PropagateUp).

template <int kDims>
PageId Tree<kDims>::SettleNode(PageId id, bool is_root, Node<kDims> node,
                               Time now, NodeEntry<kDims>* extra) {
  extra->id = kInvalidPageId;
  const int cap = codec_.Capacity(node.level);
  const int total = static_cast<int>(node.entries.size());
  // Where the node ends up: its own page normally, a fresh page under
  // copy-on-write (see StoreNode); kInvalidPageId once dissolved.
  PageId stored_id = kInvalidPageId;

  if (is_root && config_.crash_consistent) {
    // StoreNode is about to quarantine the root's current page, which
    // must not be pinned when that happens.
    REXP_CHECK_OK(PinRoot(kInvalidPageId));
  }

  if (total > cap) {
    const uint32_t level_bit = 1u << node.level;
    // A forced reinsertion must leave a node that fits; a batch can
    // overfill one past what the reinsertion takes out.
    if (!is_root && config_.reinsert_fraction > 0 &&
        !(reinserted_levels_ & level_bit) &&
        total - ReinsertCount(total) <= cap) {
      reinserted_levels_ |= level_bit;
      RemoveForReinsert(&node, now);
      stored_id = StoreNode(id, node);
    } else {
      Node<kDims> right = SplitNode(&node, now);
      stored_id = StoreNode(id, node);
      PageId right_id = AllocNode(right);
      if (is_root) {
        GrowRoot(stored_id, right_id, now);
        return stored_id;
      }
      // Bound the new sibling as stored on its page (float-rounded), so
      // that parent bounds always cover the on-page child exactly.
      ReadNodeInto(right_id, &fix_scratch_);
      *extra = NodeEntry<kDims>{ComputeBound(fix_scratch_, now), right_id};
    }
  } else if (!is_root && total < config_.MinEntries(cap)) {
    if (pending_.size() + node.entries.size() > config_.max_orphans) {
      // Orphan list is (almost) full: stop handling underfull nodes for
      // this operation (paper Section 4.3). The node stays underfull —
      // harmless for correctness — and a later modification fixes it.
      ++underfull_remnants_;
      stored_id = StoreNode(id, node);
    } else {
      // Underfull: orphan the live entries and dissolve the node (paper
      // step PU2). Orphaned leaf records leave the leaf level until
      // reinserted, so their DAT references drop here and come back in
      // InsertPending.
      if (node.level == 0) ReleaseLeafRefs(node);
      for (const NodeEntry<kDims>& e : node.entries) {
        pending_.push_back(Pending{node.level, e});
      }
      level_counts_[node.level] -= node.entries.size();
      op_stats_.orphaned_entries += node.entries.size();
      if (tracer_ != nullptr) {
        tracer_->Emit("dissolve",
                      {{"level", static_cast<double>(node.level)},
                       {"orphaned",
                        static_cast<double>(node.entries.size())}});
      }
      FreeNode(id);
    }
  } else {
    stored_id = StoreNode(id, node);
  }

  if (is_root) {
    if (config_.crash_consistent) {
      root_ = stored_id;
      REXP_CHECK_OK(PinRoot(root_));
    }
    MaybeShrinkRoot(std::move(node));
  }
  return stored_id;
}

template <int kDims>
void Tree<kDims>::ReattachChild(Node<kDims>* parent, PageId child,
                                PageId stored, const NodeEntry<kDims>& extra,
                                Time now) {
  const int idx = parent->FindId(child);
  if (stored == kInvalidPageId) {
    if (idx >= 0) {
      parent->entries.erase(parent->entries.begin() + idx);
      level_counts_[parent->level] -= 1;
    }
  } else {
    REXP_CHECK(idx >= 0);
    // Recompute the bound from the node as stored on its page: encoding
    // rounds entries outward, and the parent bound must cover the
    // on-page representation. Under copy-on-write the child also moved.
    ReadNodeInto(stored, &fix_scratch_);
    parent->entries[idx].region = ComputeBound(fix_scratch_, now);
    parent->entries[idx].id = stored;
  }
  if (extra.id != kInvalidPageId) {
    parent->entries.push_back(extra);
    level_counts_[parent->level] += 1;
  }
}

template <int kDims>
void Tree<kDims>::GrowRoot(PageId left, PageId right, Time now) {
  Node<kDims> left_node = ReadNode(left);
  Node<kDims> right_node = ReadNode(right);
  Node<kDims> new_root;
  new_root.level = left_node.level + 1;
  REXP_CHECK(new_root.level < kMaxLevels);
  new_root.entries.push_back(
      NodeEntry<kDims>{ComputeBound(left_node, now), left});
  new_root.entries.push_back(
      NodeEntry<kDims>{ComputeBound(right_node, now), right});
  InstallRoot(new_root);
  ++op_stats_.root_grows;
  if (tracer_ != nullptr) {
    tracer_->Emit("root_grow", {{"height", static_cast<double>(height_)}});
  }
}

template <int kDims>
void Tree<kDims>::InstallRoot(const Node<kDims>& root) {
  root_ = AllocNode(root);
  height_ = root.level + 1;
  level_counts_.resize(height_, 0);
  level_counts_[root.level] += root.entries.size();
  REXP_CHECK_OK(PinRoot(root_));
}

template <int kDims>
void Tree<kDims>::MaybeShrinkRoot(Node<kDims> root) {
  for (;;) {
    if (root.level == 0) return;  // Leaf roots may hold any count.
    if (root.entries.size() == 1) {
      // CT4: declare the only child the new root.
      PageId old_root = root_;
      PageId new_root = root.entries[0].id;
      level_counts_[root.level] -= 1;
      height_ = root.level;
      level_counts_.resize(height_);
      root_ = new_root;
      parent_of_.Erase(new_root);  // The root has no parent.
      ++op_stats_.root_shrinks;
      if (tracer_ != nullptr) {
        tracer_->Emit("root_shrink",
                      {{"height", static_cast<double>(height_)}});
      }
      REXP_CHECK_OK(PinRoot(root_));
      FreeNode(old_root);
      root = ReadNode(root_);
      continue;
    }
    if (root.entries.empty()) {
      // Exotic case: every entry of the root expired or was orphaned. An
      // orphan of an internal level still holds its subtree, whose
      // entries stay counted until the orphan becomes the new root.
      PageId old_root = root_;
      root_ = kInvalidPageId;
      height_ = 0;
      if (std::all_of(level_counts_.begin(), level_counts_.end(),
                      [](uint64_t count) { return count == 0; })) {
        level_counts_.clear();
      }
      ++op_stats_.root_shrinks;
      if (tracer_ != nullptr) {
        tracer_->Emit("root_shrink", {{"height", 0.0}});
      }
      REXP_CHECK_OK(PinRoot(kInvalidPageId));
      FreeNode(old_root);
      return;
    }
    return;
  }
}

template <int kDims>
void Tree<kDims>::EnsureHeightFor(int level, Time now) {
  if (root_ == kInvalidPageId) return;
  while (height_ - 1 < level) {
    Node<kDims> root = ReadNode(root_);
    Node<kDims> new_root;
    new_root.level = root.level + 1;
    REXP_CHECK(new_root.level < kMaxLevels);
    new_root.entries.push_back(
        NodeEntry<kDims>{ComputeBound(root, now), root_});
    InstallRoot(new_root);
  }
}

template <int kDims>
void Tree<kDims>::InsertPending(Pending pending, Time now) {
  Batch batch;
  RouteBatch(&batch, pending.level, {&pending.entry, 1}, now);
  SettleBatch(&batch, now);
}

template <int kDims>
void Tree<kDims>::DrainPending(Time now) {
  // Highest level first (paper CT3), FIFO within a level (which realizes
  // R*'s close-first reinsertion order).
  while (!pending_.empty()) {
    size_t pick = 0;
    for (size_t i = 1; i < pending_.size(); ++i) {
      if (pending_[i].level > pending_[pick].level) pick = i;
    }
    Pending p = pending_[pick];
    pending_.erase(pending_.begin() + pick);
    InsertPending(std::move(p), now);
  }
}

// ---------------------------------------------------------------------------
// Public operations.

template <int kDims>
template <typename Body>
bool Tree<kDims>::RunMutation(obs::FlightOp op, uint64_t subject, Time now,
                              Body&& body) {
  obs::Histogram* io_hist = &op_stats_.update_io;
  obs::Histogram* latency_hist = &op_stats_.update_latency_us;
  if (op == obs::FlightOp::kInsert) {
    io_hist = &op_stats_.insert_io;
    latency_hist = &op_stats_.insert_latency_us;
  } else if (op == obs::FlightOp::kDelete) {
    io_hist = &op_stats_.delete_io;
    latency_hist = &op_stats_.delete_latency_us;
  }
  reinserted_levels_ = 0;
  uncommitted_ = true;
  const uint64_t io_before = TotalIo();
  const uint64_t fast_before =
      op_stats_.update_fast.load(std::memory_order_relaxed);
  obs::LatencyTimer timer(latency_hist);
  if (tracer_ != nullptr) {
    const char* subject_key =
        op == obs::FlightOp::kGroupUpdate ? "batch" : "oid";
    tracer_->BeginSpan(obs::FlightOpName(op),
                       {{subject_key, static_cast<double>(subject)},
                        {"now", now}});
  }
  const bool found = body();

  // The end-of-operation flush (a commit in crash-consistent mode), in a
  // "write_back" child span attributing the write-out I/O to this one.
  const uint64_t write_back_before = TotalIo();
  if (tracer_ != nullptr) tracer_->BeginSpan("write_back");
  if (config_.crash_consistent) {
    REXP_CHECK_OK(CommitLocked());
  } else {
    REXP_CHECK_OK(buffer_.FlushDirty());
  }
  const uint64_t io = TotalIo() - io_before;
  io_hist->Record(static_cast<double>(io));
  if (tracer_ != nullptr) {
    tracer_->EndSpan(
        {{"io", static_cast<double>(TotalIo() - write_back_before)}});
    const double found_field = found ? 1.0 : 0.0;
    const double io_field = static_cast<double>(io);
    if (op == obs::FlightOp::kUpdate) {
      const bool fast =
          op_stats_.update_fast.load(std::memory_order_relaxed) != fast_before;
      tracer_->EndSpan({{"found", found_field},
                        {"fast", fast ? 1.0 : 0.0},
                        {"io", io_field}});
    } else if (op == obs::FlightOp::kDelete) {
      tracer_->EndSpan({{"found", found_field}, {"io", io_field}});
    } else {
      tracer_->EndSpan({{"io", io_field}});
    }
  }
  obs::GlobalFlightRecorder().Record(
      op, subject, timer.ElapsedUs(),
      found ? StatusCode::kOk : StatusCode::kNotFound, io);
  ParanoidVerify(now);
  return found;
}

template <int kDims>
void Tree<kDims>::NoteReport(Time now) {
  if (!horizon_.RecordInsertion(now, leaf_entries())) return;
  ++op_stats_.horizon_retunes;
  if (tracer_ != nullptr) {
    tracer_->Emit("horizon_retune", {{"now", now},
                                     {"ui", horizon_.ui()},
                                     {"w", horizon_.w()},
                                     {"h", horizon_.DecisionHorizon()}});
  }
}

template <int kDims>
void Tree<kDims>::Insert(ObjectId oid, const Tpbr<kDims>& point, Time now) {
  const Tpbr<kDims> p = CanonicalRecord(point);
#ifndef NDEBUG
  for (int d = 0; d < kDims; ++d) {
    REXP_DCHECK(p.lo[d] == p.hi[d] && p.vlo[d] == p.vhi[d]);
  }
#endif
  sched::WriterMutexLock epoch(&epoch_mu_);
  ++op_stats_.inserts;
  auto insert = [&]() REQUIRES(epoch_mu_) {
    NoteReport(now);
    InsertPending(Pending{0, NodeEntry<kDims>{p, oid}}, now);
    DrainPending(now);
    return true;
  };
  RunMutation(obs::FlightOp::kInsert, oid, now, insert);
}

template <int kDims>
bool Tree<kDims>::Delete(ObjectId oid, const Tpbr<kDims>& point, Time now,
                         bool see_expired) {
  sched::WriterMutexLock epoch(&epoch_mu_);
  ++op_stats_.deletes;
  if (root_ == kInvalidPageId) {
    ++op_stats_.delete_misses;
    return false;
  }
  // Canonicalize the probe so it compares equal to what Insert stored even
  // when the caller kept the record in full double precision.
  const Tpbr<kDims> p = CanonicalRecord(point);
  auto remove = [&]() REQUIRES(epoch_mu_) {
    Batch batch;
    const bool found = RemoveRecord(oid, p, now, see_expired, &batch);
    SettleBatch(&batch, now);
    DrainPending(now);
    if (!found) ++op_stats_.delete_misses;
    return found;
  };
  return RunMutation(obs::FlightOp::kDelete, oid, now, remove);
}

// ---------------------------------------------------------------------------
// Record removal.

template <int kDims>
bool Tree<kDims>::RemoveRecord(ObjectId oid, const Tpbr<kDims>& point,
                               Time now, bool see_expired, Batch* batch) {
  if (root_ == kInvalidPageId) return false;
  const PageId leaf = dat_.PinnedLeaf(oid);
  if (leaf == kInvalidPageId && dat_.Find(oid) == nullptr) {
    // The DAT tracks every physical copy; no entry means no copy anywhere
    // in the tree, so a descent could not succeed either.
    ++op_stats_.delete_bottom_up;
    return false;
  }
  if (leaf == kInvalidPageId || !ParentChainIntact(leaf)) {
    return DeleteRecurse(root_, height_ - 1, oid, point, now, see_expired,
                         batch);
  }
  // The DAT pins the object's single physical copy: the whole removal
  // resolves at that leaf, with no overlap-guided descent.
  ++op_stats_.delete_bottom_up;
  if (!batch->contains({0, leaf})) ReadNodeInto(leaf, &update_scratch_);
  return EraseLeafEntry(batch, leaf, &update_scratch_, oid, point, now,
                        see_expired);
}

template <int kDims>
bool Tree<kDims>::DeleteRecurse(PageId id, int level, ObjectId oid,
                                const Tpbr<kDims>& point, Time now,
                                bool see_expired, Batch* batch) {
  if (delete_scratch_.size() <= static_cast<size_t>(level)) {
    delete_scratch_.resize(level + 1);
  }
  Node<kDims>& node = delete_scratch_[level];
  ReadNodeInto(id, &node);
  REXP_CHECK(node.level == level);
  if (node.IsLeaf()) {
    return EraseLeafEntry(batch, id, &node, oid, point, now, see_expired);
  }
  // The record is guaranteed to lie inside every ancestor bound while it
  // is live; for an already-expired record (scheduled deletions arriving
  // slightly late) test containment at the last instant it was live.
  const Time t_test = (config_.expire_entries && point.t_exp < now)
                          ? static_cast<Time>(point.t_exp)
                          : now;
  for (const NodeEntry<kDims>& e : node.entries) {
    if (!see_expired && !config_.Live(e.region.t_exp, now)) continue;
    bool contains = true;
    for (int d = 0; contains && d < kDims; ++d) {
      double pos = point.LoAt(d, t_test);
      contains = e.region.LoAt(d, t_test) <= pos &&
                 pos <= e.region.HiAt(d, t_test);
    }
    if (!contains) continue;
    if (DeleteRecurse(e.id, level - 1, oid, point, now, see_expired,
                      batch)) {
      return true;
    }
  }
  return false;
}

template <int kDims>
int Tree<kDims>::FindLeafMatch(const Node<kDims>& leaf, ObjectId oid,
                               const Tpbr<kDims>& point, Time now,
                               bool see_expired) const {
  for (size_t i = 0; i < leaf.entries.size(); ++i) {
    const NodeEntry<kDims>& e = leaf.entries[i];
    if (e.id == oid && (see_expired || config_.Live(e.region.t_exp, now)) &&
        SameRecord(e.region, point)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

template <int kDims>
bool Tree<kDims>::EraseLeafEntry(Batch* batch, PageId id,
                                 Node<kDims>* decoded, ObjectId oid,
                                 const Tpbr<kDims>& point, Time now,
                                 bool see_expired) {
  const auto held = batch->find({0, id});
  Node<kDims>& node = held != batch->end() ? held->second : *decoded;
  const int match = FindLeafMatch(node, oid, point, now, see_expired);
  if (match < 0) return false;
  // try_emplace leaves `node` alone when it is the batch's copy already.
  Node<kDims>& leaf =
      batch->try_emplace({0, id}, std::move(node)).first->second;
  dat_.ReleaseRef(leaf.entries[match].id);
  leaf.entries.erase(leaf.entries.begin() + match);
  level_counts_[0] -= 1;
  // Only now: an expired record must be found before the purge drops it.
  PurgeExpired(&leaf, now);
  return true;
}

// ---------------------------------------------------------------------------
// Bottom-up updates (DESIGN.md §10).

template <int kDims>
Status Tree<kDims>::RebuildDat() {
  dat_.Clear();
  parent_of_.Clear();
  if (root_ == kInvalidPageId) return Status::OK();
  REXP_RETURN_IF_ERROR(
      ForEachNodeLocked([this](PageId id, const Node<kDims>& node) {
        for (const NodeEntry<kDims>& e : node.entries) {
          if (node.IsLeaf()) {
            dat_.AddRef(e.id);
            dat_.NoteLeaf(e.id, id);
          } else {
            parent_of_.Put(e.id, id);
          }
        }
      }));
  ++op_stats_.dat_rebuilds;
  return Status::OK();
}

template <int kDims>
bool Tree<kDims>::ParentChainIntact(PageId leaf) const {
  PageId id = leaf;
  int steps = 0;
  while (id != root_) {
    const PageId* parent = parent_of_.Find(id);
    if (parent == nullptr || ++steps >= height_) return false;
    id = *parent;
  }
  return steps == height_ - 1;
}

template <int kDims>
const Tpbr<kDims>* Tree<kDims>::ReadParentBound(PageId leaf,
                                                PageId* parent_id,
                                                Node<kDims>* parent) {
  if (leaf == root_) return nullptr;
  const PageId* id = parent_of_.Find(leaf);
  if (id == nullptr) return nullptr;
  if (*id != *parent_id) {
    ReadNodeInto(*id, parent);
    *parent_id = *id;
  }
  const int idx = parent->FindId(leaf);
  return idx >= 0 ? &parent->entries[idx].region : nullptr;
}

template <int kDims>
typename Tree<kDims>::Admission Tree<kDims>::Admit(
    PageId leaf, const Tpbr<kDims>* bound, const Tpbr<kDims>& rec,
    Time now) const {
  // A leaf root has no parent-facing bound to respect.
  if (leaf == root_) return Admission::kInPlace;
  if (bound == nullptr) return Admission::kNone;  // Broken parent chain.
  // Geometric cover: `bound` contains `rec` over rec's whole lifetime.
  if (config_.expire_entries && IsFiniteTime(rec.t_exp)) {
    if (rec.t_exp < now) return Admission::kNone;  // Already expired.
    // Both sides are linear in t, so endpoint containment over the
    // record's remaining lifetime is exact containment.
    if (!bound->Bounds(rec, now, rec.t_exp, 0.0)) return Admission::kNone;
  } else {
    // Unbounded lifetime (TPR mode): velocity nesting plus position
    // containment now imply containment at every t >= now.
    for (int d = 0; d < kDims; ++d) {
      if (bound->vlo[d] > rec.vlo[d] || rec.vhi[d] > bound->vhi[d] ||
          bound->LoAt(d, now) > rec.LoAt(d, now) ||
          rec.HiAt(d, now) > bound->HiAt(d, now)) {
        return Admission::kNone;
      }
    }
  }
  // Expiry cover: queries prune internal entries by effective expiry, so
  // a pure in-place write additionally needs the parent entry to outlive
  // the new record.
  if (config_.expire_entries && bound->EffectiveExpiry(0) < rec.t_exp) {
    return Admission::kPropagate;
  }
  return Admission::kInPlace;
}

template <int kDims>
bool Tree<kDims>::UpdateLocked(ObjectId oid, const Tpbr<kDims>& old_record,
                               const Tpbr<kDims>& new_record, Time now) {
  ++op_stats_.updates;
  NoteReport(now);

  // Fast path: the DAT pins the object's single physical copy to a leaf.
  const PageId leaf =
      root_ != kInvalidPageId ? dat_.PinnedLeaf(oid) : kInvalidPageId;
  if (leaf != kInvalidPageId) {
    ++op_stats_.dat_hits;
    Node<kDims>& node = update_scratch_;
    ReadNodeInto(leaf, &node);
    const int match = FindLeafMatch(node, oid, old_record, now,
                                    /*see_expired=*/false);
    // The leaf first, then its parent-facing bound.
    PageId parent = kInvalidPageId;
    const Admission admit =
        match < 0
            ? Admission::kNone
            : Admit(leaf, ReadParentBound(leaf, &parent, &fix_scratch_),
                    new_record, now);
    if (admit == Admission::kInPlace && !config_.crash_consistent) {
      // Tier 1: a single leaf write — no purge, no parent touch, zero
      // descents. Ancestors stay sound: the parent entry covers the new
      // record over its whole remaining lifetime, and every ancestor
      // covers the parent entry up to its recorded expiry, which the
      // admission rule keeps at or above the new record's.
      node.entries[match].region = new_record;
      WriteNode(leaf, node);
      ++op_stats_.update_fast;
      return true;
    }
    if (admit != Admission::kNone && ParentChainIntact(leaf)) {
      // Tier 2: replace in the leaf's batch copy, then settle it, which
      // recomputes every ancestor bound/expiry up the parent chain —
      // still no ChooseSubtree descent. This is the usual case when the
      // new record outlives the recorded parent expiry, and the only
      // admissible bottom-up form under copy-on-write (the leaf's page
      // id changes on every store).
      Batch batch;
      Node<kDims>& copy =
          batch.try_emplace({0, leaf}, std::move(node)).first->second;
      copy.entries[match].region = new_record;
      PurgeExpired(&copy, now);
      SettleBatch(&batch, now);
      DrainPending(now);
      ++op_stats_.update_fast;
      ++op_stats_.update_fast_propagations;
      return true;
    }
  } else {
    ++op_stats_.dat_misses;
  }

  // Fallback: remove the old record, then a regular insert. The removal
  // settles first, so the insert routes against the bounds it left.
  ++op_stats_.update_fallback;
  Batch batch;
  const bool found = RemoveRecord(oid, old_record, now,
                                  /*see_expired=*/false, &batch);
  SettleBatch(&batch, now);
  DrainPending(now);
  InsertPending(Pending{0, NodeEntry<kDims>{new_record, oid}}, now);
  DrainPending(now);
  return found;
}

template <int kDims>
bool Tree<kDims>::Update(ObjectId oid, const Tpbr<kDims>& old_record,
                         const Tpbr<kDims>& new_record, Time now) {
  sched::WriterMutexLock epoch(&epoch_mu_);
  auto update = [&]() REQUIRES(epoch_mu_) {
    return UpdateLocked(oid, CanonicalRecord(old_record),
                        CanonicalRecord(new_record), now);
  };
  return RunMutation(obs::FlightOp::kUpdate, oid, now, update);
}

template <int kDims>
std::vector<bool> Tree<kDims>::GroupUpdate(
    const std::vector<UpdateRequest>& requests, Time now) {
  std::vector<bool> results(requests.size(), false);
  if (requests.empty()) return results;
  sched::WriterMutexLock epoch(&epoch_mu_);
  ++op_stats_.group_update_batches;
  auto apply = [&]() REQUIRES(epoch_mu_) {
    // The parent node ReadParentBound last decoded. Nothing above the
    // leaves changes before SettleBatch, so it stays valid until then.
    PageId parent_id = kInvalidPageId;
    Node<kDims> parent;
    std::vector<char> done(requests.size(), 0);

    // Pass 1: per pinned leaf, apply every tier-1-admissible replacement
    // to one in-memory copy and write the page once. The order is by
    // (parent, leaf) — stable, so requests for the same object keep their
    // batch order — and each parent is decoded once. Copy-on-write mode
    // relocates the leaf on every store, so it leaves all to pass 2.
    if (!config_.crash_consistent) {
      struct Target {
        PageId parent, leaf;
        size_t request;
      };
      std::vector<Target> order;
      order.reserve(requests.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        const PageId leaf = root_ != kInvalidPageId
                                ? dat_.PinnedLeaf(requests[i].oid)
                                : kInvalidPageId;
        const PageId* up =
            leaf == kInvalidPageId ? nullptr : parent_of_.Find(leaf);
        order.push_back({up == nullptr ? kInvalidPageId : *up, leaf, i});
      }
      std::stable_sort(order.begin(), order.end(),
                       [](const Target& a, const Target& b) {
                         return std::tie(a.parent, a.leaf) <
                                std::tie(b.parent, b.leaf);
                       });
      // Objects with a request left to pass 2: their later requests wait
      // for it, so each object's requests stay in batch order.
      std::vector<ObjectId> deferred;
      size_t g = 0;
      while (g < order.size()) {
        const PageId leaf = order[g].leaf;
        size_t g_end = g;
        while (g_end < order.size() && order[g_end].leaf == leaf) ++g_end;
        // The leaf's parent-facing bound gates every admission in this
        // group. Unpinned requests and a broken parent chain go to pass 2.
        const Tpbr<kDims>* bound =
            leaf == kInvalidPageId ? nullptr
                                   : ReadParentBound(leaf, &parent_id, &parent);
        if (leaf == kInvalidPageId || (bound == nullptr && leaf != root_)) {
          g = g_end;
          continue;
        }
        Node<kDims>& node = update_scratch_;
        ReadNodeInto(leaf, &node);
        deferred.clear();
        bool dirty = false;
        for (size_t k = g; k < g_end; ++k) {
          const size_t i = order[k].request;
          const UpdateRequest& r = requests[i];
          const Tpbr<kDims> new_record = CanonicalRecord(r.new_record);
          const bool waits =
              !r.has_old_record ||
              std::find(deferred.begin(), deferred.end(), r.oid) !=
                  deferred.end();
          const int match =
              waits ? -1
                    : FindLeafMatch(node, r.oid, CanonicalRecord(r.old_record),
                                    now, /*see_expired=*/false);
          if (match < 0 ||
              Admit(leaf, bound, new_record, now) != Admission::kInPlace) {
            deferred.push_back(r.oid);
            continue;
          }
          node.entries[match].region = new_record;
          dirty = true;
          done[i] = 1;
          results[i] = true;
          ++op_stats_.updates;
          ++op_stats_.update_fast;
          ++op_stats_.dat_hits;
          NoteReport(now);
        }
        if (dirty) WriteNode(leaf, node);
        g = g_end;
      }
    }

    // Pass 2, in batch order, with every change held in the batch's node
    // copies until SettleBatch. A replacement the leaf's parent bound
    // admits stays in its leaf; any other old record leaves its leaf and
    // the new record joins `routed`, with the fresh objects.
    Batch batch;
    std::vector<NodeEntry<kDims>> routed;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (done[i] != 0) continue;
      const UpdateRequest& r = requests[i];
      const Tpbr<kDims> old_record = CanonicalRecord(r.old_record);
      const Tpbr<kDims> new_record = CanonicalRecord(r.new_record);
      NoteReport(now);
      results[i] = true;
      if (!r.has_old_record) {
        ++op_stats_.inserts;
        routed.push_back(NodeEntry<kDims>{new_record, r.oid});
        continue;
      }
      ++op_stats_.updates;
      // A record this batch has yet to place is the newest copy of its
      // object: a later request for the object replaces it there.
      auto pending = std::find_if(
          routed.rbegin(), routed.rend(), [&](const NodeEntry<kDims>& e) {
            return e.id == r.oid && config_.Live(e.region.t_exp, now) &&
                   SameRecord(e.region, old_record);
          });
      if (pending != routed.rend()) {
        pending->region = new_record;
        continue;
      }
      const PageId leaf =
          root_ != kInvalidPageId ? dat_.PinnedLeaf(r.oid) : kInvalidPageId;
      if (leaf != kInvalidPageId) {
        ++op_stats_.dat_hits;
        Node<kDims>& node = BatchNode(&batch, 0, leaf);
        PurgeExpired(&node, now);
        const int match = FindLeafMatch(node, r.oid, old_record, now,
                                        /*see_expired=*/false);
        if (match >= 0 &&
            Admit(leaf, ReadParentBound(leaf, &parent_id, &parent),
                  new_record, now) != Admission::kNone) {
          node.entries[match].region = new_record;
          ++op_stats_.update_fast;
          ++op_stats_.update_fast_propagations;
          continue;
        }
      } else {
        ++op_stats_.dat_misses;
      }
      ++op_stats_.update_fallback;
      results[i] = RemoveRecord(r.oid, old_record, now,
                                /*see_expired=*/false, &batch);
      routed.push_back(NodeEntry<kDims>{new_record, r.oid});
    }

    for (;;) {
      RouteBatch(&batch, 0, routed, now);
      SettleBatch(&batch, now);
      routed.clear();
      // Leaf records the settle pushed out (forced reinsertion, dissolved
      // leaves, spills) take another round; entries of internal levels
      // go first, and singly (DrainPending, highest level first).
      if (pending_.empty() ||
          std::any_of(pending_.begin(), pending_.end(),
                      [](const Pending& p) { return p.level > 0; })) {
        break;
      }
      for (const Pending& p : pending_) routed.push_back(p.entry);
      pending_.clear();
    }
    DrainPending(now);
    return true;
  };
  RunMutation(obs::FlightOp::kGroupUpdate, requests.size(), now, apply);
  return results;
}

template <int kDims>
Node<kDims>& Tree<kDims>::BatchNode(Batch* batch, int level, PageId id) {
  auto [it, added] = batch->try_emplace({level, id});
  if (added) {
    ReadNodeInto(id, &it->second);
    REXP_CHECK(it->second.level == level);
  }
  return it->second;
}

template <int kDims>
void Tree<kDims>::RouteBatch(Batch* batch, int target_level,
                             std::span<const NodeEntry<kDims>> records,
                             Time now) {
  if (records.empty()) return;
  if (root_ == kInvalidPageId) {
    // Empty tree: the first record becomes (the only entry of) a new root
    // at its own level (paper CT3.1).
    const NodeEntry<kDims>& first = records.front();
    if (target_level == 0) dat_.AddRef(first.id);
    Node<kDims> root;
    root.level = target_level;
    root.entries.push_back(first);
    InstallRoot(root);
    records = records.subspan(1);
    if (records.empty()) return;
  }
  EnsureHeightFor(target_level, now);
  if (route_scratch_.size() < static_cast<size_t>(height_)) {
    route_scratch_.resize(static_cast<size_t>(height_));
  }
  RouteBatchFrom(batch, height_ - 1, root_, target_level, records, now);
}

template <int kDims>
void Tree<kDims>::RouteBatchFrom(Batch* batch, int level, PageId id,
                                 int target_level,
                                 std::span<const NodeEntry<kDims>> records,
                                 Time now) {
  Node<kDims>& node = BatchNode(batch, level, id);
  if (level == target_level) {
    PurgeExpired(&node, now);
    for (const NodeEntry<kDims>& rec : records) {
      node.entries.push_back(rec);
      // The record gains a physical leaf placement; the leaf's store
      // pins its location.
      if (level == 0) dat_.AddRef(rec.id);
      level_counts_[level] += 1;
    }
    return;
  }
  // Each record picks its child against the node as decoded, whose
  // chosen entry then carries the record's what-if bound, so later
  // records see the earlier ones' choices. The entries are re-bounded
  // from their children as those settle.
  // (child page, record), grouped by child below. Pages, not entry
  // indices: settling a child may erase its parent entry.
  auto& [chosen, group] = route_scratch_[static_cast<size_t>(level)];
  chosen.clear();
  for (size_t r = 0; r < records.size(); ++r) {
    Tpbr<kDims> what_if;
    const int idx = ChooseSubtree(node, records[r].region, now, &what_if);
    node.entries[idx].region = what_if;
    const PageId child = node.entries[idx].id;
    // An expired what-if bound (an expired record routed into an expired
    // subtree) would be purged from this node when an earlier group's
    // target settles into it; a node the batch holds is kept.
    if (!config_.Live(what_if.t_exp, now)) BatchNode(batch, level - 1, child);
    chosen.emplace_back(child, r);
  }
  // By child, each child's records in arrival order (record indices are
  // distinct and ascending).
  std::sort(chosen.begin(), chosen.end());
  for (size_t g = 0; g < chosen.size();) {
    const PageId child = chosen[g].first;
    group.clear();
    for (; g < chosen.size() && chosen[g].first == child; ++g) {
      group.push_back(records[chosen[g].second]);
    }
    RouteBatchFrom(batch, level - 1, child, target_level, group, now);
    // A target node is final once its group is in: settle it now, so the
    // batch holds one routed target at a time.
    if (level - 1 == target_level) {
      SettleBatchNode(batch, batch->find({level - 1, child}), id, now);
    }
  }
}

template <int kDims>
void Tree<kDims>::SettleBatchNode(Batch* batch, typename Batch::iterator it,
                                  PageId parent, Time now) {
  const auto [level, id] = it->first;
  Node<kDims> node = std::move(it->second);
  batch->erase(it);
  // One split must leave two nodes that fit: the entries past that go
  // through InsertPending (DrainPending), last arrivals first.
  const int cap = codec_.Capacity(level);
  const size_t fits = static_cast<size_t>(cap + config_.MinEntries(cap));
  while (node.entries.size() > fits) {
    const NodeEntry<kDims> spill = node.entries.back();
    node.entries.pop_back();
    if (level == 0) dat_.ReleaseRef(spill.id);
    level_counts_[level] -= 1;
    pending_.push_back(Pending{level, spill});
  }
  NodeEntry<kDims> extra;
  const PageId stored = SettleNode(id, parent == kInvalidPageId,
                                   std::move(node), now, &extra);
  if (parent == kInvalidPageId) return;
  // The parent is purged before the child is re-bounded into it (the
  // purge moves level_counts_, which sets the TPBR horizon). It keeps
  // the entries of this child and of the children the batch still
  // holds: their recorded expirations predate this operation's changes.
  Node<kDims>& up = BatchNode(batch, level + 1, parent);
  PurgeExpired(&up, now, id, batch);
  ReattachChild(&up, id, stored, extra, now);
}

template <int kDims>
void Tree<kDims>::SettleBatch(Batch* batch, Time now) {
  // Map order is bottom-up, and settling a node loads its parent (a
  // later key), so the front of the map is always ready to settle.
  while (!batch->empty()) {
    const auto it = batch->begin();
    PageId parent = kInvalidPageId;
    if (it->first.second != root_) {
      const PageId* up = parent_of_.Find(it->first.second);
      REXP_CHECK(up != nullptr);
      parent = *up;
    }
    SettleBatchNode(batch, it, parent, now);
  }
}

template <int kDims>
std::vector<verify::DatSnapshotEntry> Tree<kDims>::DatSnapshotForTest()
    const {
  sched::ReaderMutexLock epoch(&epoch_mu_);
  std::vector<verify::DatSnapshotEntry> out;
  out.reserve(dat_.size());
  dat_.ForEach([&out](uint32_t oid, const DatEntry& e) {
    out.push_back(verify::DatSnapshotEntry{oid, e.leaf, e.count});
  });
  return out;
}

template <int kDims>
void Tree<kDims>::Search(const Query<kDims>& query,
                         std::vector<ObjectId>* out) {
  sched::ReaderMutexLock epoch(&epoch_mu_);
  ++op_stats_.searches;
  if (root_ == kInvalidPageId) return;
  const uint64_t io_before = buffer_.stats().Total();
  const size_t results_before = out->size();
  obs::LatencyTimer timer(&op_stats_.search_latency_us);
  uint64_t visited = 0;
  // Reader-side scratch: Search runs under a shared epoch from many
  // threads at once, so the reused stack is per-thread. After the first
  // few queries its capacity plateaus and the steady state performs no
  // heap allocation (guarded in bench/micro_tree_ops). Nodes are read
  // through a view of the pinned frame, not decoded.
  static thread_local std::vector<PageId> stack;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    const PageGuard guard = buffer_.FetchOrDie(stack.back());
    stack.pop_back();
    const NodeView<kDims> node = codec_.View(*guard);
    CountNodeRead(node.level(), /*decoded=*/false);
    ++visited;
    for (int i = 0; i < node.count(); ++i) {
      const NodeEntry<kDims> e = node.Entry(i);
      if (!Intersects(e.region, query,
                      config_.QueryExpiry(e.region, node.IsLeaf()))) {
        continue;
      }
      if (node.IsLeaf()) {
        out->push_back(e.id);
      } else {
        stack.push_back(e.id);
      }
    }
  }
  op_stats_.nodes_visited_search += visited;
  const uint64_t io = buffer_.stats().Total() - io_before;
  op_stats_.search_io.Record(static_cast<double>(io));
  // A flat summary event, not a span: searches run under shared epochs
  // from many threads at once, and interleaved span groups would be
  // unattributable. The exclusive-writer operations carry the spans.
  if (tracer_ != nullptr) {
    tracer_->Emit(
        "search",
        {{"visited", static_cast<double>(visited)},
         {"results", static_cast<double>(out->size() - results_before)},
         {"io", static_cast<double>(io)}});
  }
  obs::GlobalFlightRecorder().Record(obs::FlightOp::kSearch,
                                     out->size() - results_before,
                                     timer.ElapsedUs(), StatusCode::kOk, io);
}

// ---------------------------------------------------------------------------
// Bulk loading (sort-tile-recursive).

namespace {

// Splits `n` items into `pieces` nearly equal chunks; returns the start
// index of chunk `i`.
inline size_t ChunkStart(size_t n, size_t pieces, size_t i) {
  return n * i / pieces;
}

// Recursively orders items[begin, end) so that consecutive groups of
// (end-begin)/num_nodes items form spatial tiles: sort by the center
// coordinate of dimension `dim` at time `now`, carve into slabs, recurse
// on the remaining dimensions within each slab.
template <int kDims>
void StrOrder(std::vector<NodeEntry<kDims>>* items, size_t begin, size_t end,
              int dim, size_t num_nodes, Time now) {
  if (num_nodes <= 1 || end - begin <= 1) return;
  std::sort(items->begin() + begin, items->begin() + end,
            [dim, now](const NodeEntry<kDims>& a, const NodeEntry<kDims>& b) {
              double ca = a.region.LoAt(dim, now) + a.region.HiAt(dim, now);
              double cb = b.region.LoAt(dim, now) + b.region.HiAt(dim, now);
              return ca < cb;
            });
  if (dim == kDims - 1) return;  // Final dimension: sequential chunks.
  // Number of slabs along this dimension: the (kDims-dim)-th root of the
  // node count.
  double exponent = 1.0 / (kDims - dim);
  size_t slabs = static_cast<size_t>(
      std::ceil(std::pow(static_cast<double>(num_nodes), exponent)));
  slabs = std::clamp<size_t>(slabs, 1, num_nodes);
  size_t n = end - begin;
  for (size_t s = 0; s < slabs; ++s) {
    size_t node_lo = ChunkStart(num_nodes, slabs, s);
    size_t node_hi = ChunkStart(num_nodes, slabs, s + 1);
    if (node_hi == node_lo) continue;
    size_t item_lo = begin + ChunkStart(n, num_nodes, node_lo);
    size_t item_hi = begin + ChunkStart(n, num_nodes, node_hi);
    StrOrder(items, item_lo, item_hi, dim + 1, node_hi - node_lo, now);
  }
}

}  // namespace

template <int kDims>
std::vector<NodeEntry<kDims>> Tree<kDims>::PackLevel(
    std::vector<NodeEntry<kDims>> items, int level, Time now, double fill) {
  const int cap = codec_.Capacity(level);
  const int min_entries = config_.MinEntries(cap);
  size_t target = std::max<size_t>(
      min_entries, static_cast<size_t>(cap * fill));
  size_t num_nodes = (items.size() + target - 1) / target;
  // Keep every node at or above the minimum fill (merging the tail into
  // fewer nodes if needed); sizes stay within capacity because fill and
  // the minimum are both at most cap.
  while (num_nodes > 1 &&
         items.size() / num_nodes < static_cast<size_t>(min_entries)) {
    --num_nodes;
  }
  REXP_CHECK(num_nodes >= 1);
  REXP_CHECK(items.size() / num_nodes <= static_cast<size_t>(cap));

  StrOrder<kDims>(&items, 0, items.size(), 0, num_nodes, now);

  if (level == 0) {
    // Reference each record before its node is written so the write hook
    // can pin single-copy objects to their leaf.
    for (const NodeEntry<kDims>& item : items) dat_.AddRef(item.id);
  }

  std::vector<NodeEntry<kDims>> parents;
  parents.reserve(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    size_t lo = ChunkStart(items.size(), num_nodes, i);
    size_t hi = ChunkStart(items.size(), num_nodes, i + 1);
    Node<kDims> node;
    node.level = level;
    node.entries.assign(items.begin() + lo, items.begin() + hi);
    REXP_CHECK(static_cast<int>(node.entries.size()) <= cap);
    PageId id = AllocNode(node);
    level_counts_[level] += node.entries.size();
    // Bound the node as stored on its page (matching the insert path).
    parents.push_back(NodeEntry<kDims>{ComputeBound(ReadNode(id), now), id});
  }
  return parents;
}

template <int kDims>
void Tree<kDims>::BulkLoad(std::vector<BulkRecord> records, Time now,
                           double fill) {
  sched::WriterMutexLock epoch(&epoch_mu_);
  REXP_CHECK(root_ == kInvalidPageId && height_ == 0);
  REXP_CHECK(config_.ValidBulkFill(fill));
  if (records.empty()) return;
  const uint64_t io_before = buffer_.stats().Total();
  if (tracer_ != nullptr) {
    tracer_->BeginSpan(
        "bulk_load",
        {{"records", static_cast<double>(records.size())}, {"now", now}});
  }

  std::vector<NodeEntry<kDims>> items;
  items.reserve(records.size());
  for (const BulkRecord& r : records) {
    items.push_back(NodeEntry<kDims>{CanonicalRecord(r.point), r.oid});
  }
  level_counts_.assign(1, 0);
  int level = 0;
  for (;;) {
    items = PackLevel(std::move(items), level, now, fill);
    if (items.size() == 1) break;
    ++level;
    REXP_CHECK(level < kMaxLevels);
    level_counts_.resize(level + 1, 0);
  }
  root_ = items[0].id;
  height_ = level + 1;
  REXP_CHECK_OK(PinRoot(root_));
  REXP_CHECK_OK(CommitLocked());
  const uint64_t io = buffer_.stats().Total() - io_before;
  if (tracer_ != nullptr) {
    tracer_->EndSpan({{"height", static_cast<double>(height_)},
                      {"io", static_cast<double>(io)}});
  }
  obs::GlobalFlightRecorder().Record(obs::FlightOp::kBulkLoad,
                                     level_counts_[0], 0, StatusCode::kOk,
                                     io);
  ParanoidVerify(now);
}

template <int kDims>
void Tree<kDims>::NearestNeighbors(const Vec<kDims>& point, Time t, int k,
                                   std::vector<ObjectId>* out) {
  static thread_local std::vector<NnResult> results;  // As in Search.
  NearestNeighbors(point, t, k, &results);
  out->clear();
  for (const NnResult& r : results) out->push_back(r.oid);
}

template <int kDims>
void Tree<kDims>::NearestNeighbors(const Vec<kDims>& point, Time t, int k,
                                   std::vector<NnResult>* out,
                                   const std::function<bool(ObjectId)>& skip) {
  sched::ReaderMutexLock epoch(&epoch_mu_);
  ++op_stats_.nn_searches;
  out->clear();
  if (root_ == kInvalidPageId || k <= 0) return;
  const uint64_t io_before = buffer_.stats().Total();
  obs::LatencyTimer timer(&op_stats_.nn_latency_us);
  uint64_t visited = 0;

  // Best-first search (Hjaltason & Samet): a min-heap of pending nodes
  // and leaf objects keyed by their minimum distance at time t; at equal
  // distance nodes pop first, then objects by id, for a deterministic
  // answer.
  struct Item {
    double dist;
    bool is_object;
    uint32_t id;  // Page id or object id.

    bool operator>(const Item& other) const {
      return std::tie(dist, is_object, id) >
             std::tie(other.dist, other.is_object, other.id);
    }
  };
  // Per-thread scratch, as in Search. `best` is a max-heap of the k
  // smallest distances of the objects pushed so far. An entry farther
  // than its top would pop only after k objects, so it is not pushed:
  // the nodes visited do not change.
  static thread_local std::vector<Item> heap;
  static thread_local std::vector<double> best;
  heap.assign(1, Item{0.0, false, root_});
  best.clear();
  const size_t want = static_cast<size_t>(k);

  while (!heap.empty() && out->size() < want) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<Item>());
    const Item item = heap.back();
    heap.pop_back();
    if (item.is_object) {
      out->push_back(NnResult{item.id, item.dist});
      continue;
    }
    const PageGuard guard = buffer_.FetchOrDie(item.id);
    const NodeView<kDims> node = codec_.View(*guard);
    CountNodeRead(node.level(), /*decoded=*/false);
    ++visited;
    for (int i = 0; i < node.count(); ++i) {
      const NodeEntry<kDims> e = node.Entry(i);
      // Only entries valid at time t participate.
      if (config_.QueryExpiry(e.region, node.IsLeaf()) < t) continue;
      const double dist = MinDistSqAt(point, e.region, t);
      if (best.size() == want && dist > best.front()) continue;
      if (node.IsLeaf()) {
        if (skip && skip(e.id)) continue;
        best.push_back(dist);
        std::push_heap(best.begin(), best.end());
        if (best.size() > want) {
          std::pop_heap(best.begin(), best.end());
          best.pop_back();
        }
      }
      heap.push_back(Item{dist, node.IsLeaf(), e.id});
      std::push_heap(heap.begin(), heap.end(), std::greater<Item>());
    }
  }
  op_stats_.nodes_visited_search += visited;
  if (tracer_ != nullptr) {
    tracer_->Emit("nn_search", {{"k", static_cast<double>(k)},
                                {"visited", static_cast<double>(visited)},
                                {"results",
                                 static_cast<double>(out->size())}});
  }
  obs::GlobalFlightRecorder().Record(obs::FlightOp::kNn, out->size(),
                                     timer.ElapsedUs(), StatusCode::kOk,
                                     buffer_.stats().Total() - io_before);
}

// ---------------------------------------------------------------------------
// Introspection.

template <int kDims>
void Tree<kDims>::RegisterMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) const {
  // All bindings of this call share one owner so that destroying the
  // tree (or re-registering) removes them atomically. The previous
  // registration, if any, is dropped first: one live registration per
  // tree keeps names from colliding with themselves.
  metrics_registration_.Reset();
  const obs::OwnerId owner = registry->NewOwner();

  // Buffer-pool and device telemetry, named by the layers that own it.
  buffer_.RegisterMetrics(registry, prefix, owner);
  file_->RegisterMetrics(registry, prefix, owner);

  for (const auto& [name, counter] : TreeOpStats::kCounters) {
    registry->AddCounter(prefix + "ops." + name, &(op_stats_.*counter),
                         owner);
  }
  // Per-level node-read counters (level 0 = leaves); the top tracked
  // level absorbs anything deeper.
  for (int l = 0; l < TreeOpStats::kMaxTrackedLevels; ++l) {
    registry->AddCounter(prefix + "ops.level_reads." + std::to_string(l),
                         &op_stats_.level_reads[l], owner);
  }
  for (const auto& [name, histogram] : TreeOpStats::kHistograms) {
    registry->AddHistogram(prefix + "ops." + name, &(op_stats_.*histogram),
                           owner);
  }

  // Structure and horizon-estimator gauges. These read fields that
  // writers mutate under the exclusive epoch, so each callback takes the
  // epoch shared — the monitor thread samples them racelessly.
  registry->AddGauge(prefix + "tree.height", [this] {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return static_cast<double>(height_);
  }, owner);
  registry->AddGauge(prefix + "tree.pages", [this] {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return static_cast<double>(file_->allocated_pages());
  }, owner);
  registry->AddGauge(prefix + "tree.leaf_entries", [this] {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return static_cast<double>(leaf_entries());
  }, owner);
  registry->AddGauge(prefix + "tree.underfull_remnants", [this] {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return static_cast<double>(underfull_remnants_);
  }, owner);
  registry->AddGauge(prefix + "tree.dat_entries", [this] {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return static_cast<double>(dat_.size());
  }, owner);
  registry->AddGauge(prefix + "tree.meta_epoch", [this] {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return static_cast<double>(meta_epoch_);
  }, owner);
  registry->AddGauge(prefix + "horizon.ui", [this] {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return horizon_.ui();
  }, owner);
  registry->AddGauge(prefix + "horizon.w", [this] {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return horizon_.w();
  }, owner);
  registry->AddGauge(prefix + "horizon.h", [this] {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return horizon_.DecisionHorizon();
  }, owner);

  metrics_registration_ = registry->MakeScoped(owner);
}

template <int kDims>
StatusOr<double> Tree<kDims>::ExpiredLeafFraction(Time now) {
  uint64_t total = 0, expired = 0;
  REXP_RETURN_IF_ERROR(ForEachNode([&](PageId, const Node<kDims>& node) {
    if (!node.IsLeaf()) return;
    for (const NodeEntry<kDims>& e : node.entries) {
      ++total;
      if (e.region.t_exp < now) ++expired;
    }
  }));
  return total == 0
             ? 0.0
             : static_cast<double>(expired) / static_cast<double>(total);
}

template <int kDims>
Status Tree<kDims>::ForEachNode(const NodeVisitor& visit) {
  sched::WriterMutexLock epoch(&epoch_mu_);
  return ForEachNodeLocked(visit);
}

template <int kDims>
Status Tree<kDims>::ForEachNodeLocked(const NodeVisitor& visit) {
  if (root_ == kInvalidPageId) return Status::OK();
  std::vector<std::pair<PageId, int>> stack;
  stack.emplace_back(root_, height_ - 1);
  Node<kDims> node;
  while (!stack.empty()) {
    const auto [id, level] = stack.back();
    stack.pop_back();
    {
      REXP_ASSIGN_OR_RETURN(PageGuard guard, buffer_.Fetch(id));
      REXP_RETURN_IF_ERROR(
          HeaderStatus(id, level, codec_.DecodeChecked(*guard, level, &node)));
    }
    CountNodeRead(level, /*decoded=*/true);
    visit(id, node);
    if (level == 0) continue;
    for (const NodeEntry<kDims>& e : node.entries) {
      stack.emplace_back(e.id, level - 1);
    }
  }
  return Status::OK();
}

template <int kDims>
verify::Report Tree<kDims>::Verify(Time now,
                                   const LiveRecordVisitor& visit) {
  sched::WriterMutexLock epoch(&epoch_mu_);
  return VerifyLocked(now, visit);
}

template <int kDims>
verify::Report Tree<kDims>::VerifyLocked(Time now,
                                         const LiveRecordVisitor& visit) {
  // The verifier reads pages straight off the device, so every buffered
  // change must be on it first.
  Status flush = buffer_.FlushDirty();
  if (!flush.ok()) {
    verify::Report report;
    report.findings.push_back(verify::Finding{
        verify::CheckId::kPageChecksum, kInvalidPageId, -1,
        "flush before verification failed: " + flush.ToString()});
    return report;
  }
  verify::TreeView view;
  view.root = root_;
  view.height = height_;
  view.level_counts = level_counts_;
  view.underfull_remnants = underfull_remnants_;
  view.ui = horizon_.ui();
  view.meta_epoch = meta_epoch_;
  view.page_limit = file_->capacity_pages();
  // Live accounting: every allocated page is a meta slot, a reachable
  // node, or accounted leaked (free and quarantined pages are not
  // allocated).
  view.expected_reachable =
      file_->allocated_pages() - kNumMetaSlots - file_->leaked_pages();
  // Cross-check the direct-access table against the walk (kDatMapping).
  view.check_dat = true;
  view.dat.reserve(dat_.size());
  dat_.ForEach([&view](uint32_t oid, const DatEntry& e) {
    view.dat.push_back(verify::DatSnapshotEntry{oid, e.leaf, e.count});
  });
  verify::VerifyOptions options;
  options.now = now;
  return verify::TreeVerifier<kDims>::VerifyView(file_, config_, view,
                                                 options, visit);
}

template <int kDims>
void Tree<kDims>::ParanoidVerify(Time now) {
#ifndef REXP_PARANOID
  (void)now;
#else
  static const uint64_t sample = [] {
    const char* s = std::getenv("REXP_PARANOID_SAMPLE");
    uint64_t v = 0;
    // Unset, garbage, or zero all mean "verify every mutation".
    if (s == nullptr || !ParseU64(s, &v) || v == 0) return uint64_t{1};
    return v;
  }();
  if (++paranoid_mutations_ % sample != 0) return;
  verify::Report report = VerifyLocked(now);
  if (!report.ok()) {
    std::fprintf(stderr,
                 "REXP_PARANOID: post-mutation verification failed after "
                 "%llu mutations at now=%.6f\n%s",
                 static_cast<unsigned long long>(paranoid_mutations_), now,
                 report.ToString().c_str());
    std::fflush(stderr);
    std::abort();
  }
#endif
}

// ---------------------------------------------------------------------------

template Tpbr<1> MakeMovingPoint<1>(const Vec<1>&, const Vec<1>&, Time, Time);
template Tpbr<2> MakeMovingPoint<2>(const Vec<2>&, const Vec<2>&, Time, Time);
template Tpbr<3> MakeMovingPoint<3>(const Vec<3>&, const Vec<3>&, Time, Time);

template class Tree<1>;
template class Tree<2>;
template class Tree<3>;

}  // namespace rexp
