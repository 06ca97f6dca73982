// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "verify/repair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "storage/page.h"
#include "tree/meta_format.h"
#include "tree/node.h"
#include "tree/tree.h"

namespace rexp {
namespace verify {

namespace {

constexpr Time kNoLiveContent = -std::numeric_limits<Time>::infinity();

// Conservative hull of a set of entry regions in reference-time-0
// coordinates: componentwise min/max of positions and velocities, so the
// hull contains every input region for all t >= 0 (the codec additionally
// rounds the encoded bounds outward). The hull's expiry is the max input
// expiry.
template <int kDims>
Tpbr<kDims> HullOf(const std::vector<NodeEntry<kDims>>& entries) {
  REXP_CHECK(!entries.empty());
  Tpbr<kDims> h = entries[0].region;
  for (size_t i = 1; i < entries.size(); ++i) h.Extend(entries[i].region);
  return h;
}

template <int kDims>
struct FixCtx {
  PageFile* file = nullptr;
  const TreeConfig* config = nullptr;
  const NodeCodec<kDims>* codec = nullptr;
  const RepairOptions* options = nullptr;
  RepairReport* report = nullptr;
  Time now = 0;
  Time never_expires_horizon = 0;
  uint64_t committed = 0;  // Child-pointer limit (the committed extent).
  PageId root = kInvalidPageId;
  std::unordered_set<PageId> reachable;
  std::vector<uint64_t> level_counts;
  uint64_t underfull = 0;
  Status device_error = Status::OK();  // Hard kIOError to propagate.
};

template <int kDims>
struct SubtreeFix {
  bool ok = false;       // False: structural damage, repair must refuse.
  bool empty = false;    // No entries survive; parent excises the child.
  bool escaped = false;  // A surviving entry escapes the parent's bound.
  size_t entries = 0;    // Entries surviving in this node.
  Tpbr<kDims> hull;      // Conservative hull of the surviving entries.
  Time live_expiry = kNoLiveContent;
};

// The verifier's sampled containment rule: does `region` escape `bound`
// at any sampled time across its live lifetime?
template <int kDims>
bool EscapesBound(const Tpbr<kDims>& bound, const Tpbr<kDims>& region,
                  Time true_expiry, const FixCtx<kDims>& ctx) {
  return FindEscape(bound, region, true_expiry, ctx.config->expire_entries,
                    ctx.never_expires_horizon, ctx.options->verify)
      .escaped();
}

// Walks and fixes the subtree rooted at `id` bottom-up. Leaf pages drop
// expired and non-canonical records; internal pages excise entries to
// emptied subtrees and replace stored bounds that violate containment or
// expiry monotonicity with the conservative hull of the child's actual
// (post-fix) content. Returns ok == false on structural damage repair
// must not guess through.
template <int kDims>
SubtreeFix<kDims> FixSubtree(FixCtx<kDims>* ctx, PageId id, int level,
                             const Tpbr<kDims>* parent_bound) {
  SubtreeFix<kDims> out;
  RepairReport* report = ctx->report;
  Page page(ctx->file->page_size());
  Status read = ctx->file->ReadPage(id, &page);
  if (!read.ok()) {
    if (read.IsIOError()) ctx->device_error = read;
    report->actions.push_back("page " + std::to_string(id) +
                              " unreadable (" + read.message() +
                              "); in-place repair cannot recover it");
    return out;
  }
  Node<kDims> node;
  const NodeHeader header = ctx->codec->DecodeChecked(page, level, &node);
  if (!header.ok()) {
    report->actions.push_back(
        "page " + std::to_string(id) + " undecodable (level tag " +
        std::to_string(header.level) + ", count " +
        std::to_string(header.count) + "); in-place repair cannot recover it");
    return out;
  }

  const bool expire = ctx->config->expire_entries;
  const Time now = ctx->now;
  bool changed = false;
  std::vector<NodeEntry<kDims>> kept;
  kept.reserve(node.entries.size());
  Time live_expiry = kNoLiveContent;

  if (level == 0) {
    uint64_t dropped_expired = 0;
    uint64_t dropped_noncanonical = 0;
    for (const NodeEntry<kDims>& e : node.entries) {
      if (!CanonicalRecordFaults(e).empty()) {
        ++dropped_noncanonical;
        continue;
      }
      if (expire && e.region.t_exp < now) {
        ++dropped_expired;
        continue;
      }
      if (parent_bound != nullptr &&
          EscapesBound(*parent_bound, e.region, e.region.t_exp, *ctx)) {
        out.escaped = true;
      }
      if (e.region.t_exp > live_expiry) live_expiry = e.region.t_exp;
      kept.push_back(e);
    }
    if (dropped_expired + dropped_noncanonical > 0) {
      changed = true;
      report->records_dropped_expired += dropped_expired;
      report->records_dropped_noncanonical += dropped_noncanonical;
      report->actions.push_back(
          "leaf page " + std::to_string(id) + ": dropped " +
          std::to_string(dropped_expired) + " expired and " +
          std::to_string(dropped_noncanonical) +
          " non-canonical record(s)");
    }
  } else {
    uint64_t recomputed = 0;
    uint64_t excised = 0;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const NodeEntry<kDims>& e = node.entries[i];
      if (e.id < kNumMetaSlots || e.id >= ctx->committed) {
        report->actions.push_back(
            "page " + std::to_string(id) + " entry " + std::to_string(i) +
            " references page " + std::to_string(e.id) +
            " outside the committed extent; in-place repair cannot "
            "recover it");
        return out;
      }
      if (!ctx->reachable.insert(e.id).second) {
        report->actions.push_back(
            "page " + std::to_string(e.id) +
            " is reachable twice (cycle or shared subtree); in-place "
            "repair cannot recover it");
        return out;
      }
      SubtreeFix<kDims> child =
          FixSubtree(ctx, e.id, level - 1, &e.region);
      if (!child.ok) return out;
      if (child.empty) {
        ctx->reachable.erase(e.id);
        ++excised;
        changed = true;
        continue;
      }
      bool region_numeric = !std::isnan(e.region.t_exp);
      for (int d = 0; d < kDims; ++d) {
        if (std::isnan(e.region.lo[d]) || std::isnan(e.region.hi[d]) ||
            std::isnan(e.region.vlo[d]) || std::isnan(e.region.vhi[d])) {
          region_numeric = false;
        }
      }
      const bool expiry_violated =
          expire && child.live_expiry >= now &&
          !(e.region.t_exp >= child.live_expiry - 1e-6);
      const bool needs_fix =
          !region_numeric || expiry_violated || child.escaped;
      NodeEntry<kDims> fixed = e;
      if (needs_fix) {
        fixed.region = child.hull;
        ++recomputed;
        changed = true;
      }
      if (parent_bound != nullptr &&
          EscapesBound(*parent_bound, fixed.region, child.live_expiry,
                       *ctx)) {
        out.escaped = true;
      }
      if (child.live_expiry > live_expiry) live_expiry = child.live_expiry;
      kept.push_back(fixed);
    }
    if (recomputed > 0) {
      report->bounds_recomputed += recomputed;
      report->actions.push_back("page " + std::to_string(id) +
                                ": recomputed " + std::to_string(recomputed) +
                                " child bound(s) as conservative hulls");
    }
    if (excised > 0) {
      report->empty_subtrees_excised += excised;
      report->actions.push_back("page " + std::to_string(id) + ": excised " +
                                std::to_string(excised) +
                                " entry(ies) to emptied subtrees");
    }
  }

  out.ok = true;
  if (kept.empty()) {
    out.empty = true;
    ctx->reachable.erase(id);
    return out;
  }
  if (changed) {
    ++report->pages_rewritten;
    if (!ctx->options->dry_run) {
      Node<kDims> fixed_node;
      fixed_node.level = level;
      fixed_node.entries = kept;
      Page out_page(ctx->file->page_size());
      ctx->codec->Encode(fixed_node, &out_page);
      Status w = ctx->file->WritePage(id, out_page);
      if (!w.ok()) {
        ctx->device_error = w;
        out.ok = false;
        return out;
      }
    }
  }
  ctx->level_counts[static_cast<size_t>(level)] += kept.size();
  const int cap = ctx->codec->Capacity(level);
  const int min_entries =
      std::max(2, static_cast<int>(static_cast<double>(cap) *
                                   ctx->config->min_fill_fraction));
  if (id != ctx->root && kept.size() < static_cast<size_t>(min_entries)) {
    ++ctx->underfull;
  }
  out.entries = kept.size();
  out.hull = HullOf(kept);
  out.live_expiry = live_expiry;
  return out;
}

}  // namespace

template <int kDims>
StatusOr<RepairReport> TreeRepairer<kDims>::Repair(
    PageFile* file, const TreeConfig& config, const RepairOptions& options) {
  RepairReport report;
  const MetaRead read = ReadMeta(file, kDims);
  report.before = TreeVerifier<kDims>::VerifyCommitted(file, config, read,
                                                       options.verify);
  report.after = report.before;
  if (report.before.ok()) return report;  // Nothing to fix.

  // Repair starts from the newest valid slot whatever the verifier made
  // of the other one (a device error there included). A free list that
  // overruns the page is no obstacle: repair rebuilds it from the walk.
  if (!read.walkable()) {
    report.needs_salvage = true;
    report.actions.push_back(
        "no internally consistent meta slot; use salvage to rebuild from "
        "surviving leaf pages");
    return report;
  }

  NodeCodec<kDims> codec(config.page_size, config.StoresVelocities(),
                         config.store_tpbr_expiration);
  FixCtx<kDims> ctx;
  ctx.file = file;
  ctx.config = &config;
  ctx.codec = &codec;
  ctx.options = &options;
  ctx.report = &report;
  ctx.now = options.verify.now;
  const MetaState& meta = read.state;
  const double ui = meta.ui > 0 ? meta.ui : TreeView{}.ui;
  ctx.never_expires_horizon = ctx.now + 10 * ui;
  ctx.committed = meta.committed;
  ctx.root = meta.root;
  ctx.level_counts.assign(static_cast<size_t>(std::max(meta.height, 0)), 0);

  PageId root = meta.root;
  int height = meta.height;
  if (root != kInvalidPageId) {
    ctx.reachable.insert(root);
    SubtreeFix<kDims> fix =
        FixSubtree<kDims>(&ctx, root, height - 1, /*parent_bound=*/nullptr);
    if (!ctx.device_error.ok()) return ctx.device_error;
    if (!fix.ok) {
      report.needs_salvage = true;
      return report;
    }
    if (fix.empty) {
      report.actions.push_back(
          "every record expired or was dropped; the tree is now empty");
      root = kInvalidPageId;
      height = 0;
    } else if (height > 1 && fix.entries == 1) {
      // An internal root with a single surviving entry must collapse
      // (MaybeShrinkRoot's invariant). Chains of single-entry internal
      // nodes collapse iteratively off the rewritten pages; in a dry run
      // only the first step is known without writing, which is enough
      // for planning.
      report.root_collapsed = true;
      if (options.dry_run) {
        report.actions.push_back("would collapse the single-entry root");
      } else {
        while (height > 1) {
          Page page(file->page_size());
          Node<kDims> node;
          Status s = file->ReadPage(root, &page);
          if (s.IsIOError()) return s;
          if (!s.ok() || !codec.DecodeChecked(page, height - 1, &node).ok()) {
            report.needs_salvage = true;
            return report;
          }
          if (node.entries.size() != 1) break;
          ctx.reachable.erase(root);
          ctx.level_counts[static_cast<size_t>(height - 1)] -= 1;
          report.actions.push_back("collapsed single-entry root page " +
                                   std::to_string(root));
          root = node.entries[0].id;
          --height;
        }
      }
    }
  }

  // Rebuild page accounting from the reachability walk: every device page
  // that is not a meta slot and not reachable is free. This reclaims
  // orphans, drops stale free-list entries, and absorbs uncommitted
  // growth past the old committed extent in one stroke.
  const uint64_t device_capacity = file->capacity_pages();
  std::vector<PageId> free_ids;
  free_ids.reserve(static_cast<size_t>(device_capacity));
  std::unordered_set<PageId> old_free(meta.free_list.begin(),
                                      meta.free_list.end());
  for (uint64_t id = kNumMetaSlots; id < device_capacity; ++id) {
    const PageId pid = static_cast<PageId>(id);
    if (ctx.reachable.count(pid) != 0) continue;
    free_ids.push_back(pid);
    if (old_free.count(pid) == 0) ++report.pages_reclaimed;
  }
  report.actions.push_back(
      "rebuilt free list from the reachability walk: " +
      std::to_string(free_ids.size()) + " free page(s), " +
      std::to_string(report.pages_reclaimed) + " newly reclaimed");
  report.actions.push_back(
      "re-committing meta at epoch " + std::to_string(meta.epoch + 1) +
      " (the in-memory direct-access table rebuilds on next open)");

  report.meta_rewritten = true;
  if (!options.dry_run) {
    MetaState repaired;
    repaired.epoch = meta.epoch + 1;
    repaired.root = root;
    repaired.height = height;
    repaired.committed = device_capacity;
    repaired.underfull_remnants = ctx.underfull;
    repaired.ui = ui;
    repaired.level_counts = std::move(ctx.level_counts);
    repaired.free_list = std::move(free_ids);
    Page page(config.page_size);
    EncodeMeta(kDims, repaired, &page);
    REXP_RETURN_IF_ERROR(file->WritePage(
        static_cast<PageId>(repaired.epoch & 1), page));
    REXP_RETURN_IF_ERROR(file->Sync());
    report.after =
        TreeVerifier<kDims>::VerifyFile(file, config, options.verify);
  } else {
    report.meta_rewritten = false;
    report.pages_rewritten = 0;  // Planned only; nothing was written.
  }
  return report;
}

template <int kDims>
StatusOr<SalvageReport> TreeRepairer<kDims>::Salvage(
    PageFile* damaged, PageFile* fresh, const TreeConfig& config,
    const SalvageOptions& options,
    std::vector<QuarantinedPage>* quarantine) {
  SalvageReport report;
  if (!options.dry_run &&
      (fresh == nullptr || fresh->capacity_pages() != 0)) {
    return Status::InvalidArgument(
        "salvage target must be an empty page file");
  }

  NodeCodec<kDims> codec(config.page_size, config.StoresVelocities(),
                         config.store_tpbr_expiration);
  // Newest-expiration-wins dedup across every physical copy found: stale
  // copies of a record left behind by node relocation carry the same
  // expiration and collapse onto the live one.
  std::unordered_map<ObjectId, Tpbr<kDims>> survivors;
  Page page(damaged->page_size());
  for (uint64_t id = kNumMetaSlots; id < damaged->capacity_pages(); ++id) {
    const PageId pid = static_cast<PageId>(id);
    ++report.pages_scanned;
    Status s = damaged->ReadPage(pid, &page);
    if (!s.ok()) {
      ++report.pages_quarantined;
      if (quarantine != nullptr) {
        QuarantinedPage q;
        q.page = pid;
        q.reason = s.ToString();
        q.frame.assign(damaged->frame_size(), 0);
        (void)damaged->ReadFrame(pid, q.frame.data());
        quarantine->push_back(std::move(q));
      }
      continue;
    }
    Node<kDims> node;
    if (!codec.DecodeChecked(page, /*expected_level=*/0, &node).ok()) {
      continue;  // Internal node (no records) or not a tree page at all.
    }
    ++report.leaf_pages;
    for (const NodeEntry<kDims>& e : node.entries) {
      ++report.records_seen;
      if (!CanonicalRecordFaults(e).empty()) {
        ++report.records_dropped_noncanonical;
        continue;
      }
      if (config.expire_entries && e.region.t_exp < options.now) {
        ++report.records_dropped_expired;
        continue;
      }
      auto [it, inserted] = survivors.emplace(e.id, e.region);
      if (!inserted) {
        ++report.duplicates_resolved;
        if (e.region.t_exp > it->second.t_exp) it->second = e.region;
      }
    }
  }
  report.records_salvaged = survivors.size();
  if (options.dry_run) return report;

  std::vector<typename Tree<kDims>::BulkRecord> records;
  records.reserve(survivors.size());
  for (const auto& [oid, region] : survivors) {
    records.push_back({oid, region});
  }
  // Deterministic load order regardless of hash-map iteration.
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.oid < b.oid; });
  {
    REXP_ASSIGN_OR_RETURN(auto tree, Tree<kDims>::Open(config, fresh));
    tree->BulkLoad(std::move(records), options.now, options.fill);
  }  // Destruction commits the fresh tree.
  VerifyOptions verify = options.verify;
  verify.now = options.now;
  report.after = TreeVerifier<kDims>::VerifyFile(fresh, config, verify);
  return report;
}

template class TreeRepairer<1>;
template class TreeRepairer<2>;
template class TreeRepairer<3>;

}  // namespace verify
}  // namespace rexp
