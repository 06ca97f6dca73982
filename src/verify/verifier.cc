// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "verify/verifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/float_round.h"
#include "obs/json_writer.h"

namespace rexp {
namespace verify {

const char* CheckIdName(CheckId check) {
  switch (check) {
    case CheckId::kMetaSlot:
      return "meta-slot";
    case CheckId::kPageChecksum:
      return "page-checksum";
    case CheckId::kNodeStructure:
      return "node-structure";
    case CheckId::kFanout:
      return "fanout";
    case CheckId::kOccupancy:
      return "occupancy";
    case CheckId::kLevelBookkeeping:
      return "level-bookkeeping";
    case CheckId::kParentContainment:
      return "parent-containment";
    case CheckId::kExpiryMonotonic:
      return "expiry-monotonic";
    case CheckId::kCanonicalRecord:
      return "canonical-record";
    case CheckId::kFreeList:
      return "free-list";
    case CheckId::kPageAccounting:
      return "page-accounting";
    case CheckId::kDatMapping:
      return "dat-mapping";
    case CheckId::kPartitionManifest:
      return "partition-manifest";
    case CheckId::kPartitionRouting:
      return "partition-routing";
    case CheckId::kLiveTier:
      return "live-tier";
  }
  return "unknown";
}

std::string Report::ToString() const {
  std::string s;
  if (ok()) {
    s = "clean: " + std::to_string(pages_walked) + " pages, " +
        std::to_string(entries_checked) + " entries, " +
        std::to_string(leaf_records_checked) + " leaf records verified";
    if (damaged_meta_slots > 0) {
      s += " (" + std::to_string(damaged_meta_slots) +
           " torn meta slot tolerated)";
    }
    s += "\n";
    return s;
  }
  s = std::to_string(TotalFindings()) + " finding(s):\n";
  for (const Finding& f : findings) {
    s += "  [";
    s += CheckIdName(f.check);
    s += "]";
    if (f.page != kInvalidPageId) {
      s += " page " + std::to_string(f.page);
    }
    if (f.level >= 0) {
      s += " level " + std::to_string(f.level);
    }
    s += ": " + f.detail + "\n";
  }
  if (findings_suppressed > 0) {
    s += "  ... " + std::to_string(findings_suppressed) +
         " further finding(s) suppressed\n";
  }
  return s;
}

void WriteReportJson(const Report& report, obs::JsonWriter* w) {
  w->KV("ok", report.ok());
  w->KV("findings_suppressed",
        static_cast<uint64_t>(report.findings_suppressed));
  w->Key("findings").BeginArray();
  for (const Finding& f : report.findings) {
    w->BeginObject();
    w->KV("check", CheckIdName(f.check));
    if (f.page != kInvalidPageId) {
      w->KV("page", static_cast<uint64_t>(f.page));
    }
    if (f.level >= 0) w->KV("level", static_cast<int64_t>(f.level));
    w->KV("detail", f.detail);
    w->EndObject();
  }
  w->EndArray();
}

void AddFinding(Report* report, const VerifyOptions& options, CheckId check,
                PageId page, int level, std::string detail) {
  if (report->findings.size() >= options.max_findings) {
    ++report->findings_suppressed;
    return;
  }
  report->findings.push_back(
      Finding{check, page, level, std::move(detail)});
}

namespace {

bool IsFloatExact(double x) { return ToFloatExactly(x) == x; }

std::string Num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", x);
  return buf;
}

}  // namespace

template <int kDims>
std::vector<std::string> CanonicalRecordFaults(const NodeEntry<kDims>& e) {
  std::vector<std::string> faults;
  auto fault = [&faults, &e](const std::string& what) {
    faults.push_back("oid " + std::to_string(e.id) + what);
  };
  for (int d = 0; d < kDims; ++d) {
    const double lo = e.region.lo[d];
    const double vlo = e.region.vlo[d];
    auto dim = [d] { return " dim " + std::to_string(d); };
    if (lo != e.region.hi[d] || vlo != e.region.vhi[d]) {
      fault(dim() + " is not a degenerate point");
    } else if (!std::isfinite(lo) || !std::isfinite(vlo)) {
      fault(dim() + " is not finite (pos " + Num(lo) + ", vel " + Num(vlo) +
            ")");
    } else if (!IsFloatExact(lo) || !IsFloatExact(vlo)) {
      fault(dim() + " is not float-exact");
    }
  }
  const Time t_exp = e.region.t_exp;
  if (std::isnan(t_exp) || t_exp == -std::numeric_limits<Time>::infinity()) {
    fault(" expiration " + Num(t_exp) + " is not a valid time");
  } else if (IsFiniteTime(t_exp) && !IsFloatExact(t_exp)) {
    fault(" expiration " + Num(t_exp) + " is not float-exact");
  }
  return faults;
}

template <int kDims>
Escape FindEscape(const Tpbr<kDims>& bound, const Tpbr<kDims>& region,
                  Time true_expiry, bool expire_entries,
                  Time never_expires_horizon, const VerifyOptions& options) {
  const Time now = options.now;
  Time to = true_expiry;
  if (!IsFiniteTime(to) || !expire_entries) to = never_expires_horizon;
  if (to < now) to = now;
  const int samples = std::max(0, options.horizon_samples);
  for (int s = 0; s <= samples + 1; ++s) {
    // s == 0 and s == samples + 1 hit the interval endpoints exactly.
    const Time t = now + (to - now) * static_cast<double>(s) /
                             static_cast<double>(samples + 1);
    for (int d = 0; d < kDims; ++d) {
      if (bound.LoAt(d, t) > region.LoAt(d, t) + options.eps ||
          bound.HiAt(d, t) < region.HiAt(d, t) - options.eps) {
        return Escape{d, t};
      }
    }
  }
  return Escape{};
}

template <int kDims>
struct TreeVerifier<kDims>::WalkState {
  Report* report;
  const LiveRecordVisitor* visit;
  std::unordered_set<PageId> seen;
  std::vector<uint64_t> level_entry_counts;
  // Upper bound on containment checks for never-expiring content.
  Time never_expires_horizon = 0;
  // Physical leaf copies per object id (count, leaf page of the last copy
  // seen), collected only when the view carries a DAT snapshot to
  // cross-check.
  std::unordered_map<ObjectId, std::pair<uint64_t, PageId>> leaf_copies;
};

// Recursive walker: validates the subtree rooted at `id` and returns the
// true maximum expiration time of its live contents (-infinity when the
// subtree holds no live entry, or when it could not be walked). `bound`
// is the region stored for this subtree in the parent (null at the root).
template <int kDims>
Time TreeVerifier<kDims>::WalkSubtree(PageFile* file, const TreeConfig& config,
                                      const NodeCodec<kDims>& codec,
                                      const TreeView& view,
                                      const VerifyOptions& options, PageId id,
                                      int level, const Tpbr<kDims>* bound,
                                      WalkState* state) {
  Report* report = state->report;
  constexpr Time kNoLiveContent = -std::numeric_limits<Time>::infinity();

  Page page(file->page_size());
  Status read = file->ReadPage(id, &page);
  if (!read.ok()) {
    AddFinding(report, options, CheckId::kPageChecksum, id, level,
               read.ToString());
    report->walk_complete = false;
    return kNoLiveContent;
  }
  ++report->pages_walked;

  Node<kDims> node;
  const NodeHeader header = codec.DecodeChecked(page, level, &node);
  const int cap = codec.Capacity(level);
  if (header.fault == NodeHeader::Fault::kLevel) {
    AddFinding(report, options, CheckId::kNodeStructure, id, level,
               "node level tag " + std::to_string(header.level) +
                   ", expected " + std::to_string(level));
  } else if (header.fault == NodeHeader::Fault::kCount) {
    AddFinding(report, options, CheckId::kFanout, id, level,
               std::to_string(header.count) +
                   " entries exceed the capacity of " + std::to_string(cap));
  }
  if (!header.ok()) {
    report->walk_complete = false;
    return kNoLiveContent;
  }
  const int count = header.count;
  report->entries_checked += node.entries.size();
  if (static_cast<size_t>(level) < state->level_entry_counts.size()) {
    state->level_entry_counts[level] += node.entries.size();
  }

  const bool is_root = (id == view.root);
  const int min_entries =
      std::max(2, static_cast<int>(static_cast<double>(cap) *
                                   config.min_fill_fraction));
  if (!is_root && count < min_entries) {
    // Underfull nodes may exist only within the orphan-cap budget; the
    // caller compares the total against view.underfull_remnants.
    ++report->underfull_nodes;
  }
  if (is_root && level > 0 && count < 2) {
    AddFinding(report, options, CheckId::kOccupancy, id, level,
               "internal root holds " + std::to_string(count) +
                   " entries; MaybeShrinkRoot must collapse it");
  }

  const Time now = options.now;
  Time subtree_expiry = kNoLiveContent;
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const NodeEntry<kDims>& e = node.entries[i];
    const bool live = !config.expire_entries || e.region.t_exp >= now;

    // Region sanity: every decoded coordinate must be a number.
    bool region_numeric = !std::isnan(e.region.t_exp);
    for (int d = 0; d < kDims; ++d) {
      if (std::isnan(e.region.lo[d]) || std::isnan(e.region.hi[d]) ||
          std::isnan(e.region.vlo[d]) || std::isnan(e.region.vhi[d])) {
        region_numeric = false;
      }
    }
    if (!region_numeric && level > 0) {
      AddFinding(report, options, CheckId::kNodeStructure, id, level,
                 "entry " + std::to_string(i) +
                     " holds a NaN bound coordinate");
    }

    Time true_expiry;
    if (node.IsLeaf()) {
      ++report->leaf_records_checked;
      if (live) ++report->live_leaf_entries;
      true_expiry = e.region.t_exp;
      if (view.check_dat) {
        auto& copies = state->leaf_copies[e.id];
        copies.first += 1;
        copies.second = id;
      }
      if (live && *state->visit) (*state->visit)(e);
      for (std::string& fault : CanonicalRecordFaults(e)) {
        AddFinding(report, options, CheckId::kCanonicalRecord, id, level,
                   std::move(fault));
      }
    } else {
      // Child pointer validity and acyclicity.
      if (e.id < kNumMetaSlots || e.id >= view.page_limit) {
        AddFinding(report, options, CheckId::kNodeStructure, id, level,
                   "entry " + std::to_string(i) + " references page " +
                       std::to_string(e.id) + " outside [2, " +
                       std::to_string(view.page_limit) + ")");
        report->walk_complete = false;
        continue;
      }
      if (!state->seen.insert(e.id).second) {
        AddFinding(report, options, CheckId::kNodeStructure, id, level,
                   "page " + std::to_string(e.id) +
                       " is reachable twice (cycle or shared subtree)");
        report->walk_complete = false;
        continue;
      }
      true_expiry = WalkSubtree(file, config, codec, view, options, e.id,
                                level - 1, &e.region, state);

      // Expiration-time monotonicity (paper Section 4.1.1): the decoded
      // expiry — stored, or the rectangle's natural one — must never
      // under-estimate the true lifetime of live content, else queries
      // could prune live subtrees.
      if (config.expire_entries && true_expiry >= now &&
          !(e.region.t_exp >= true_expiry - 1e-6)) {
        AddFinding(report, options, CheckId::kExpiryMonotonic, id, level,
                   "entry " + std::to_string(i) + " expiry " +
                       Num(e.region.t_exp) +
                       " under-estimates its content's lifetime " +
                       Num(true_expiry));
      }
    }

    // Per-type TPBR conservativeness (paper Section 4.1): the parent's
    // stored rectangle must contain this entry's region at every sampled
    // timestamp across the entry's bounded lifetime. Expired entries are
    // exempt — the paper requires them to be purgeable without affecting
    // query results, so no bound needs to cover them.
    if (bound != nullptr && region_numeric && live &&
        (!config.expire_entries || true_expiry >= now)) {
      const Escape escape =
          FindEscape(*bound, e.region, true_expiry, config.expire_entries,
                     state->never_expires_horizon, options);
      if (escape.escaped()) {
        const int d = escape.dim;
        const Time t = escape.t;
        AddFinding(report, options, CheckId::kParentContainment, id, level,
                   "entry " + std::to_string(i) +
                       " escapes its parent bound in dim " +
                       std::to_string(d) + " at t=" + Num(t) + " (bound [" +
                       Num(bound->LoAt(d, t)) + ", " +
                       Num(bound->HiAt(d, t)) + "], entry [" +
                       Num(e.region.LoAt(d, t)) + ", " +
                       Num(e.region.HiAt(d, t)) + "])");
      }
    }

    if (live && true_expiry > subtree_expiry) {
      subtree_expiry = true_expiry;
    }
  }
  return subtree_expiry;
}

template <int kDims>
Report TreeVerifier<kDims>::VerifyView(PageFile* file,
                                       const TreeConfig& config,
                                       const TreeView& view,
                                       const VerifyOptions& options,
                                       const LiveRecordVisitor& visit) {
  Report report;
  report.meta_epoch = view.meta_epoch;
  report.height = view.height;

  NodeCodec<kDims> codec(config.page_size, config.StoresVelocities(),
                         config.store_tpbr_expiration);

  if ((view.root == kInvalidPageId) != (view.height == 0)) {
    AddFinding(&report, options, CheckId::kMetaSlot, kInvalidPageId, -1,
               "root/height disagree: root " + std::to_string(view.root) +
                   ", height " + std::to_string(view.height));
    report.walk_complete = false;
    return report;
  }

  WalkState state;
  state.report = &report;
  state.visit = &visit;
  state.level_entry_counts.assign(
      static_cast<size_t>(std::max(view.height, 0)), 0);
  state.never_expires_horizon = options.now + 10 * view.ui;

  if (view.root != kInvalidPageId) {
    state.seen.insert(view.root);
    WalkSubtree(file, config, codec, view, options, view.root,
                view.height - 1, /*bound=*/nullptr, &state);
  }

  // Bookkeeping and accounting checks are only meaningful over a complete
  // walk; a truncated one would double-report every structural finding.
  if (report.walk_complete) {
    for (int l = 0; l < view.height; ++l) {
      const uint64_t seen_count = state.level_entry_counts[l];
      const uint64_t meta_count =
          l < static_cast<int>(view.level_counts.size())
              ? view.level_counts[l]
              : 0;
      if (seen_count != meta_count) {
        AddFinding(&report, options, CheckId::kLevelBookkeeping,
                   kInvalidPageId, l,
                   "walk found " + std::to_string(seen_count) +
                       " entries, metadata records " +
                       std::to_string(meta_count));
      }
    }
    if (report.underfull_nodes > view.underfull_remnants) {
      AddFinding(&report, options, CheckId::kOccupancy, kInvalidPageId, -1,
                 std::to_string(report.underfull_nodes) +
                     " underfull nodes exceed the orphan-cap budget of " +
                     std::to_string(view.underfull_remnants));
    }
    if (report.pages_walked != view.expected_reachable) {
      AddFinding(&report, options, CheckId::kPageAccounting, kInvalidPageId,
                 -1,
                 "walk reached " + std::to_string(report.pages_walked) +
                     " node pages; the committed state accounts for " +
                     std::to_string(view.expected_reachable) +
                     " (orphaned or double-counted pages)");
    }

    // Direct-access-table cross-check (tree/dat.h): the snapshot must
    // list exactly the object ids the leaf walk found, with matching
    // physical copy counts, and may pin a leaf page only for ids with a
    // single copy — and then only the leaf the walk saw it on.
    if (view.check_dat) {
      std::unordered_map<ObjectId, const DatSnapshotEntry*> dat_by_oid;
      dat_by_oid.reserve(view.dat.size());
      for (const DatSnapshotEntry& e : view.dat) {
        if (!dat_by_oid.emplace(e.oid, &e).second) {
          AddFinding(&report, options, CheckId::kDatMapping, kInvalidPageId,
                     -1,
                     "oid " + std::to_string(e.oid) +
                         " appears in the DAT snapshot twice");
        }
      }
      for (const auto& [oid, copies] : state.leaf_copies) {
        auto it = dat_by_oid.find(oid);
        if (it == dat_by_oid.end()) {
          AddFinding(&report, options, CheckId::kDatMapping, copies.second,
                     0,
                     "oid " + std::to_string(oid) + " has " +
                         std::to_string(copies.first) +
                         " leaf copies but no DAT entry");
          continue;
        }
        const DatSnapshotEntry& e = *it->second;
        if (e.count != copies.first) {
          AddFinding(&report, options, CheckId::kDatMapping, copies.second,
                     0,
                     "oid " + std::to_string(oid) + " has " +
                         std::to_string(copies.first) +
                         " leaf copies; the DAT records " +
                         std::to_string(e.count));
        }
        if (e.leaf != kInvalidPageId &&
            (e.count != 1 || e.leaf != copies.second)) {
          AddFinding(&report, options, CheckId::kDatMapping, e.leaf, 0,
                     "oid " + std::to_string(oid) +
                         " pins leaf page " + std::to_string(e.leaf) +
                         " (count " + std::to_string(e.count) +
                         "); the walk found its copy on page " +
                         std::to_string(copies.second));
        }
      }
      for (const DatSnapshotEntry& e : view.dat) {
        if (state.leaf_copies.count(e.oid) == 0) {
          AddFinding(&report, options, CheckId::kDatMapping, e.leaf, -1,
                     "DAT tracks oid " + std::to_string(e.oid) +
                         " (count " + std::to_string(e.count) +
                         ") but the walk found no leaf copy");
        }
      }
    }
  }

  if (view.check_free_list) {
    std::unordered_set<PageId> free_seen;
    for (PageId id : view.free_list) {
      if (id < kNumMetaSlots || id >= view.page_limit) {
        AddFinding(&report, options, CheckId::kFreeList, id, -1,
                   "free-list entry outside [2, " +
                       std::to_string(view.page_limit) + ")");
        continue;
      }
      if (!free_seen.insert(id).second) {
        AddFinding(&report, options, CheckId::kFreeList, id, -1,
                   "page appears on the free list twice");
        continue;
      }
      if (state.seen.count(id) != 0) {
        AddFinding(&report, options, CheckId::kFreeList, id, -1,
                   "free-list entry is reachable from the root (stale "
                   "free)");
      }
    }
  }
  return report;
}

template <int kDims>
Report TreeVerifier<kDims>::VerifyFile(PageFile* file,
                                       const TreeConfig& config,
                                       const VerifyOptions& options) {
  return VerifyCommitted(file, config, ReadMeta(file, kDims), options);
}

template <int kDims>
Report TreeVerifier<kDims>::VerifyCommitted(PageFile* file,
                                            const TreeConfig& config,
                                            const MetaRead& meta,
                                            const VerifyOptions& options,
                                            const LiveRecordVisitor& visit) {
  // Every return before VerifyView refuses the committed state unwalked.
  Report report;
  report.walk_complete = false;
  for (PageId slot = 0; slot < kNumMetaSlots; ++slot) {
    const MetaSlotProbe& probe = meta.slots[slot];
    if (probe.outcome == MetaSlotOutcome::kMissing) {
      AddFinding(&report, options, CheckId::kMetaSlot, kInvalidPageId, -1,
                 "file holds no complete meta slot");
      return report;
    }
    if (probe.outcome == MetaSlotOutcome::kDeviceError) {
      AddFinding(&report, options, CheckId::kMetaSlot, slot, -1,
                 "device error: " + probe.read_status.ToString());
      return report;
    }
  }
  if (!meta.found()) {
    const int dims = meta.other_dims();
    AddFinding(&report, options, CheckId::kMetaSlot, kInvalidPageId, -1,
               dims != 0 ? "no valid meta slot: the index records " +
                               std::to_string(dims) + " dims, checked as " +
                               std::to_string(kDims)
                         : "no valid meta slot (" +
                               std::to_string(meta.damaged_slots()) +
                               " damaged)");
    return report;
  }
  // One damaged slot next to a valid one is the legal signature of a
  // commit torn mid-metadata-write; it is tolerated (and reported as
  // context), exactly as Tree::Open tolerates it.
  const MetaState& state = meta.state;
  report.damaged_meta_slots = meta.damaged_slots();
  report.meta_epoch = state.epoch;
  if (meta.consistency != MetaConsistency::kConsistent) {
    AddFinding(&report, options, CheckId::kMetaSlot,
               static_cast<PageId>(meta.slot), -1,
               meta.InconsistencyDetail());
    return report;
  }

  TreeView view;
  view.meta_epoch = state.epoch;
  view.root = state.root;
  view.height = state.height;
  view.level_counts = state.level_counts;
  view.underfull_remnants = state.underfull_remnants;
  if (state.ui > 0) view.ui = state.ui;
  view.free_list = state.free_list;
  view.check_free_list = true;
  view.page_limit = state.committed;

  // Page accounting over the committed extent: every committed page is a
  // meta slot, on the free list, accounted leaked, or a reachable node.
  // (Pages the device grew past the committed extent are uncommitted
  // writes; recovery reclaims them, so they are not findings.)
  const uint64_t overhead =
      kNumMetaSlots + view.free_list.size() + state.leaked;
  if (overhead > state.committed) {
    AddFinding(&report, options, CheckId::kPageAccounting, kInvalidPageId,
               -1,
               "free list (" + std::to_string(view.free_list.size()) +
                   ") and leaked pages (" + std::to_string(state.leaked) +
                   ") exceed the committed capacity of " +
                   std::to_string(state.committed));
    return report;
  }
  view.expected_reachable = state.committed - overhead;

  Report walk = VerifyView(file, config, view, options, visit);
  walk.damaged_meta_slots = report.damaged_meta_slots;
  return walk;
}

void MergeReport(Report part, const std::string& label,
                 const VerifyOptions& options, Report* into) {
  const std::string prefix = label + ": ";
  into->pages_walked += part.pages_walked;
  into->entries_checked += part.entries_checked;
  into->leaf_records_checked += part.leaf_records_checked;
  into->live_leaf_entries += part.live_leaf_entries;
  into->underfull_nodes += part.underfull_nodes;
  into->damaged_meta_slots += part.damaged_meta_slots;
  into->findings_suppressed += part.findings_suppressed;
  into->walk_complete = into->walk_complete && part.walk_complete;
  for (Finding& f : part.findings) {
    f.detail.insert(0, prefix);
    if (into->findings.size() >= options.max_findings) {
      ++into->findings_suppressed;
    } else {
      into->findings.push_back(std::move(f));
    }
  }
}

template <int kDims>
PageId CommittedPageAtLevel(PageFile* file, const TreeConfig& config,
                            int level) {
  const MetaRead meta = ReadMeta(file, kDims);
  if (!meta.walkable() || meta.state.height - 1 < level) {
    return kInvalidPageId;
  }
  const NodeCodec<kDims> codec(config.page_size, config.StoresVelocities(),
                               config.store_tpbr_expiration);
  Page page(config.page_size);
  Node<kDims> node;
  PageId id = meta.state.root;
  for (int l = meta.state.height - 1; l > level; --l) {
    if (!file->ReadPage(id, &page).ok() ||
        !codec.DecodeChecked(page, l, &node).ok() || node.entries.empty()) {
      return kInvalidPageId;
    }
    id = node.entries[0].id;
  }
  return id;
}

template <int kDims>
bool EditCommittedNode(PageFile* file, const TreeConfig& config, int level,
                       const std::function<void(Node<kDims>*)>& edit) {
  const PageId id = CommittedPageAtLevel<kDims>(file, config, level);
  if (id == kInvalidPageId) return false;
  const NodeCodec<kDims> codec(config.page_size, config.StoresVelocities(),
                               config.store_tpbr_expiration);
  Page page(config.page_size);
  Node<kDims> node;
  if (!file->ReadPage(id, &page).ok() ||
      !codec.DecodeChecked(page, level, &node).ok() || node.entries.empty()) {
    return false;
  }
  edit(&node);
  codec.Encode(node, &page);
  return file->WritePage(id, page).ok();
}

#define REXP_INSTANTIATE(D)                                                   \
  template class TreeVerifier<D>;                                             \
  template std::vector<std::string> CanonicalRecordFaults<D>(                 \
      const NodeEntry<D>&);                                                   \
  template Escape FindEscape<D>(const Tpbr<D>&, const Tpbr<D>&, Time, bool,   \
                                Time, const VerifyOptions&);                  \
  template PageId CommittedPageAtLevel<D>(PageFile*, const TreeConfig&, int); \
  template bool EditCommittedNode<D>(PageFile*, const TreeConfig&, int,       \
                                     const std::function<void(Node<D>*)>&);

REXP_INSTANTIATE(1)
REXP_INSTANTIATE(2)
REXP_INSTANTIATE(3)
#undef REXP_INSTANTIATE

}  // namespace verify
}  // namespace rexp
