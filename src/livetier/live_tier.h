// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// The in-memory live tier: a page-less staging structure for ongoing
// position reports. The paper's premise is that every record carries an
// expiration time and most reports are superseded or expire quickly; LIT
// (SIGMOD 2024) showed that absorbing such short-lived data in a cheap
// in-memory structure and migrating to the heavy index only in bulk
// flattens ingest cost. This class is that structure: an object-id hash
// map holding the newest record per object, plus coarse spatial bins over
// position/velocity so window queries can prune without scanning every
// resident record.
//
// Per-object state tracks two records: `record`, the newest report (what
// queries answer with), and optionally `tree_record`, the copy that was
// last migrated into the paged tree and is now stale there. While an
// object is resident ("owned") the tier's answer wins and the tree's copy
// must be suppressed from query results. Every report also joins a
// report-ordered queue; migration pops its oldest eligible entries off
// the front (TakeBatch — skipping items a re-report or departure made
// stale, so a tick touches O(batch) residents), and the caller writes
// the batch — fresh records and replacements of tree copies — into the
// tree as one Tree::GroupUpdate in the same critical section, so no
// report can land between taking an entry and writing it.
//
// Records whose expiration passes while resident simply die in place — an
// expiry min-heap pops them lazily on the next operation, with zero page
// I/O unless a stale tree copy must be cleaned up. This is the fate the
// paper predicts for most short-lived reports, and the whole point of the
// tier.
//
// Thread safety: none. TieredIndex serializes all access, migration
// included, under one mutex and keeps the lock order live-tier-then-tree
// everywhere.

#ifndef REXP_LIVETIER_LIVE_TIER_H_
#define REXP_LIVETIER_LIVE_TIER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/query.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vec.h"
#include "obs/metrics.h"
#include "tpbr/intersect.h"
#include "tpbr/tpbr.h"
#include "tree/dat.h"

namespace rexp {

struct LiveTierOptions {
  // A record becomes eligible for migration once this many time units
  // pass since its last report (quiet objects get migrated; chatty
  // objects keep absorbing updates in memory).
  double migrate_age = 5.0;
  // Records within this much of their expiration are never migrated —
  // they are left to die in place (migrating them would pay page I/O for
  // a record about to become invisible).
  double min_residual_life = 1.0;
  // Soft occupancy bound: above this many resident objects, migration
  // ignores migrate_age and drains oldest-first.
  size_t max_resident = 8192;
  // Upper bound on records per migration batch.
  size_t max_batch = 256;
  // Coarse spatial bins for query pruning.
  size_t num_bins = 64;
  // Edge length of the grid cells hashed into bins.
  double bin_cell = 100.0;
};

template <int kDims>
class LiveTier {
 public:
  struct Stats {
    uint64_t admitted = 0;          // Fresh objects admitted.
    uint64_t updates_absorbed = 0;  // Reports that replaced a resident one.
    uint64_t died_in_place = 0;     // Expired with no tree copy: zero I/O.
    uint64_t died_with_tree_copy = 0;  // Expired; caller cleans the tree.
    uint64_t migrated = 0;          // Records handed to the tree.
    uint64_t bin_rebuilds = 0;      // Bin bound recomputations.

    // The one list of the counters; TieredIndex::RegisterMetrics binds
    // each entry as `livetier.<name>`.
    static constexpr obs::NamedField<Stats, uint64_t>
        kCounters[] = {{"admitted", &Stats::admitted},
                       {"updates_absorbed", &Stats::updates_absorbed},
                       {"died_in_place", &Stats::died_in_place},
                       {"died_with_tree_copy", &Stats::died_with_tree_copy},
                       {"migrated", &Stats::migrated},
                       {"bin_rebuilds", &Stats::bin_rebuilds}};
  };

  // One record to apply to the tree: replace `tree_record` (when present)
  // with `record`.
  struct MigrationItem {
    ObjectId oid = 0;
    Tpbr<kDims> record;
    bool has_tree_record = false;
    Tpbr<kDims> tree_record;
  };

  // An object that left the tier (expiry or deletion) possibly leaving a
  // stale copy in the tree for the caller to delete.
  struct DeadEntry {
    ObjectId oid = 0;
    bool has_tree_record = false;
    Tpbr<kDims> tree_record;
  };

  // A nearest-neighbor candidate with its exact squared distance.
  struct Candidate {
    ObjectId oid = 0;
    double dist_sq = 0;
  };

  // `expire` selects R^exp semantics: filter expired records at query
  // time. false mirrors the plain TPR-tree (expired records are reported
  // as false drops). TieredIndex passes TreeConfig::expire_entries so both
  // tiers agree.
  LiveTier(const LiveTierOptions& options, bool expire)
      : options_(options),
        expire_(expire),
        bins_(options.num_bins == 0 ? 1 : options.num_bins) {}

  size_t resident() const { return map_.size(); }
  bool Owns(ObjectId oid) const { return map_.Find(oid) != nullptr; }
  const Stats& stats() const { return stats_; }
  const LiveTierOptions& options() const { return options_; }

  // Number of resident objects that also have a (stale) copy in the tree.
  size_t owned_in_tree() const { return owned_in_tree_; }

  size_t bins_occupied() const {
    size_t n = 0;
    for (const Bin& b : bins_) n += b.members.empty() ? 0 : 1;
    return n;
  }

  // Absorbs one position report. Returns true when it replaced a resident
  // record (an absorbed update), false on fresh admission. `tree_record`,
  // when non-null on fresh admission, is a copy the caller believes the
  // tree currently holds for this object (a re-report of a previously
  // migrated record); it is remembered for migration/cleanup. Ignored
  // when the object is already resident (the entry's own tree_record
  // stays authoritative — it names what is physically in the tree).
  bool Report(ObjectId oid, const Tpbr<kDims>& record, Time now,
              const Tpbr<kDims>* tree_record = nullptr) {
    Entry* e = map_.Find(oid);
    const bool absorbed = e != nullptr;
    const uint32_t seq = ++report_seq_;
    if (absorbed) {
      RemoveFromBin(e->bin, oid);
      e->record = record;
      e->last_report = now;
      e->seq = seq;
      e->bin = AddToBin(oid, record, now);
      ++stats_.updates_absorbed;
    } else {
      Entry fresh;
      fresh.record = record;
      if (tree_record != nullptr) {
        fresh.has_tree_record = true;
        fresh.tree_record = *tree_record;
        ++owned_in_tree_;
      }
      fresh.last_report = now;
      fresh.seq = seq;
      fresh.bin = AddToBin(oid, record, now);
      map_.Put(oid, fresh);
      ++stats_.admitted;
    }
    if (IsFiniteTime(record.t_exp)) {
      expiry_heap_.push(HeapItem{record.t_exp, oid});
    }
    queue_.push_back(QueueItem{now, oid, seq});
    return absorbed;
  }

  // Removes `oid` from the tier (a deletion). Returns whether it was
  // resident; fills *dead with the tree-side cleanup obligation.
  bool Remove(ObjectId oid, DeadEntry* dead) {
    Entry* e = map_.Find(oid);
    if (e == nullptr) return false;
    dead->oid = oid;
    dead->has_tree_record = e->has_tree_record;
    dead->tree_record = e->tree_record;
    if (e->has_tree_record) --owned_in_tree_;
    RemoveFromBin(e->bin, oid);
    map_.Erase(oid);
    return true;
  }

  // The resident record for `oid`, or nullptr.
  const Tpbr<kDims>* Find(ObjectId oid) const {
    const Entry* e = map_.Find(oid);
    return e == nullptr ? nullptr : &e->record;
  }

  // Pops every record whose expiration has passed: it dies in place.
  // Entries that left a stale copy in the tree are appended to *dead so
  // the caller can delete the copy (otherwise it would resurface once the
  // object is no longer owned).
  void ExpireDue(Time now, std::vector<DeadEntry>* dead) {
    // Every report pushes a heap item and superseded items linger until
    // their (old) expiry passes; rebuild from the map when stale items
    // dominate so a long-lived chatty object cannot grow the heap
    // unboundedly.
    if (expiry_heap_.size() > 4 * map_.size() + 64) {
      std::vector<HeapItem> fresh;
      fresh.reserve(map_.size());
      map_.ForEach([&](uint32_t oid, const Entry& e) {
        if (IsFiniteTime(e.record.t_exp)) {
          fresh.push_back(HeapItem{e.record.t_exp, oid});
        }
      });
      expiry_heap_ = decltype(expiry_heap_)(std::greater<HeapItem>(),
                                            std::move(fresh));
    }
    while (!expiry_heap_.empty() && expiry_heap_.top().t_exp < now) {
      HeapItem item = expiry_heap_.top();
      expiry_heap_.pop();
      Entry* e = map_.Find(item.oid);
      // The object already left the tier, or a newer report with another
      // expiry superseded this item (that report's own item is pending).
      if (e == nullptr || e->record.t_exp != item.t_exp) continue;
      if (e->has_tree_record) {
        --owned_in_tree_;
        ++stats_.died_with_tree_copy;
        dead->push_back(DeadEntry{item.oid, true, e->tree_record});
      } else {
        ++stats_.died_in_place;
      }
      RemoveFromBin(e->bin, item.oid);
      map_.Erase(item.oid);
    }
  }

  // Takes up to options.max_batch migration-eligible records out of the
  // tier: live, not about to expire, and either quiet for migrate_age or
  // squeezed out by occupancy pressure (oldest reports first, ties by oid;
  // `force` treats every record as under pressure, for drains). The
  // caller writes each returned item into the tree before it releases
  // the lock that serializes the tier.
  //
  // Candidates come off the front of the report queue, which is in
  // report order and so — report times being non-decreasing, as the tree
  // requires of `now` — oldest first; a tick touches O(batch) residents.
  void TakeBatch(Time now, std::vector<MigrationItem>* out,
                 bool force = false) {
    out->clear();
    const bool pressure = force || map_.size() > options_.max_resident;
    // Re-reports and departures leave stale items behind; rebuild from
    // the map when they dominate, as ExpireDue does for the heap.
    if (queue_.size() > 4 * map_.size() + 64) RebuildQueue();
    std::vector<QueueItem> taken;
    while (!queue_.empty()) {
      const QueueItem item = queue_.front();
      // A full batch stops at the end of a run of equal report times:
      // the cut below orders that run by oid.
      if (!taken.empty() && taken.size() >= options_.max_batch &&
          item.last_report != taken.back().last_report) {
        break;
      }
      const Entry* e = map_.Find(item.oid);
      // The object left the tier, or re-reported (its newer item is
      // further back).
      if (e == nullptr || e->seq != item.seq) {
        queue_.pop_front();
        continue;
      }
      // Time only advances, so a dying record, or one within
      // min_residual_life of its expiry, never becomes eligible again
      // (a re-report queues it anew). It dies in place.
      if (!e->record.LiveAt(now) ||
          (IsFiniteTime(e->record.t_exp) &&
           e->record.t_exp - now < options_.min_residual_life)) {
        queue_.pop_front();
        continue;
      }
      // Every later item was reported later still.
      if (!pressure && now - item.last_report < options_.migrate_age) break;
      taken.push_back(item);
      queue_.pop_front();
    }
    const size_t take = std::min(taken.size(), options_.max_batch);
    std::partial_sort(taken.begin(), taken.begin() + take, taken.end(),
                      OlderReport);
    // What the cut leaves — the rest of one run of equal report times —
    // stays queued at the front.
    for (size_t i = taken.size(); i > take; --i) {
      queue_.push_front(taken[i - 1]);
    }
    out->reserve(take);
    for (size_t i = 0; i < take; ++i) {
      const ObjectId oid = taken[i].oid;
      const Entry* e = map_.Find(oid);
      out->push_back(
          MigrationItem{oid, e->record, e->has_tree_record, e->tree_record});
      if (e->has_tree_record) --owned_in_tree_;
      RemoveFromBin(e->bin, oid);
      map_.Erase(oid);
      ++stats_.migrated;
    }
  }

  // Appends every resident object whose record intersects the query.
  // Matches the tree's leaf predicate exactly (tpbr/intersect.h), so
  // tiered answers are indistinguishable from tree answers.
  void Search(const Query<kDims>& query, std::vector<ObjectId>* out) const {
    for (size_t i = 0; i < bins_.size(); ++i) {
      const Bin& bin = bins_[i];
      if (bin.members.empty()) continue;
      if (!Intersects(bin.bound, query,
                      expire_ ? bin.bound.t_exp : kNeverExpires)) {
        continue;
      }
      for (ObjectId oid : bin.members) {
        const Entry* e = map_.Find(oid);
        REXP_DCHECK(e != nullptr && e->bin == i);
        const Time expiry =
            expire_ ? e->record.t_exp : kNeverExpires;
        if (Intersects(e->record, query, expiry)) out->push_back(oid);
      }
    }
  }

  // Appends every resident object live at `t` with its squared distance
  // from `point` at `t`. The tier is small by construction, so a full
  // scan beats maintaining a spatial structure precise enough for NN.
  void NnCandidates(const Vec<kDims>& point, Time t,
                    std::vector<Candidate>* out) const {
    map_.ForEach([&](uint32_t oid, const Entry& e) {
      if (expire_ && !e.record.LiveAt(t)) return;
      double d2 = 0;
      for (int d = 0; d < kDims; ++d) {
        double delta = e.record.LoAt(d, t) - point[d];
        d2 += delta * delta;
      }
      out->push_back(Candidate{oid, d2});
    });
  }

  // Structural invariants (the live-tier analog of the DAT catalog):
  // every entry is reachable through exactly its own bin, bin membership
  // counts agree with the map, bin bounds conservatively cover their
  // members, and owned_in_tree matches the entry flags.
  Status CheckInvariants() const {
    size_t member_total = 0;
    size_t with_tree = 0;
    for (size_t i = 0; i < bins_.size(); ++i) {
      const Bin& bin = bins_[i];
      member_total += bin.members.size();
      for (ObjectId oid : bin.members) {
        const Entry* e = map_.Find(oid);
        if (e == nullptr) {
          return Status::Corruption("live tier: bin member " +
                                    std::to_string(oid) +
                                    " has no map entry");
        }
        if (e->bin != i) {
          return Status::Corruption("live tier: oid " + std::to_string(oid) +
                                    " member of bin " + std::to_string(i) +
                                    " but entry says " +
                                    std::to_string(e->bin));
        }
        const Tpbr<kDims>& r = e->record;
        for (int d = 0; d < kDims; ++d) {
          if (bin.bound.lo[d] > r.lo[d] || bin.bound.hi[d] < r.hi[d] ||
              bin.bound.vlo[d] > r.vlo[d] || bin.bound.vhi[d] < r.vhi[d]) {
            return Status::Corruption(
                "live tier: bin bound does not cover oid " +
                std::to_string(oid));
          }
        }
        if (bin.bound.t_exp < r.t_exp) {
          return Status::Corruption(
              "live tier: bin expiry below member expiry for oid " +
              std::to_string(oid));
        }
      }
    }
    if (member_total != map_.size()) {
      return Status::Corruption(
          "live tier: bin membership total " + std::to_string(member_total) +
          " != resident " + std::to_string(map_.size()));
    }
    map_.ForEach([&](uint32_t, const Entry& e) {
      if (e.has_tree_record) ++with_tree;
    });
    if (with_tree != owned_in_tree_) {
      return Status::Corruption("live tier: owned_in_tree counter drift");
    }
    return Status::OK();
  }

 private:
  struct Entry {
    Tpbr<kDims> record;
    Tpbr<kDims> tree_record;
    bool has_tree_record = false;
    uint32_t seq = 0;  // Sequence number of the newest report.
    Time last_report = 0;
    size_t bin = 0;
  };

  // One report in the migration queue; current while `seq` is its
  // entry's. The queue never holds 2^32 items, so a wrapped sequence
  // number cannot match a stale item.
  struct QueueItem {
    Time last_report;
    ObjectId oid;
    uint32_t seq;
  };
  // TakeBatch's order: oldest report first, ties by oid.
  static bool OlderReport(const QueueItem& a, const QueueItem& b) {
    if (a.last_report != b.last_report) return a.last_report < b.last_report;
    return a.oid < b.oid;
  }

  // Refills the queue with one current item per resident, in TakeBatch's
  // order.
  void RebuildQueue() {
    std::vector<QueueItem> items;
    items.reserve(map_.size());
    map_.ForEach([&](uint32_t oid, const Entry& e) {
      items.push_back(QueueItem{e.last_report, oid, e.seq});
    });
    std::sort(items.begin(), items.end(), OlderReport);
    queue_.assign(items.begin(), items.end());
  }

  struct HeapItem {
    Time t_exp;
    ObjectId oid;
    bool operator>(const HeapItem& other) const {
      if (t_exp != other.t_exp) return t_exp > other.t_exp;
      return oid > other.oid;
    }
  };

  struct Bin {
    Tpbr<kDims> bound;
    std::vector<ObjectId> members;
    // Removals since the bound was last recomputed; the bound never
    // shrinks on removal, so it is recomputed once enough members left.
    size_t stale_removals = 0;
  };

  size_t BinIndexFor(const Tpbr<kDims>& record, Time now) const {
    // Hash the grid cell of the position at report time; objects near
    // each other when reported share bins, which is what makes the bin
    // bound tight enough to prune.
    uint64_t h = 1469598103934665603ull;  // FNV-1a.
    for (int d = 0; d < kDims; ++d) {
      double cell = std::floor(record.LoAt(d, now) / options_.bin_cell);
      auto q = static_cast<int64_t>(cell);
      h ^= static_cast<uint64_t>(q);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h % bins_.size());
  }

  size_t AddToBin(ObjectId oid, const Tpbr<kDims>& record, Time now) {
    size_t idx = BinIndexFor(record, now);
    Bin& bin = bins_[idx];
    if (bin.members.empty()) {
      bin.bound = record;
      bin.stale_removals = 0;
    } else {
      bin.bound.Extend(record);
    }
    bin.members.push_back(oid);
    return idx;
  }

  void RemoveFromBin(size_t idx, ObjectId oid) {
    Bin& bin = bins_[idx];
    auto it = std::find(bin.members.begin(), bin.members.end(), oid);
    REXP_DCHECK(it != bin.members.end());
    if (it != bin.members.end()) {
      *it = bin.members.back();
      bin.members.pop_back();
    }
    // The bound only ever grows; once half the members since the last
    // rebuild have left, recompute it so pruning stays effective.
    if (++bin.stale_removals > bin.members.size() / 2 + 4) {
      RecomputeBound(&bin);
    }
  }

  void RecomputeBound(Bin* bin) {
    bin->stale_removals = 0;
    bool first = true;
    for (ObjectId oid : bin->members) {
      const Entry* e = map_.Find(oid);
      REXP_DCHECK(e != nullptr);
      if (e == nullptr) continue;
      if (first) {
        bin->bound = e->record;
        first = false;
      } else {
        bin->bound.Extend(e->record);
      }
    }
    ++stats_.bin_rebuilds;
  }

  LiveTierOptions options_;
  const bool expire_;
  U32HashMap<Entry> map_;
  std::vector<Bin> bins_;
  std::priority_queue<HeapItem, std::vector<HeapItem>,
                      std::greater<HeapItem>>
      expiry_heap_;
  // One item per report, in report order (TakeBatch's candidates).
  std::deque<QueueItem> queue_;
  uint32_t report_seq_ = 0;
  size_t owned_in_tree_ = 0;
  Stats stats_;
};

}  // namespace rexp

#endif  // REXP_LIVETIER_LIVE_TIER_H_
