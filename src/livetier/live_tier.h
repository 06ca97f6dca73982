// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// The in-memory live tier: a page-less staging structure for ongoing
// position reports. The paper's premise is that every record carries an
// expiration time and most reports are superseded or expire quickly; LIT
// (SIGMOD 2024) showed that absorbing such short-lived data in a cheap
// in-memory structure and migrating to the heavy index only in bulk
// flattens ingest cost. This class is that structure: spatial bins, one
// per occupied grid cell of side `bin_cell` (keyed by the cell of the
// report-time position, as MOIST keys its object store), each holding
// its members' newest records, plus an object-id hash map from each
// object to its place in its bin.
//
// A bin's bound is anchored: positions at the bin's anchor time `t_ref`
// plus velocity ranges, valid for t >= t_ref only. `t_ref` is the tier's
// latest time when the bin was created or its bound last rebuilt, so the
// bound is as tight as the members' velocity spread allows from the
// moment the bin was (re)built. A query reaching before `t_ref` scans the
// bin without pruning. Window queries test each bin's bound before its
// members; nearest-neighbor queries visit bins in order of their minimum
// distance and stop once the next one is farther than the k-th best.
//
// Each record is held once, in its bin's member array, so a query scans
// contiguous records with no hash lookup per member. The map entry holds
// the object's (bin, slot), its report bookkeeping and optionally
// `tree_record`, the copy that was last migrated into the paged tree and
// is now stale there. While an object is resident ("owned") the tier's
// answer wins and the tree's copy must be suppressed from query results.
// Every report also joins a report-ordered queue; migration pops its
// oldest eligible entries off the front (TakeBatch — skipping items a
// re-report or departure made stale, so a tick touches O(batch)
// residents), and the caller writes the batch — fresh records and
// replacements of tree copies — into the tree as one Tree::GroupUpdate
// in the same critical section, so no report can land between taking an
// entry and writing it.
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
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
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
  // Edge length of the grid cells that key the spatial bins.
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
    uint64_t members_tested = 0;    // Records examined by Search and NN.
    uint64_t migration_batches = 0;  // Non-empty batches TakeBatch gave.
    // Stale tree copies handed to the caller to delete (Remove and
    // ExpireDue); the caller deletes each one.
    uint64_t tree_cleanup_deletes = 0;

    // The one list of the counters; TieredIndex::RegisterMetrics binds
    // each entry as `livetier.<name>`.
    static constexpr obs::NamedField<Stats, uint64_t>
        kCounters[] = {{"admitted", &Stats::admitted},
                       {"updates_absorbed", &Stats::updates_absorbed},
                       {"died_in_place", &Stats::died_in_place},
                       {"died_with_tree_copy", &Stats::died_with_tree_copy},
                       {"migrated", &Stats::migrated},
                       {"bin_rebuilds", &Stats::bin_rebuilds},
                       {"members_tested", &Stats::members_tested},
                       {"migration_batches", &Stats::migration_batches},
                       {"tree_cleanup_deletes",
                        &Stats::tree_cleanup_deletes}};
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
      : options_(options), expire_(expire) {}

  size_t resident() const { return map_.size(); }
  bool Owns(ObjectId oid) const { return map_.Find(oid) != nullptr; }
  const Stats& stats() const { return stats_; }
  const LiveTierOptions& options() const { return options_; }

  // Number of resident objects that also have a (stale) copy in the tree.
  size_t owned_in_tree() const { return owned_in_tree_; }

  size_t bins_occupied() const { return cells_.size(); }

  // The tier's clock: the latest `now` it was handed. Report, ExpireDue
  // and TakeBatch advance it to their `now`; Advance does only that.
  Time latest() const { return latest_; }
  void Advance(Time now) {
    if (now > latest_) latest_ = now;
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
    Advance(now);
    Entry* e = map_.Find(oid);
    const bool absorbed = e != nullptr;
    if (absorbed) {
      RemoveFromBin(*e);
      ++stats_.updates_absorbed;
    } else {
      e = map_.FindOrInsert(oid, Entry{});
      if (tree_record != nullptr) {
        e->has_tree_record = true;
        e->tree_record = *tree_record;
        ++owned_in_tree_;
      }
      ++stats_.admitted;
    }
    e->last_report = now;
    e->seq = ++report_seq_;
    AddToBin(oid, record, now, e);
    if (IsFiniteTime(record.t_exp)) {
      expiry_heap_.push(HeapItem{record.t_exp, oid});
    }
    queue_.push_back(QueueItem{now, oid, e->seq});
    return absorbed;
  }

  // Removes `oid` from the tier (a deletion). Returns whether it was
  // resident; fills *dead with the tree-side cleanup obligation.
  bool Remove(ObjectId oid, DeadEntry* dead) {
    const Entry* e = map_.Find(oid);
    if (e == nullptr) return false;
    dead->oid = oid;
    dead->has_tree_record = e->has_tree_record;
    dead->tree_record = e->tree_record;
    if (e->has_tree_record) {
      --owned_in_tree_;
      ++stats_.tree_cleanup_deletes;
    }
    RemoveFromBin(*e);
    map_.Erase(oid);
    return true;
  }

  // The resident record for `oid`, or nullptr. Valid until the next
  // mutation of the tier.
  const Tpbr<kDims>* Find(ObjectId oid) const {
    const Entry* e = map_.Find(oid);
    return e == nullptr ? nullptr : &RecordOf(*e);
  }

  // Pops every record whose expiration has passed: it dies in place.
  // Entries that left a stale copy in the tree are appended to *dead so
  // the caller can delete the copy (otherwise it would resurface once the
  // object is no longer owned).
  void ExpireDue(Time now, std::vector<DeadEntry>* dead) {
    Advance(now);
    // Every report pushes a heap item and superseded items linger until
    // their (old) expiry passes; rebuild from the residents when stale
    // items dominate so a long-lived chatty object cannot grow the heap
    // unboundedly.
    if (expiry_heap_.size() > 4 * map_.size() + 64) {
      std::vector<HeapItem> fresh;
      fresh.reserve(map_.size());
      for (const Bin& bin : bins_) {
        for (const Member& m : bin.members) {
          if (IsFiniteTime(m.record.t_exp)) {
            fresh.push_back(HeapItem{m.record.t_exp, m.oid});
          }
        }
      }
      expiry_heap_ = decltype(expiry_heap_)(std::greater<HeapItem>(),
                                            std::move(fresh));
    }
    while (!expiry_heap_.empty() && expiry_heap_.top().t_exp < now) {
      HeapItem item = expiry_heap_.top();
      expiry_heap_.pop();
      const Entry* e = map_.Find(item.oid);
      // The object already left the tier, or a newer report with another
      // expiry superseded this item (that report's own item is pending).
      if (e == nullptr || RecordOf(*e).t_exp != item.t_exp) continue;
      if (e->has_tree_record) {
        --owned_in_tree_;
        ++stats_.died_with_tree_copy;
        ++stats_.tree_cleanup_deletes;
        dead->push_back(DeadEntry{item.oid, true, e->tree_record});
      } else {
        ++stats_.died_in_place;
      }
      RemoveFromBin(*e);
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
    Advance(now);
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
      const Tpbr<kDims>& record = RecordOf(*e);
      if (!record.LiveAt(now) ||
          (IsFiniteTime(record.t_exp) &&
           record.t_exp - now < options_.min_residual_life)) {
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
    if (take > 0) ++stats_.migration_batches;
    out->reserve(take);
    for (size_t i = 0; i < take; ++i) {
      const ObjectId oid = taken[i].oid;
      const Entry* e = map_.Find(oid);
      out->push_back(MigrationItem{oid, RecordOf(*e), e->has_tree_record,
                                   e->tree_record});
      if (e->has_tree_record) --owned_in_tree_;
      RemoveFromBin(*e);
      map_.Erase(oid);
      ++stats_.migrated;
    }
  }

  // Appends every resident object whose record intersects the query.
  // Matches the tree's leaf predicate exactly (tpbr/intersect.h), so
  // tiered answers are indistinguishable from tree answers.
  void Search(const Query<kDims>& query, std::vector<ObjectId>* out) {
    for (const Bin& bin : bins_) {
      if (bin.members.empty()) continue;
      // The bound holds from t_ref on; a query reaching earlier scans
      // the bin.
      if (query.t_lo >= bin.t_ref &&
          !Intersects(bin.bound, query,
                      expire_ ? bin.bound.t_exp : kNeverExpires)) {
        continue;
      }
      stats_.members_tested += bin.members.size();
      for (const Member& m : bin.members) {
        const Time expiry = expire_ ? m.record.t_exp : kNeverExpires;
        if (Intersects(m.record, query, expiry)) out->push_back(m.oid);
      }
    }
  }

  // Replaces *out with the (at most) k resident objects live at `t`
  // nearest to `point` at `t`, by (squared distance, oid), in no
  // particular order. Bins are visited nearest first and the walk stops
  // once the next bin is farther than the k-th best. A bin anchored
  // after `t` has no bound at `t` and counts as distance 0.
  void NnCandidates(const Vec<kDims>& point, Time t, int k,
                    std::vector<Candidate>* out) {
    out->clear();
    if (k <= 0) return;
    const auto want = static_cast<size_t>(k);
    // Min-heap of (bin distance, bin index).
    bin_order_.clear();
    for (size_t i = 0; i < bins_.size(); ++i) {
      const Bin& bin = bins_[i];
      if (bin.members.empty() || (expire_ && !bin.bound.LiveAt(t))) continue;
      const double d2 = t >= bin.t_ref ? MinDistSqAt(point, bin.bound, t) : 0;
      bin_order_.emplace_back(d2, i);
    }
    std::make_heap(bin_order_.begin(), bin_order_.end(), std::greater<>());
    // *out is a max-heap of the k nearest so far: front() is the k-th.
    const NearerFirst nearer{};
    while (!bin_order_.empty()) {
      std::pop_heap(bin_order_.begin(), bin_order_.end(), std::greater<>());
      const auto [bin_d2, idx] = bin_order_.back();
      bin_order_.pop_back();
      if (out->size() == want && bin_d2 > out->front().dist_sq) break;
      const Bin& bin = bins_[idx];
      stats_.members_tested += bin.members.size();
      for (const Member& m : bin.members) {
        if (expire_ && !m.record.LiveAt(t)) continue;
        double d2 = 0;
        for (int d = 0; d < kDims; ++d) {
          const double delta = m.record.LoAt(d, t) - point[d];
          d2 += delta * delta;
        }
        const Candidate c{m.oid, d2};
        if (out->size() < want) {
          out->push_back(c);
          std::push_heap(out->begin(), out->end(), nearer);
        } else if (nearer(c, out->front())) {
          std::pop_heap(out->begin(), out->end(), nearer);
          out->back() = c;
          std::push_heap(out->begin(), out->end(), nearer);
        }
      }
    }
  }

  // Structural invariants (the live-tier analog of the DAT catalog):
  // every entry names the bin slot holding its record, that bin is the
  // cell of the record's report-time position, membership totals agree
  // with the map, anchored bounds cover their members from t_ref on, and
  // owned_in_tree matches the entry flags.
  Status CheckInvariants() const {
    size_t member_total = 0;
    size_t occupied = 0;
    size_t with_tree = 0;
    for (size_t i = 0; i < bins_.size(); ++i) {
      const Bin& bin = bins_[i];
      if (bin.members.empty()) continue;
      ++occupied;
      member_total += bin.members.size();
      auto cell = cells_.find(bin.cell);
      if (cell == cells_.end() || cell->second != i) {
        return Status::Corruption("live tier: bin " + std::to_string(i) +
                                  " is not its cell's bin");
      }
      for (size_t slot = 0; slot < bin.members.size(); ++slot) {
        const ObjectId oid = bin.members[slot].oid;
        const Tpbr<kDims>& r = bin.members[slot].record;
        const Entry* e = map_.Find(oid);
        if (e == nullptr) {
          return Status::Corruption("live tier: bin member " +
                                    std::to_string(oid) +
                                    " has no map entry");
        }
        if (e->bin != i || e->slot != slot) {
          return Status::Corruption(
              "live tier: oid " + std::to_string(oid) + " held in bin " +
              std::to_string(i) + " slot " + std::to_string(slot) +
              " but entry says bin " + std::to_string(e->bin) + " slot " +
              std::to_string(e->slot));
        }
        if (CellOf(r, e->last_report) != bin.cell) {
          return Status::Corruption("live tier: oid " + std::to_string(oid) +
                                    " is not in the bin of its cell");
        }
        if (e->has_tree_record) ++with_tree;
        for (int d = 0; d < kDims; ++d) {
          if (bin.bound.LoAt(d, bin.t_ref) > r.LoAt(d, bin.t_ref) ||
              bin.bound.HiAt(d, bin.t_ref) < r.HiAt(d, bin.t_ref) ||
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
    if (occupied != cells_.size() ||
        occupied + free_bins_.size() != bins_.size()) {
      return Status::Corruption("live tier: cell table drift");
    }
    if (with_tree != owned_in_tree_) {
      return Status::Corruption("live tier: owned_in_tree counter drift");
    }
    return Status::OK();
  }

 private:
  struct Entry {
    uint32_t bin = 0;   // Index into bins_.
    uint32_t slot = 0;  // Index into the bin's members.
    uint32_t seq = 0;   // Sequence number of the newest report.
    bool has_tree_record = false;
    Time last_report = 0;
    Tpbr<kDims> tree_record;
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

  // Integer grid coordinates of a bin's cell.
  using Cell = std::array<int64_t, kDims>;
  struct CellHash {
    size_t operator()(const Cell& cell) const {
      uint64_t h = 1469598103934665603ull;  // FNV-1a.
      for (int64_t q : cell) {
        h ^= static_cast<uint64_t>(q);
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  struct Member {
    ObjectId oid;
    Tpbr<kDims> record;
  };

  struct Bin {
    Cell cell{};
    // The anchored bound: `at_ref` holds the members' extreme positions
    // at t_ref (lo/hi) and their velocity and expiry ranges; `bound` is
    // the same rectangle in reference-time-0 coordinates, padded by a
    // rounding slack, for Intersects. Both hold for t >= t_ref only.
    Time t_ref = 0;
    Tpbr<kDims> at_ref;
    Tpbr<kDims> bound;
    std::vector<Member> members;
    // Removals since the bound was last recomputed; the bound never
    // shrinks on removal, so it is recomputed once enough members left.
    size_t stale_removals = 0;
  };

  const Tpbr<kDims>& RecordOf(const Entry& e) const {
    return bins_[e.bin].members[e.slot].record;
  }

  Cell CellOf(const Tpbr<kDims>& record, Time now) const {
    // Clamped so a far-off position still maps to an integer cell.
    constexpr double kMaxCell = 1e15;
    Cell cell{};
    for (int d = 0; d < kDims; ++d) {
      const double c = std::floor(record.LoAt(d, now) / options_.bin_cell);
      cell[d] = static_cast<int64_t>(
          c > -kMaxCell ? (c < kMaxCell ? c : kMaxCell) : -kMaxCell);
    }
    return cell;
  }

  // `record` as seen from time t: positions at t, same velocities.
  static Tpbr<kDims> ShiftedTo(const Tpbr<kDims>& record, Time t) {
    Tpbr<kDims> s = record;
    for (int d = 0; d < kDims; ++d) {
      s.lo[d] = record.LoAt(d, t);
      s.hi[d] = record.HiAt(d, t);
    }
    return s;
  }

  // Derives `bound` from `at_ref`. The slack covers the rounding of the
  // two conversions (member positions to t_ref, t_ref back to time 0),
  // so the bound stays conservative for members exactly on its edge.
  static void SetBound(Bin* bin) {
    constexpr double kSlack = 1e-9;
    const Tpbr<kDims>& a = bin->at_ref;
    Tpbr<kDims>& b = bin->bound;
    b = a;
    for (int d = 0; d < kDims; ++d) {
      const double shift_lo = a.vlo[d] * bin->t_ref;
      const double shift_hi = a.vhi[d] * bin->t_ref;
      b.lo[d] = a.lo[d] - shift_lo -
                kSlack * (1 + std::abs(a.lo[d]) + std::abs(shift_lo));
      b.hi[d] = a.hi[d] - shift_hi +
                kSlack * (1 + std::abs(a.hi[d]) + std::abs(shift_hi));
    }
  }

  void AddToBin(ObjectId oid, const Tpbr<kDims>& record, Time now,
                Entry* e) {
    auto [cell, created] = cells_.try_emplace(CellOf(record, now), 0);
    if (created) {
      if (free_bins_.empty()) {
        cell->second = static_cast<uint32_t>(bins_.size());
        bins_.emplace_back();
      } else {
        cell->second = free_bins_.back();
        free_bins_.pop_back();
      }
    }
    Bin& bin = bins_[cell->second];
    if (created) {
      bin.cell = cell->first;
      bin.t_ref = latest_;
      bin.at_ref = ShiftedTo(record, latest_);
      bin.stale_removals = 0;
    } else {
      bin.at_ref.Extend(ShiftedTo(record, bin.t_ref));
    }
    SetBound(&bin);
    e->bin = cell->second;
    e->slot = static_cast<uint32_t>(bin.members.size());
    bin.members.push_back(Member{oid, record});
  }

  // Takes e's record out of its bin: the bin's last member moves into
  // its slot. An emptied bin gives back its storage and its index.
  void RemoveFromBin(const Entry& e) {
    Bin& bin = bins_[e.bin];
    if (e.slot + 1 != bin.members.size()) {
      bin.members[e.slot] = bin.members.back();
      map_.Find(bin.members[e.slot].oid)->slot = e.slot;
    }
    bin.members.pop_back();
    if (bin.members.empty()) {
      cells_.erase(bin.cell);
      std::vector<Member>().swap(bin.members);
      free_bins_.push_back(e.bin);
      return;
    }
    // The bound only ever grows; once half the members since the last
    // rebuild have left, recompute it (re-anchored at the tier's time)
    // so pruning stays effective.
    if (++bin.stale_removals > bin.members.size() / 2 + 4) {
      RecomputeBound(&bin);
    }
  }

  void RecomputeBound(Bin* bin) {
    bin->stale_removals = 0;
    bin->t_ref = latest_;
    bin->at_ref = ShiftedTo(bin->members.front().record, latest_);
    for (const Member& m : bin->members) {
      bin->at_ref.Extend(ShiftedTo(m.record, latest_));
    }
    SetBound(bin);
    ++stats_.bin_rebuilds;
  }

  LiveTierOptions options_;
  const bool expire_;
  Time latest_ = 0;  // The tier's clock (latest()).
  U32HashMap<Entry> map_;
  std::vector<Bin> bins_;
  std::unordered_map<Cell, uint32_t, CellHash> cells_;  // Occupied bins.
  std::vector<uint32_t> free_bins_;                      // Empty bins.
  std::vector<std::pair<double, size_t>> bin_order_;     // NN scratch.
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
