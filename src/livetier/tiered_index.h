// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// TieredIndex: the paged R^exp-tree fronted by the in-memory live tier.
// Position reports land in the live tier without touching a page; window
// and nearest-neighbor queries consult both tiers and merge with
// newest-per-oid-wins semantics; short-expiry records die in place;
// each migration tick moves one batch of quiet records into the tree as
// one GroupUpdate — fresh objects and replacements of their stale tree
// copies together, one tree mutation, one write-back. The
// public surface mirrors Tree so harnesses, verifiers, telemetry, and
// benchmarks run against either engine unchanged; Verify(now) checks
// both tiers and returns one verify::Report, as Tree::Verify does.
//
// Object-lifecycle contract (DESIGN.md §12):
//   * Insert introduces an object not currently indexed; Update
//     re-reports one that is. While an object is resident in the live
//     tier, the tier's record is the object's record — any copy in the
//     tree is a superseded prior report and is suppressed from answers.
//   * Records still in the live tier are volatile by design: a crash
//     loses exactly the reports that were never migrated, never a
//     migrated one. Commit persists the tree only.
//   * One critical section per operation: every public operation,
//     migration ticks included, holds the live-tier mutex from start to
//     finish, and calls into the tree (whose epoch mutex it takes next)
//     from inside it. Nothing takes them in the other order. A migration
//     tick therefore takes its batch out of the tier and writes it into
//     the tree with no report, delete or query in between, and a query
//     suppresses a tree hit by probing the tier's table directly.
//   * Migration runs on the caller's thread: MigrateTick from a loop (or
//     a thread the caller owns), and a pressure tick inside Insert or
//     Update once the tier holds more than max_resident objects.

#ifndef REXP_LIVETIER_TIERED_INDEX_H_
#define REXP_LIVETIER_TIERED_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/query.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "common/vec.h"
#include "livetier/live_tier.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "sched/mutex.h"
#include "storage/page_file.h"
#include "tree/tree.h"
#include "tree/tree_config.h"
#include "verify/verifier.h"

namespace rexp {

template <int kDims>
class TieredIndex {
 public:
  TieredIndex(const TreeConfig& config, PageFile* file,
              const LiveTierOptions& live_options = LiveTierOptions{})
      : tree_(config, file), live_(live_options, config.expire_entries) {}

  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;

  // Introduces an object that is not currently indexed. The report is
  // absorbed in memory; no page is touched. (Re-inserting a resident oid
  // degrades to last-write-wins, like a self-update.)
  void Insert(ObjectId oid, const Tpbr<kDims>& point, Time now)
      EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    AdvanceTimeLocked(now);
    ExpireAndCleanLocked(now);
    live_.Report(oid, point, now);
    RelievePressureLocked();
  }

  // Re-reports a resident or previously migrated object; equivalent to
  // Tree::Update. When the old record lives in the tree, its replacement
  // is deferred to migration (the live record supersedes it in every
  // answer immediately). Returns whether the old record matched the
  // object's current record — for a deferred tree-side replacement this
  // is reported optimistically as true, settled by GroupUpdate later.
  [[nodiscard]] bool Update(ObjectId oid, const Tpbr<kDims>& old_record,
                            const Tpbr<kDims>& new_record, Time now)
      EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    AdvanceTimeLocked(now);
    ExpireAndCleanLocked(now);
    bool found = true;
    const Tpbr<kDims>* current = live_.Find(oid);
    if (current != nullptr) {
      found = SameRecord(*current, old_record);
      live_.Report(oid, new_record, now);
    } else {
      // The old copy (if it exists and is unexpired) is in the tree;
      // remember it so migration replaces rather than duplicates it.
      live_.Report(oid, new_record, now, &old_record);
    }
    RelievePressureLocked();
    return found;
  }

  // Deletes the object's current record if it matches `point`; mirrors
  // Tree::Delete (false when the record expired first or never existed).
  [[nodiscard]] bool Delete(ObjectId oid, const Tpbr<kDims>& point, Time now)
      EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    AdvanceTimeLocked(now);
    ExpireAndCleanLocked(now);
    const Tpbr<kDims>* current = live_.Find(oid);
    if (current != nullptr) {
      if (!SameRecord(*current, point)) return false;
      typename LiveTier<kDims>::DeadEntry dead;
      live_.Remove(oid, &dead);
      if (dead.has_tree_record) {
        (void)tree_.Delete(oid, dead.tree_record, now, /*see_expired=*/true);
        ++tree_cleanup_deletes_;
      }
      return true;
    }
    return tree_.Delete(oid, point, now);
  }

  // Window query over both tiers. For objects resident in the live tier
  // the tier's record answers; tree hits for those objects are prior
  // reports and are suppressed. One critical section covers both tiers
  // (live-then-tree lock order), so no migration tick can run between
  // the live scan and the ownership probes of the tree hits.
  void Search(const Query<kDims>& query, std::vector<ObjectId>* out)
      EXCLUDES(mu_) {
    out->clear();
    sched::MutexLock lk(&mu_);
    live_.Search(query, out);
    const auto live_hits = static_cast<std::ptrdiff_t>(out->size());
    tree_.Search(query, out);
    const LiveTier<kDims>& live = live_;
    auto owned = [&live](ObjectId oid) { return live.Owns(oid); };
    auto tree_hits = out->begin() + live_hits;
    out->erase(std::remove_if(tree_hits, out->end(), owned), out->end());
  }

  // k-nearest-neighbors across both tiers (ascending distance, ties by
  // object id — identical to Tree::NearestNeighbors and the reference
  // oracle). The tree is asked for exactly k neighbors with the owned
  // objects skipped, so suppressed stale copies cannot crowd out genuine
  // neighbors.
  void NearestNeighbors(const Vec<kDims>& point, Time t, int k,
                        std::vector<ObjectId>* out) EXCLUDES(mu_) {
    out->clear();
    if (k <= 0) return;
    // Per-thread scratch, as in Tree: steady-state queries allocate
    // nothing (gated in bench/micro_tree_ops).
    static thread_local std::vector<typename LiveTier<kDims>::Candidate>
        candidates;
    static thread_local std::vector<typename Tree<kDims>::NnResult>
        tree_results;
    candidates.clear();
    {
      sched::MutexLock lk(&mu_);
      live_.NnCandidates(point, t, &candidates);
      const LiveTier<kDims>& live = live_;
      auto owned = [&live](ObjectId oid) { return live.Owns(oid); };
      tree_.NearestNeighbors(point, t, k, &tree_results, owned);
    }
    for (const auto& r : tree_results) {
      candidates.push_back({r.oid, r.dist_sq});
    }
    auto nearer = [](const auto& a, const auto& b) {
      if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
      return a.oid < b.oid;
    };
    const auto keep = std::min(static_cast<std::ptrdiff_t>(candidates.size()),
                               static_cast<std::ptrdiff_t>(k));
    std::partial_sort(candidates.begin(), candidates.begin() + keep,
                      candidates.end(), nearer);
    for (auto it = candidates.begin(); it != candidates.begin() + keep; ++it) {
      out->push_back(it->oid);
    }
  }

  // Runs one migration step at the index's current logical time and
  // returns how many records moved: expired records die, then one batch
  // of quiet records (all of them under occupancy pressure) moves into
  // the tree. The whole tick holds the live-tier mutex, so a caller that
  // wants migration off its report path runs this from a thread of its
  // own; reports from other threads wait for up to one tick.
  size_t MigrateTick() EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    return MigrateTickLocked(/*drain=*/false);
  }

  // Migrates every record the policy would ever migrate (ignoring age,
  // honoring min_residual_life: records about to expire still die in
  // place). Returns the number migrated. Used for clean shutdown and by
  // crash-semantics tests to establish the "post-migration" tree state.
  size_t DrainLiveTier(Time now) EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    AdvanceTimeLocked(now);
    size_t total = 0;
    while (const size_t moved = MigrateTickLocked(/*drain=*/true)) {
      total += moved;
    }
    return total;
  }

  // Flushes the tree to stable storage. Live-tier records are volatile
  // by design and are NOT persisted — drain first if they must survive.
  Status Commit() { return tree_.Commit(); }

  // Checks both tiers, always: the tree's full invariant catalog
  // (Tree::Verify) plus one kLiveTier finding when the live tier's
  // structure is inconsistent. Never aborts.
  verify::Report Verify(Time now) EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    verify::Report report = tree_.Verify(now);
    const Status live = live_.CheckInvariants();
    if (!live.ok()) {
      report.findings.push_back(verify::Finding{
          verify::CheckId::kLiveTier, kInvalidPageId, -1, live.ToString()});
    }
    return report;
  }

  Tree<kDims>& tree() { return tree_; }

  // The tree's metrics: the live tier touches no page.
  uint64_t TotalIo() const { return tree_.TotalIo(); }
  uint64_t PagesUsed() const { return tree_.PagesUsed(); }
  double ExpiredLeafFraction(Time now) {
    return tree_.ExpiredLeafFraction(now);
  }

  // Reference to the live tier for quiescent inspection (tests, drained
  // shutdown). NO_THREAD_SAFETY_ANALYSIS: hands out mu_-guarded state;
  // callers must ensure no other thread is using the index.
  const LiveTier<kDims>& live_tier() const NO_THREAD_SAFETY_ANALYSIS {
    return live_;
  }

  // Counters are mutated under mu_ by ticks that may run on another
  // thread, so sampling them must take the lock too (an unlocked read
  // here raced with MigrateTick; see
  // TieredConcurrency.CounterAccessorsLocked).
  uint64_t migration_batches() const EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    return migration_batches_;
  }
  uint64_t tree_cleanup_deletes() const EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    return tree_cleanup_deletes_;
  }

  // Registers the inner tree under `prefix` + "tree." and the live tier
  // under `prefix` + "livetier.": admission/death/migration counters,
  // resident/bin gauges, and the migration batch-size and tick-latency
  // histograms. Counter reads take the live-tier mutex (the monitor
  // samples from its own thread).
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) {
    tree_.RegisterMetrics(registry, prefix + "tree.");
    metrics_registration_.Reset();
    const obs::OwnerId owner = registry->NewOwner();
    for (const auto& [name, field] : LiveTier<kDims>::Stats::kCounters) {
      registry->AddCounter(prefix + "livetier." + name,
                           [this, counter = field]() -> uint64_t {
                             sched::MutexLock lk(&mu_);
                             return live_.stats().*counter;
                           },
                           owner);
    }
    registry->AddCounter(prefix + "livetier.migration_batches",
                         std::function<uint64_t()>([this] {
                           sched::MutexLock lk(&mu_);
                           return migration_batches_;
                         }),
                         owner);
    registry->AddCounter(prefix + "livetier.tree_cleanup_deletes",
                         std::function<uint64_t()>([this] {
                           sched::MutexLock lk(&mu_);
                           return tree_cleanup_deletes_;
                         }),
                         owner);
    registry->AddGauge(prefix + "livetier.resident",
                       [this] {
                         sched::MutexLock lk(&mu_);
                         return static_cast<double>(live_.resident());
                       },
                       owner);
    registry->AddGauge(prefix + "livetier.owned_in_tree",
                       [this] {
                         sched::MutexLock lk(&mu_);
                         return static_cast<double>(live_.owned_in_tree());
                       },
                       owner);
    registry->AddGauge(prefix + "livetier.bins_occupied",
                       [this] {
                         sched::MutexLock lk(&mu_);
                         return static_cast<double>(live_.bins_occupied());
                       },
                       owner);
    registry->AddHistogram(prefix + "livetier.migration_batch_size",
                           &migration_batch_size_, owner);
    registry->AddHistogram(prefix + "livetier.tick_latency_us",
                           &tick_latency_us_, owner);
    metrics_registration_ = registry->MakeScoped(owner);
  }

 private:
  void AdvanceTimeLocked(Time now) REQUIRES(mu_) {
    if (now > last_now_) last_now_ = now;
  }

  // Pops expired live records; the ones that left a stale tree copy get
  // the copy deleted here (live-then-tree lock order, so calling into
  // the tree under mu_ is safe).
  void ExpireAndCleanLocked(Time now) REQUIRES(mu_) {
    dead_scratch_.clear();
    live_.ExpireDue(now, &dead_scratch_);
    for (const auto& dead : dead_scratch_) {
      if (!dead.has_tree_record) continue;
      (void)tree_.Delete(dead.oid, dead.tree_record, now, /*see_expired=*/true);
      ++tree_cleanup_deletes_;
    }
  }

  // Body of MigrateTick and DrainLiveTier (`drain` migrates regardless of
  // age). TakeBatch removes the batch from the tier and the tree writes
  // follow under the same lock, so nothing can report, delete or query
  // one of these objects until the tree holds its migrated record.
  size_t MigrateTickLocked(bool drain) REQUIRES(mu_) {
    obs::LatencyTimer timer(&tick_latency_us_);
    const Time now = last_now_;
    ExpireAndCleanLocked(now);
    std::vector<typename LiveTier<kDims>::MigrationItem> batch;
    live_.TakeBatch(now, &batch, drain);
    if (batch.empty()) return 0;
    // One tree mutation per tick: fresh objects and replacements of
    // their tree copies go in one GroupUpdate.
    std::vector<typename Tree<kDims>::UpdateRequest> requests;
    requests.reserve(batch.size());
    for (const auto& item : batch) {
      requests.push_back(
          {item.oid, item.tree_record, item.record, item.has_tree_record});
    }
    // Per-request results were already reported (optimistically) by
    // Update; the settle here has nothing further to do with them.
    (void)tree_.GroupUpdate(requests, now);
    ++migration_batches_;
    migration_batch_size_.Record(static_cast<double>(batch.size()));
    return batch.size();
  }

  // The pressure tick: a report that takes the tier past max_resident
  // migrates one batch before it returns.
  void RelievePressureLocked() REQUIRES(mu_) {
    if (live_.resident() > live_.options().max_resident) {
      (void)MigrateTickLocked(/*drain=*/false);
    }
  }

  Tree<kDims> tree_;
  mutable sched::Mutex mu_{sched::LockRank::kLiveTier, "live_tier"};
  LiveTier<kDims> live_ GUARDED_BY(mu_);
  Time last_now_ GUARDED_BY(mu_) = 0;
  std::vector<typename LiveTier<kDims>::DeadEntry> dead_scratch_
      GUARDED_BY(mu_);
  uint64_t migration_batches_ GUARDED_BY(mu_) = 0;
  uint64_t tree_cleanup_deletes_ GUARDED_BY(mu_) = 0;
  obs::Histogram migration_batch_size_{
      obs::ExponentialBounds(1.0, 2.0, 12)};
  // Wall time of each migration tick (MigrateTickLocked), batch or not.
  obs::Histogram tick_latency_us_{obs::LatencyBoundsUs()};
  mutable obs::ScopedRegistration metrics_registration_;
};

}  // namespace rexp

#endif  // REXP_LIVETIER_TIERED_INDEX_H_
