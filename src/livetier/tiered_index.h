// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// TieredIndex: the paged R^exp-tree fronted by the in-memory live tier.
// Position reports land in the live tier without touching a page; window
// and nearest-neighbor queries consult both tiers and merge with
// newest-per-oid-wins semantics; short-expiry records die in place; a
// background migrator drains quiet records into the tree in batches via
// GroupUpdate (which sorts them by their DAT-pinned target leaf). The
// public surface mirrors Tree so harnesses, verifiers, telemetry, and
// benchmarks run against either engine unchanged.
//
// Object-lifecycle contract (DESIGN.md §12):
//   * Insert introduces an object not currently indexed; Update
//     re-reports one that is. While an object is resident in the live
//     tier, the tier's record is the object's record — any copy in the
//     tree is a superseded prior report and is suppressed from answers.
//   * Records still in the live tier are volatile by design: a crash
//     loses exactly the reports that were never migrated, never a
//     migrated one (migration writes the tree before releasing the
//     entry). Commit persists the tree only.
//   * Lock order is live-tier mutex, then tree (whose own epoch mutex
//     serializes the migrator against foreground writers); nothing ever
//     takes them in the other order, including the background migrator,
//     which applies tree writes with the live-tier mutex released.
//     Queries hold the live-tier mutex across both tiers, so a tree hit
//     is suppressed by probing the tier's table directly.

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
#include "sched/background_worker.h"
#include "sched/mutex.h"
#include "storage/page_file.h"
#include "tree/tree.h"
#include "tree/tree_config.h"

namespace rexp {

template <int kDims>
class TieredIndex {
 public:
  TieredIndex(const TreeConfig& config, PageFile* file,
              const LiveTierOptions& live_options = LiveTierOptions{})
      : tree_(config, file), live_(MatchExpiry(live_options, config)) {}

  ~TieredIndex() { StopMigrator(); }

  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;

  // Introduces an object that is not currently indexed. The report is
  // absorbed in memory; no page is touched. (Re-inserting a resident oid
  // degrades to last-write-wins, like a self-update.)
  void Insert(ObjectId oid, const Tpbr<kDims>& point, Time now)
      EXCLUDES(mu_) {
    bool pressure = false;
    {
      sched::MutexLock lk(&mu_);
      AdvanceTimeLocked(now);
      ExpireAndCleanLocked(now);
      live_.Report(oid, point, now);
      pressure = live_.resident() > live_.options().max_resident;
    }
    if (pressure) RequestMigration();
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
    bool found;
    bool pressure = false;
    {
      sched::MutexLock lk(&mu_);
      AdvanceTimeLocked(now);
      ExpireAndCleanLocked(now);
      const Tpbr<kDims>* current = live_.Find(oid);
      if (current != nullptr) {
        found = SamePoint(*current, old_record);
        live_.Report(oid, new_record, now);
      } else {
        // The old copy (if it exists and is unexpired) is in the tree;
        // remember it so migration replaces rather than duplicates it.
        live_.Report(oid, new_record, now, &old_record);
        found = true;
      }
      pressure = live_.resident() > live_.options().max_resident;
    }
    if (pressure) RequestMigration();
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
      if (!SamePoint(*current, point)) return false;
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
  // (live-then-tree lock order), so no migration can settle between the
  // live scan and the ownership probes of the tree hits.
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
    std::vector<typename LiveTier<kDims>::Candidate> candidates;
    std::vector<typename Tree<kDims>::NnResult> tree_results;
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

  // Starts the background migrator: every `interval_s` seconds (and on
  // occupancy pressure) one batch of quiet records is drained into the
  // tree. Idempotent.
  void StartMigrator(double interval_s = 0.05) {
    migrator_.Start([this] { MigrateTick(); }, interval_s);
  }

  // Stops and joins the migrator thread. Records still resident stay
  // resident (and would be lost by a crash — the documented contract);
  // call DrainLiveTier first for a clean handoff.
  void StopMigrator() { migrator_.Stop(); }

  // Runs one synchronous migration step at the index's current logical
  // time; returns how many records moved. Deterministic alternative to
  // the background thread for tests and benchmarks. Concurrent ticks
  // (worker + pressure-triggered foreground) serialize on migrate_mu_ —
  // overlapping batches would double-apply records.
  size_t MigrateTick() EXCLUDES(mu_, migrate_mu_) {
    sched::MutexLock tick(&migrate_mu_);
    Time now;
    std::vector<typename LiveTier<kDims>::MigrationItem> batch;
    {
      sched::MutexLock lk(&mu_);
      now = last_now_;
      ExpireAndCleanLocked(now);
      live_.CollectBatch(now, &batch, drain_all_);
    }
    if (batch.empty()) return 0;

    // Apply to the tree with the live-tier mutex released: foreground
    // reports keep landing in memory while the pages are written. The
    // tree's own epoch mutex serializes us against foreground tree ops.
    std::vector<typename Tree<kDims>::UpdateRequest> replacements;
    replacements.reserve(batch.size());
    for (const auto& item : batch) {
      if (item.has_tree_record) {
        replacements.push_back({item.oid, item.tree_record, item.record});
      } else {
        tree_.Insert(item.oid, item.record, now);
      }
    }
    // Per-request results were already reported (optimistically) by
    // Update; the settle here has nothing further to do with them.
    if (!replacements.empty()) (void)tree_.GroupUpdate(replacements, now);

    {
      sched::MutexLock lk(&mu_);
      orphan_scratch_.clear();
      live_.FinalizeMigration(batch, &orphan_scratch_);
      // An orphaned item's object left the tier while the tree was being
      // written. If it expired, the migrated copy is invisible and lazy
      // purge handles it; if it was deleted (still live now), the copy
      // must go too or the deletion would be silently undone.
      const Time fnow = last_now_;
      for (const auto& item : orphan_scratch_) {
        if (!item.record.LiveAt(fnow)) continue;
        (void)tree_.Delete(item.oid, item.record, fnow, /*see_expired=*/true);
        ++tree_cleanup_deletes_;
      }
      ++migration_batches_;
    }
    migration_batch_size_.Record(static_cast<double>(batch.size()));
    return batch.size();
  }

  // Migrates every record the policy would ever migrate (ignoring age,
  // honoring min_residual_life: records about to expire still die in
  // place). Returns the number migrated. Used for clean shutdown and by
  // crash-semantics tests to establish the "post-migration" tree state.
  size_t DrainLiveTier(Time now) EXCLUDES(mu_, migrate_mu_) {
    {
      sched::MutexLock lk(&mu_);
      AdvanceTimeLocked(now);
      drain_all_ = true;
    }
    size_t total = 0;
    for (;;) {
      size_t moved = MigrateTick();
      if (moved == 0) break;
      total += moved;
    }
    {
      sched::MutexLock lk(&mu_);
      drain_all_ = false;
    }
    return total;
  }

  // Flushes the tree to stable storage. Live-tier records are volatile
  // by design and are NOT persisted — drain first if they must survive.
  Status Commit() { return tree_.Commit(); }

  // The live-tier analog of Tree::CheckInvariants plus the cross-tier
  // contract: live-tier structure is sound, every owned object's live
  // (unexpired) tree copies consist of at most the recorded tree_record,
  // and the tree's own invariant catalog passes.
  Status CheckInvariants(Time now) EXCLUDES(mu_) {
    {
      sched::MutexLock lk(&mu_);
      Status live = live_.CheckInvariants();
      if (!live.ok()) return live;
    }
    tree_.CheckInvariants(now);  // CHECK-fails on violation.
    return Status::OK();
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
  // callers must ensure no mutator or migrator is running.
  const LiveTier<kDims>& live_tier() const NO_THREAD_SAFETY_ANALYSIS {
    return live_;
  }

  // Counters are mutated by the background migrator under mu_, so
  // sampling them must take the lock too (an unlocked read here raced
  // with MigrateTick; see TieredConcurrency.CounterAccessorsLocked).
  uint64_t migration_batches() const EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    return migration_batches_;
  }
  uint64_t tree_cleanup_deletes() const EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    return tree_cleanup_deletes_;
  }
  const obs::Histogram& migration_batch_size() const {
    return migration_batch_size_;
  }

  // Logical time of the last mutation (what the migrator migrates "at").
  Time last_now() const EXCLUDES(mu_) {
    sched::MutexLock lk(&mu_);
    return last_now_;
  }

  // Registers the inner tree under `prefix` + "tree." and the live tier
  // under `prefix` + "livetier.": admission/death/migration counters,
  // resident/bin gauges, and the migration batch-size histogram. Counter
  // reads take the live-tier mutex (the monitor samples from its own
  // thread).
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) {
    tree_.RegisterMetrics(registry, prefix + "tree.");
    metrics_registration_.Reset();
    const obs::OwnerId owner = registry->NewOwner();
    auto stat = [this](uint64_t LiveTier<kDims>::Stats::*field) {
      return [this, field]() -> uint64_t {
        sched::MutexLock lk(&mu_);
        return live_.stats().*field;
      };
    };
    using S = typename LiveTier<kDims>::Stats;
    registry->AddCounter(prefix + "livetier.admitted", stat(&S::admitted),
                         owner);
    registry->AddCounter(prefix + "livetier.updates_absorbed",
                         stat(&S::updates_absorbed), owner);
    registry->AddCounter(prefix + "livetier.died_in_place",
                         stat(&S::died_in_place), owner);
    registry->AddCounter(prefix + "livetier.died_with_tree_copy",
                         stat(&S::died_with_tree_copy), owner);
    registry->AddCounter(prefix + "livetier.migrated", stat(&S::migrated),
                         owner);
    registry->AddCounter(prefix + "livetier.migration_kept",
                         stat(&S::migration_kept), owner);
    registry->AddCounter(prefix + "livetier.bin_rebuilds",
                         stat(&S::bin_rebuilds), owner);
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
    metrics_registration_ = registry->MakeScoped(owner);
  }

 private:
  // The live tier must agree with the tree about whether expiration
  // filters query answers (TreeConfig::expire_entries).
  static LiveTierOptions MatchExpiry(LiveTierOptions options,
                                     const TreeConfig& config) {
    options.expire = config.expire_entries;
    return options;
  }

  static bool SamePoint(const Tpbr<kDims>& a, const Tpbr<kDims>& b) {
    if (a.t_exp != b.t_exp) return false;
    for (int d = 0; d < kDims; ++d) {
      if (a.lo[d] != b.lo[d] || a.vlo[d] != b.vlo[d]) return false;
    }
    return true;
  }

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

  void RequestMigration() {
    if (migrator_.running()) {
      migrator_.Kick();
    } else {
      MigrateTick();
    }
  }

  Tree<kDims> tree_;
  mutable sched::Mutex mu_{sched::LockRank::kLiveTier, "live_tier"};
  LiveTier<kDims> live_ GUARDED_BY(mu_);
  Time last_now_ GUARDED_BY(mu_) = 0;
  bool drain_all_ GUARDED_BY(mu_) = false;
  std::vector<typename LiveTier<kDims>::DeadEntry> dead_scratch_
      GUARDED_BY(mu_);
  std::vector<typename LiveTier<kDims>::MigrationItem> orphan_scratch_
      GUARDED_BY(mu_);
  // Serializes MigrateTick invocations. Outermost lock of the index
  // stack: a tick takes mu_, then the tree's epoch.
  sched::Mutex migrate_mu_{sched::LockRank::kMigrate, "migrate"};
  sched::BackgroundWorker migrator_;
  uint64_t migration_batches_ GUARDED_BY(mu_) = 0;
  uint64_t tree_cleanup_deletes_ GUARDED_BY(mu_) = 0;
  obs::Histogram migration_batch_size_{
      obs::ExponentialBounds(1.0, 2.0, 12)};
  mutable obs::ScopedRegistration metrics_registration_;
};

}  // namespace rexp

#endif  // REXP_LIVETIER_TIERED_INDEX_H_
