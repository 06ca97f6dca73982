// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Velocity-partitioned index family: K speed classes, each indexed by its
// own R^exp-tree with a much tighter velocity spread than a single shared
// tree would have. The paper's TPBRs grow at the velocity extremes of the
// node they bound, so one fast object co-located with slow ones inflates
// every query that touches the node; "Speed Partitioning for Indexing
// Moving Objects" and "Boosting Moving Object Indexing through Velocity
// Partitioning" (PAPERS.md) both report large query-cost wins from
// separating speed classes. This implementation adds three things neither
// related design has:
//
//   * class boundaries self-tuned online from a streaming speed histogram
//     (same estimate-as-you-go flavor as the horizon's UI estimator),
//   * boundary-crossing updates migrated under the router lock
//     (delete-from-old + insert-into-new), and
//   * lazy merging of partitions whose population decays — expiration
//     empties classes for free, and a near-empty tree is pure fan-out
//     overhead.
//
// The class trees are the only record of where an object lives: each
// tree's direct-access table (DAT) says whether it holds a copy of an
// oid, live or expired but not yet purged (Tree::HoldsObject). Expired
// copies linger under the paper's lazy purge, so an object may have
// copies in several classes; at most one of them is live. The router's
// own state is one partition::ManifestEntry per class (activity, upper
// bound, vmax, file name): the record the manifest persists.
//
// Every re-report, alone (Update) or in a batch (GroupUpdate, in batch
// order), takes one routine: stay in the routed class through that
// tree's Update, or migrate.
//
// Queries visit every active, non-empty class in turn on the calling
// thread. Each class tree pins its root, so a class with nothing in the
// query window costs a root scan and no page I/O.
//
// Concurrency: mutations serialize on router_mu_ (LockRank::
// kPartitionRouter, above the per-tree epoch locks); queries list the
// classes to visit under the router lock, release it, and then read
// each tree under that tree's own shared epoch. A query concurrent with a
// boundary-crossing migration may therefore observe the moving object in
// neither or both classes momentarily — callers that need strict
// serializability serialize queries against mutations externally (the
// harness and tests do).

#ifndef REXP_PARTITION_PARTITIONED_INDEX_H_
#define REXP_PARTITION_PARTITIONED_INDEX_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/query.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/registry.h"
#include "partition/partition_verify.h"
#include "sched/mutex.h"
#include "storage/page_file.h"
#include "tpbr/tpbr.h"
#include "tree/tree.h"
#include "tree/tree_config.h"
#include "verify/verifier.h"

namespace rexp {
namespace partition {

// One speed class's router state, and one line of the on-disk partition
// manifest (see Read/WriteManifest in partitioned_index.cc).
struct ManifestEntry {
  // False once the class is merged away; routing skips it.
  bool active = true;
  // Inclusive routing upper bound; infinity for the last active class.
  double upper = std::numeric_limits<double>::infinity();
  // Widen-only maximum speed ever routed here since the last reset; the
  // ceiling offline speed-class verification checks against.
  double vmax = 0;
  // Basename of the class's page file, resolved relative to the
  // manifest's directory (disk mode only).
  std::string file;
};

// The sidecar that makes a set of per-class page files a *closed
// partitioned index*: dimensionality, page geometry, and the router state
// (class order, activity, learned speed ceilings) that per-tree metadata
// cannot express. rexp_fsck --manifest starts here.
struct Manifest {
  int dims = 0;
  uint32_t page_size = 0;
  std::vector<ManifestEntry> entries;
};

// Plain-text, line-oriented (strict ParseU32/ParseDouble parsing; "inf"
// spelled out for the unbounded last class). Returns kNotFound when the
// file does not exist so a fresh OpenDisk can distinguish "new index"
// from damage.
StatusOr<Manifest> ReadManifest(const std::string& path);
Status WriteManifest(const Manifest& manifest, const std::string& path);

// Directory part of `path` including the trailing separator ("" when the
// path has none), for resolving manifest-relative file names.
std::string DirOf(const std::string& path);

// Streaming log-binned histogram of reported speeds; the source of the
// router's equi-depth class boundaries. Counts decay geometrically at
// every retune so the boundaries track workload drift instead of its
// whole history.
class SpeedHistogram {
 public:
  static constexpr int kBins = 64;

  void Record(double speed) {
    ++counts_[BinOf(speed)];
    ++total_;
  }

  // Upper boundaries splitting the observed mass into `classes`
  // equi-depth quantiles (classes - 1 values, non-decreasing). With no
  // recorded mass, falls back to equal widths over [0, fallback_max].
  std::vector<double> Boundaries(int classes, double fallback_max) const {
    std::vector<double> uppers;
    if (classes <= 1) return uppers;
    uppers.reserve(static_cast<size_t>(classes - 1));
    if (total_ == 0) {
      for (int i = 1; i < classes; ++i) {
        uppers.push_back(fallback_max * i / classes);
      }
      return uppers;
    }
    uint64_t cum = 0;
    int bin = 0;
    for (int i = 1; i < classes; ++i) {
      const uint64_t want = total_ * static_cast<uint64_t>(i) /
                            static_cast<uint64_t>(classes);
      while (bin < kBins - 1 && cum + counts_[bin] <= want) {
        cum += counts_[bin];
        ++bin;
      }
      uppers.push_back(UpperEdge(bin));
    }
    return uppers;
  }

  void Decay() {
    total_ = 0;
    for (uint64_t& c : counts_) {
      c /= 2;
      total_ += c;
    }
  }

  uint64_t total() const { return total_; }

 private:
  // Log-spaced bins over [kMinSpeed, kMaxSpeed); speeds at or below zero
  // land in bin 0, speeds past the top in the last bin.
  static constexpr double kMinSpeed = 1e-3;
  static constexpr double kMaxSpeed = 1e4;

  static int BinOf(double speed) {
    if (!(speed > kMinSpeed)) return 0;
    const double pos = std::log(speed / kMinSpeed) /
                       std::log(kMaxSpeed / kMinSpeed) * kBins;
    return std::clamp(static_cast<int>(pos), 0, kBins - 1);
  }

  static double UpperEdge(int bin) {
    return kMinSpeed *
           std::pow(kMaxSpeed / kMinSpeed, (bin + 1.0) / kBins);
  }

  uint64_t counts_[kBins] = {};
  uint64_t total_ = 0;
};

}  // namespace partition

struct PartitionedOptions {
  // Number of speed classes K.
  int partitions = 4;

  // Mutations between router-maintenance scans (boundary retune + merge
  // check). 0 disables self-tuning: the initial equal-width boundaries
  // stay fixed and no partition is ever merged.
  uint32_t retune_every = 4096;

  // A partition whose physical population falls below this fraction of
  // the whole index is merged away (its live records re-routed into the
  // surviving classes) at the next maintenance scan.
  double merge_fraction = 0.05;

  // Unread: queries run on the calling thread. Kept only because
  // perfbench/frontend.h still sets it.
  int query_threads = 0;

  // Seeds the initial equal-width class boundaries until the histogram
  // has observed real traffic.
  double initial_max_speed = 3.0;
};

template <int kDims>
class PartitionedIndex {
 public:
  using UpdateRequest = typename Tree<kDims>::UpdateRequest;
  using NnResult = typename Tree<kDims>::NnResult;

  // Routing/migration telemetry, all maintained under router_mu_.
  struct Stats {
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    uint64_t updates = 0;
    // Updates that found a copy of the object in some active class and
    // could not stay in their routed class (see UpdateOneLocked).
    uint64_t migrations = 0;
    uint64_t group_batches = 0;
    uint64_t searches = 0;
    uint64_t nn_searches = 0;
    // Always 0 and not registered; kept only because perfbench/e2e.cc
    // still reads it.
    uint64_t partitions_pruned = 0;
    uint64_t partitions_searched = 0;  // Class trees queries visited.
    uint64_t retunes = 0;
    uint64_t merges = 0;
    uint64_t merge_moves = 0;  // Live records re-homed by merges.

    // The one list of the counters; RegisterMetrics binds each entry as
    // `partition.<name>`.
    static constexpr obs::NamedField<Stats, uint64_t>
        kCounters[] = {{"inserts", &Stats::inserts},
                       {"deletes", &Stats::deletes},
                       {"updates", &Stats::updates},
                       {"migrations", &Stats::migrations},
                       {"group_batches", &Stats::group_batches},
                       {"searches", &Stats::searches},
                       {"nn_searches", &Stats::nn_searches},
                       {"partitions_searched", &Stats::partitions_searched},
                       {"retunes", &Stats::retunes},
                       {"merges", &Stats::merges},
                       {"merge_moves", &Stats::merge_moves}};
  };

  // Builds over caller-owned per-class page files (files.size() == K,
  // each empty or holding a previously persisted partition).
  PartitionedIndex(const TreeConfig& config,
                   const std::vector<PageFile*>& files,
                   const PartitionedOptions& options = {})
      : config_(config), options_(options) {
    REXP_CHECK(!files.empty());
    REXP_CHECK(files.size() == static_cast<size_t>(options.partitions));
    Status s = Init(files);
    if (!s.ok()) {
      std::fprintf(stderr, "PartitionedIndex: %s\n", s.ToString().c_str());
      std::abort();
    }
  }

  // Opens (or creates) a durable partitioned index rooted at
  // `base_path`: per-class files `<base>.p<i>` plus the router manifest
  // `<base>.manifest`. An existing manifest wins over
  // `options.partitions` and restores the learned class boundaries;
  // Commit() rewrites it.
  static StatusOr<std::unique_ptr<PartitionedIndex>> OpenDisk(
      const TreeConfig& config, const std::string& base_path,
      const PartitionedOptions& options = {});

  PartitionedIndex(const PartitionedIndex&) = delete;
  PartitionedIndex& operator=(const PartitionedIndex&) = delete;

  ~PartitionedIndex() {
    if (!manifest_path_.empty()) {
      Status s = WriteManifestNow();
      if (!s.ok()) {
        std::fprintf(stderr, "partitioned index close: %s\n",
                     s.ToString().c_str());
      }
    }
  }

  // Durably commits every partition, then the router manifest (disk
  // mode). First error wins; later partitions still attempt to commit.
  Status Commit() EXCLUDES(router_mu_) {
    Status first = Status::OK();
    for (auto& tree : trees_) {
      Status s = tree->Commit();
      if (first.ok() && !s.ok()) first = s;
    }
    if (!manifest_path_.empty()) {
      Status s = WriteManifestNow();
      if (first.ok() && !s.ok()) first = s;
    }
    return first;
  }

  // --- Mutations (Tree-mirroring API) ---------------------------------

  void Insert(ObjectId oid, const Tpbr<kDims>& point, Time now)
      EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    ++stats_.inserts;
    const double speed = SpeedOf(point);
    histogram_.Record(speed);
    const int c = RouteLocked(speed);
    AbsorbLocked(c, speed);
    trees_[static_cast<size_t>(c)]->Insert(oid, point, now);
    MaintenanceLocked(now);
  }

  // Mirrors Tree::Delete, probing only the classes that hold a copy.
  [[nodiscard]] bool Delete(ObjectId oid, const Tpbr<kDims>& point, Time now)
      EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    ++stats_.deletes;
    const bool found = DeleteLocked(oid, point, now);
    MaintenanceLocked(now);
    return found;
  }

  // Mirrors Tree::Update: replaces oid's `old_record` with `new_record`,
  // reporting whether the old record was live (the new one is inserted
  // either way). When the new speed's class is the only active class
  // holding a copy, the update takes that tree's in-place Update;
  // otherwise the object migrates (delete-from-old + insert-into-new
  // under the router lock).
  [[nodiscard]] bool Update(ObjectId oid, const Tpbr<kDims>& old_record,
                            const Tpbr<kDims>& new_record, Time now)
      EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    const bool found = UpdateOneLocked(oid, old_record, new_record, now);
    MaintenanceLocked(now);
    return found;
  }

  // Mirrors Tree::GroupUpdate for re-reports (every request has an old
  // record; fresh objects go through Insert): Update applied to each
  // request in batch order under one router lock, so result[i] is what
  // Update would have returned for requests[i] and a later request for
  // the same oid sees the earlier one's result.
  [[nodiscard]] std::vector<bool> GroupUpdate(
      const std::vector<UpdateRequest>& requests, Time now)
      EXCLUDES(router_mu_) {
    for (const UpdateRequest& r : requests) REXP_CHECK(r.has_old_record);
    sched::MutexLock lk(&router_mu_);
    ++stats_.group_batches;
    std::vector<bool> results(requests.size(), false);
    if (requests.empty()) return results;
    for (size_t i = 0; i < requests.size(); ++i) {
      results[i] = UpdateOneLocked(requests[i].oid, requests[i].old_record,
                                   requests[i].new_record, now);
    }
    MaintenanceLocked(now);
    return results;
  }

  // --- Queries --------------------------------------------------------

  // Reports the ids of all live objects intersecting `query`, visiting
  // each class tree in turn. Order is unspecified (as with Tree::Search).
  void Search(const Query<kDims>& query, std::vector<ObjectId>* out)
      EXCLUDES(router_mu_) {
    for (Tree<kDims>* tree : QueryTargets(&Stats::searches)) {
      tree->Search(query, out);
    }
  }

  // K-nearest-neighbors across all partitions: per-class candidates are
  // merged by (distance, oid), exactly as a single tree would rank them.
  void NearestNeighbors(const Vec<kDims>& point, Time t, int k,
                        std::vector<NnResult>* out) EXCLUDES(router_mu_) {
    out->clear();
    if (k <= 0) return;
    // Per-thread scratch, as in Tree: steady-state queries allocate
    // nothing (gated in bench/micro_tree_ops).
    static thread_local std::vector<NnResult> part;
    for (Tree<kDims>* tree : QueryTargets(&Stats::nn_searches)) {
      tree->NearestNeighbors(point, t, k, &part);
      out->insert(out->end(), part.begin(), part.end());
    }
    std::sort(out->begin(), out->end(), NearerFirst{});
    if (out->size() > static_cast<size_t>(k)) {
      out->resize(static_cast<size_t>(k));
    }
  }

  void NearestNeighbors(const Vec<kDims>& point, Time t, int k,
                        std::vector<ObjectId>* out) EXCLUDES(router_mu_) {
    static thread_local std::vector<NnResult> results;
    NearestNeighbors(point, t, k, &results);
    out->clear();
    for (const NnResult& r : results) out->push_back(r.oid);
  }

  // --- Verification ---------------------------------------------------

  // Runs the full per-tree invariant catalog on every partition plus the
  // class checks rexp_fsck --manifest runs (partition::MergeClassReport):
  // no object is live in two classes and no merged-away class holds a
  // live record (kPartitionRouting). The speed-ceiling check is offline
  // only: a class reopened without a manifest has no known ceiling.
  verify::Report Verify(Time now) EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    return VerifyLocked(now);
  }

  // --- Introspection --------------------------------------------------

  int partitions() const { return static_cast<int>(trees_.size()); }

  int active_partitions() const EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    return ActiveClassesLocked();
  }

  Stats stats() const EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    return stats_;
  }

  // Current routing table: the inclusive speed upper bound of each
  // ACTIVE class in slot order (infinity for the last). Test hook.
  std::vector<std::pair<int, double>> RoutingTableForTest() const
      EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    std::vector<std::pair<int, double>> table;
    for (size_t i = 0; i < classes_.size(); ++i) {
      if (classes_[i].active) {
        table.emplace_back(static_cast<int>(i), classes_[i].upper);
      }
    }
    return table;
  }

  int RouteClassForTest(double speed) const EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    return RouteLocked(speed);
  }

  // Per-class tree access (harness tracer, tests). The tree's own
  // concurrency rules apply.
  Tree<kDims>* tree(int i) { return trees_[static_cast<size_t>(i)].get(); }
  const Tree<kDims>& tree(int i) const {
    return *trees_[static_cast<size_t>(i)];
  }

  // Aggregates over all partitions (the paper's performance metrics).
  uint64_t TotalIo() const {
    uint64_t total = 0;
    for (const auto& tree : trees_) total += tree->io_stats().Total();
    return total;
  }
  uint64_t PagesUsed() const {
    uint64_t total = 0;
    for (const auto& tree : trees_) total += tree->PagesUsed();
    return total;
  }
  uint64_t leaf_entries() const {
    uint64_t total = 0;
    for (const auto& tree : trees_) total += tree->leaf_entries();
    return total;
  }
  StatusOr<double> ExpiredLeafFraction(Time now) {
    uint64_t total = 0;
    double expired = 0;
    for (auto& tree : trees_) {
      const uint64_t entries = tree->leaf_entries();
      if (entries == 0) continue;
      REXP_ASSIGN_OR_RETURN(const double fraction,
                            tree->ExpiredLeafFraction(now));
      expired += fraction * static_cast<double>(entries);
      total += entries;
    }
    return total == 0 ? 0.0 : expired / static_cast<double>(total);
  }

  // Registers router telemetry under `prefix` + "partition." (routing,
  // migration, merge, and fan-out counters; the active-partition
  // gauge) and each class's full tree telemetry under
  // `prefix` + "p<i>.tree." (a class's population is its
  // `p<i>.tree.tree.leaf_entries`). Owner-scoped: bindings drop when the
  // index is destroyed.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) {
    for (size_t i = 0; i < trees_.size(); ++i) {
      trees_[i]->RegisterMetrics(
          registry, prefix + "p" + std::to_string(i) + ".tree.");
    }
    metrics_registration_.Reset();
    const obs::OwnerId owner = registry->NewOwner();
    for (const auto& [name, field] : Stats::kCounters) {
      registry->AddCounter(prefix + "partition." + name,
                           [this, counter = field]() -> uint64_t {
                             sched::MutexLock lk(&router_mu_);
                             return stats_.*counter;
                           },
                           owner);
    }
    registry->AddGauge(prefix + "partition.active_partitions",
                       [this] {
                         sched::MutexLock lk(&router_mu_);
                         return static_cast<double>(ActiveClassesLocked());
                       },
                       owner);
    metrics_registration_ = registry->MakeScoped(owner);
  }

  // Speed |v| of a canonical moving-point record (vlo == vhi).
  static double SpeedOf(const Tpbr<kDims>& point) {
    double sum = 0;
    for (int d = 0; d < kDims; ++d) sum += point.vlo[d] * point.vlo[d];
    return std::sqrt(sum);
  }

 private:
  struct PrivateTag {};

  // OpenDisk's construction path: members are filled in before Init.
  PartitionedIndex(PrivateTag, const TreeConfig& config,
                   const PartitionedOptions& options)
      : config_(config), options_(options) {}

  Status Init(const std::vector<PageFile*>& files,
              const partition::Manifest* manifest = nullptr) {
    config_.Validate();
    trees_.reserve(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
      TreeConfig per_class = config_;
      per_class.seed = config_.seed + i;  // Decorrelate split tiebreaks.
      auto tree_or = Tree<kDims>::Open(per_class, files[i]);
      if (!tree_or.ok()) {
        return Status::Corruption("partition " + std::to_string(i) + ": " +
                                  tree_or.status().ToString());
      }
      trees_.push_back(std::move(tree_or).value());
    }
    sched::MutexLock lk(&router_mu_);
    if (manifest != nullptr) {
      classes_ = manifest->entries;
      return Status::OK();
    }
    classes_.resize(trees_.size());
    const int k = static_cast<int>(trees_.size());
    for (int i = 0; i + 1 < k; ++i) {
      classes_[static_cast<size_t>(i)].upper =
          options_.initial_max_speed * (i + 1) / k;
    }
    for (size_t i = 0; i < classes_.size(); ++i) {
      if (trees_[i]->leaf_entries() == 0) continue;
      // No recorded ceiling: the fastest record the class holds is one.
      double& vmax = classes_[i].vmax;
      REXP_RETURN_IF_ERROR(trees_[i]->ForEachNode(
          [&vmax](PageId, const Node<kDims>& node) {
            if (!node.IsLeaf()) return;
            for (const NodeEntry<kDims>& e : node.entries) {
              vmax = std::max(vmax, SpeedOf(e.region));
            }
          }));
    }
    return Status::OK();
  }

  int ActiveClassesLocked() const REQUIRES(router_mu_) {
    return static_cast<int>(std::count_if(
        classes_.begin(), classes_.end(),
        [](const partition::ManifestEntry& c) { return c.active; }));
  }

  // First active class whose speed range admits `speed` (ranges are
  // contiguous in slot order; the last active class is unbounded).
  int RouteLocked(double speed) const REQUIRES(router_mu_) {
    int last_active = -1;
    for (size_t i = 0; i < classes_.size(); ++i) {
      if (!classes_[i].active) continue;
      last_active = static_cast<int>(i);
      if (speed <= classes_[i].upper) return last_active;
    }
    REXP_CHECK(last_active >= 0);
    return last_active;
  }

  // Folds a routed record's speed into the class's vmax. A partition
  // observed physically empty restarts it from scratch.
  void AbsorbLocked(int c, double speed) REQUIRES(router_mu_) {
    double& vmax = classes_[static_cast<size_t>(c)].vmax;
    if (trees_[static_cast<size_t>(c)]->leaf_entries() == 0) vmax = 0;
    if (speed > vmax) vmax = speed;
  }

  bool DeleteLocked(ObjectId oid, const Tpbr<kDims>& point, Time now)
      REQUIRES(router_mu_) {
    for (const auto& tree : trees_) {
      if (tree->HoldsObject(oid) && tree->Delete(oid, point, now)) {
        return true;
      }
    }
    return false;
  }

  // Routes one update by the new record's speed and reports whether the
  // old record was live. When the routed class is the only active class
  // holding a copy of the object, that class absorbs the new speed into
  // its vmax and its tree updates in place. Otherwise the object
  // migrates: the old record is deleted from whichever class holds it and
  // the new one is inserted into the routed class. A migration of an
  // object some active class held a copy of counts in stats_.migrations.
  bool UpdateOneLocked(ObjectId oid, const Tpbr<kDims>& old_record,
                       const Tpbr<kDims>& new_record, Time now)
      REQUIRES(router_mu_) {
    ++stats_.updates;
    const double speed = SpeedOf(new_record);
    histogram_.Record(speed);
    const int target = RouteLocked(speed);
    Tree<kDims>* routed = trees_[static_cast<size_t>(target)].get();
    bool at_target = false;
    bool elsewhere = false;
    for (size_t i = 0; i < trees_.size(); ++i) {
      if (!classes_[i].active || !trees_[i]->HoldsObject(oid)) continue;
      if (static_cast<int>(i) == target) {
        at_target = true;
      } else {
        elsewhere = true;
      }
    }
    if (at_target && !elsewhere) {
      AbsorbLocked(target, speed);
      return routed->Update(oid, old_record, new_record, now);
    }
    if (at_target || elsewhere) ++stats_.migrations;
    const bool found = DeleteLocked(oid, old_record, now);
    AbsorbLocked(target, speed);
    routed->Insert(oid, new_record, now);
    return found;
  }

  void MaintenanceLocked(Time now) REQUIRES(router_mu_) {
    if (options_.retune_every == 0) return;
    if (++mutations_since_scan_ < options_.retune_every) return;
    mutations_since_scan_ = 0;
    RetuneLocked();
    MaybeMergeLocked(now);
  }

  // Recomputes the active-class boundaries as equi-depth quantiles of
  // the decayed speed histogram. Routing changes apply to FUTURE inserts
  // and updates only; already-placed objects migrate lazily the next
  // time they report (Update), so no retune ever does bulk I/O.
  void RetuneLocked() REQUIRES(router_mu_) {
    ++stats_.retunes;
    const int actives = ActiveClassesLocked();
    if (actives > 1) {
      const std::vector<double> uppers =
          histogram_.Boundaries(actives, options_.initial_max_speed);
      size_t next = 0;
      for (partition::ManifestEntry& c : classes_) {
        if (!c.active) continue;
        c.upper = next < uppers.size()
                      ? uppers[next]
                      : std::numeric_limits<double>::infinity();
        ++next;
      }
    }
    histogram_.Decay();
  }

  // Merges away the smallest active partition when its physical
  // population has decayed below merge_fraction of the index: its live
  // records are re-routed into the surviving classes and the class
  // disappears from the routing table. Expired leftovers (invisible to
  // queries) are simply abandoned with the tree.
  void MaybeMergeLocked(Time now) REQUIRES(router_mu_) {
    int actives = 0;
    uint64_t total = 0;
    int smallest = -1;
    uint64_t smallest_entries = 0;
    for (size_t i = 0; i < classes_.size(); ++i) {
      if (!classes_[i].active) continue;
      ++actives;
      const uint64_t entries = trees_[i]->leaf_entries();
      total += entries;
      if (smallest < 0 || entries < smallest_entries) {
        smallest = static_cast<int>(i);
        smallest_entries = entries;
      }
    }
    if (actives <= 1 || smallest < 0 || total == 0) return;
    if (static_cast<double>(smallest_entries) >=
        options_.merge_fraction * static_cast<double>(total)) {
      return;
    }
    MergePartitionLocked(smallest, now);
  }

  void MergePartitionLocked(int idx, Time now) REQUIRES(router_mu_) {
    const size_t i = static_cast<size_t>(idx);
    classes_[i].active = false;  // Re-routing below must not pick it.
    Tree<kDims>* source = trees_[i].get();

    // Collect the live records (the walk is real, measured I/O — a merge
    // is maintenance work the index actually performs).
    struct LiveRecord {
      ObjectId oid;
      Tpbr<kDims> region;
    };
    std::vector<LiveRecord> live;
    REXP_CHECK_OK(source->ForEachNode([&](PageId, const Node<kDims>& node) {
      if (!node.IsLeaf()) return;
      for (const NodeEntry<kDims>& e : node.entries) {
        if (config_.Live(e.region.t_exp, now)) {
          live.push_back(LiveRecord{e.id, e.region});
        }
      }
    }));
    for (const LiveRecord& r : live) {
      const bool found = source->Delete(r.oid, r.region, now);
      (void)found;  // Live by construction; a purge race cannot occur
                    // under the router lock.
      const double speed = SpeedOf(r.region);
      const int target = RouteLocked(speed);
      AbsorbLocked(target, speed);
      trees_[static_cast<size_t>(target)]->Insert(r.oid, r.region, now);
      ++stats_.merge_moves;
    }
    classes_[i].vmax = 0;
    ++stats_.merges;
  }

  // The class trees a query visits: every active class holding records.
  // A merged-away class holds only expired leftovers (its live records
  // were re-routed), so it cannot contribute results. The list is
  // per-thread scratch filled under the router lock; each tree is then
  // read under its own epoch.
  const std::vector<Tree<kDims>*>& QueryTargets(uint64_t Stats::*queries)
      EXCLUDES(router_mu_) {
    static thread_local std::vector<Tree<kDims>*> targets;
    targets.clear();
    sched::MutexLock lk(&router_mu_);
    ++(stats_.*queries);
    for (size_t i = 0; i < trees_.size(); ++i) {
      if (classes_[i].active && trees_[i]->leaf_entries() > 0) {
        targets.push_back(trees_[i].get());
      }
    }
    stats_.partitions_searched += targets.size();
    return targets;
  }

  verify::Report VerifyLocked(Time now) REQUIRES(router_mu_) {
    verify::Report report;
    verify::VerifyOptions options;
    options.now = now;
    partition::FirstSeen first_seen;
    for (size_t i = 0; i < trees_.size(); ++i) {
      std::vector<NodeEntry<kDims>> live;
      verify::Report part = trees_[i]->Verify(
          now, [&live](const NodeEntry<kDims>& e) { live.push_back(e); });
      partition::MergeClassReport<kDims>(
          std::move(part), i, classes_[i].active,
          std::numeric_limits<double>::infinity(), live, options,
          &first_seen, &report);
    }
    return report;
  }

  Status WriteManifestNow() {
    partition::Manifest m;
    m.dims = kDims;
    m.page_size = config_.page_size;
    {
      sched::MutexLock lk(&router_mu_);
      m.entries = classes_;
    }
    return partition::WriteManifest(m, manifest_path_);
  }

  TreeConfig config_;
  PartitionedOptions options_;

  // Disk mode only: owned per-class files (destroyed after the trees,
  // which flush into them) and the manifest sidecar.
  std::vector<std::unique_ptr<PageFile>> owned_files_;
  std::string manifest_path_;

  std::vector<std::unique_ptr<Tree<kDims>>> trees_;

  mutable sched::Mutex router_mu_{sched::LockRank::kPartitionRouter,
                                  "partition_router"};
  // Per-class router state in slot order (the manifest's entries).
  std::vector<partition::ManifestEntry> classes_ GUARDED_BY(router_mu_);
  partition::SpeedHistogram histogram_ GUARDED_BY(router_mu_);
  uint32_t mutations_since_scan_ GUARDED_BY(router_mu_) = 0;
  Stats stats_ GUARDED_BY(router_mu_);

  mutable obs::ScopedRegistration metrics_registration_;
};

extern template class PartitionedIndex<1>;
extern template class PartitionedIndex<2>;
extern template class PartitionedIndex<3>;

}  // namespace rexp

#endif  // REXP_PARTITION_PARTITIONED_INDEX_H_
