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
// copies in several classes; at most one of them is live.
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

// One line of the on-disk partition manifest (see Read/WriteManifest in
// partitioned_index.cc). `file` is a basename, resolved relative to the
// manifest's directory.
struct ManifestEntry {
  bool active = true;
  double upper = std::numeric_limits<double>::infinity();
  double vmax = 0;
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
    // could not stay in their routed class (see RouteUpdateLocked).
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
  [[nodiscard]] bool Delete(ObjectId oid, const Tpbr<kDims>& point, Time now,
                            bool see_expired = false) EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    ++stats_.deletes;
    const bool found = DeleteLocked(oid, point, now, see_expired);
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
    const bool found = UpdateLocked(oid, old_record, new_record, now);
    MaintenanceLocked(now);
    return found;
  }

  // Mirrors Tree::GroupUpdate for re-reports (every request has an old
  // record; fresh objects go through Insert): result[i] is what Update
  // would have returned for requests[i]. Non-crossing requests are
  // grouped per class and applied through each tree's batched
  // GroupUpdate; boundary-crossing ones migrate individually. Batches
  // containing the same oid twice fall back to sequential per-request
  // updates to keep batch-order semantics.
  [[nodiscard]] std::vector<bool> GroupUpdate(
      const std::vector<UpdateRequest>& requests, Time now)
      EXCLUDES(router_mu_) {
    for (const UpdateRequest& r : requests) REXP_CHECK(r.has_old_record);
    sched::MutexLock lk(&router_mu_);
    ++stats_.group_batches;
    std::vector<bool> results(requests.size(), false);
    if (requests.empty()) return results;

    std::vector<ObjectId> oids;
    oids.reserve(requests.size());
    for (const UpdateRequest& r : requests) oids.push_back(r.oid);
    std::sort(oids.begin(), oids.end());
    const bool has_duplicates =
        std::adjacent_find(oids.begin(), oids.end()) != oids.end();

    if (has_duplicates) {
      for (size_t i = 0; i < requests.size(); ++i) {
        results[i] = UpdateLocked(requests[i].oid, requests[i].old_record,
                                  requests[i].new_record, now);
      }
      MaintenanceLocked(now);
      return results;
    }

    // Partition the batch: per-class sub-batches for stay-at-home
    // requests, individual migrations for the rest.
    std::vector<std::vector<UpdateRequest>> batches(trees_.size());
    std::vector<std::vector<size_t>> batch_slots(trees_.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const UpdateRequest& r = requests[i];
      bool found = false;
      const int stay =
          RouteUpdateLocked(r.oid, r.old_record, r.new_record, now, &found);
      if (stay < 0) {
        results[i] = found;
        continue;
      }
      batches[static_cast<size_t>(stay)].push_back(r);
      batch_slots[static_cast<size_t>(stay)].push_back(i);
    }
    for (size_t c = 0; c < trees_.size(); ++c) {
      if (batches[c].empty()) continue;
      const std::vector<bool> sub = trees_[c]->GroupUpdate(batches[c], now);
      for (size_t j = 0; j < sub.size(); ++j) {
        results[batch_slots[c][j]] = sub[j];
      }
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
    std::sort(out->begin(), out->end(),
              [](const NnResult& a, const NnResult& b) {
                if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
                return a.oid < b.oid;
              });
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

  // Verify + abort on findings (test hook, mirroring Tree).
  void CheckInvariants(Time now) EXCLUDES(router_mu_) {
    verify::Report report = Verify(now);
    if (!report.ok()) {
      std::fprintf(stderr, "PartitionedIndex::CheckInvariants:\n%s",
                   report.ToString().c_str());
      std::abort();
    }
  }

  // --- Introspection --------------------------------------------------

  int partitions() const { return static_cast<int>(trees_.size()); }

  int active_partitions() const EXCLUDES(router_mu_) {
    sched::MutexLock lk(&router_mu_);
    int n = 0;
    for (const PartitionState& p : pstate_) n += p.active ? 1 : 0;
    return n;
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
    for (size_t i = 0; i < pstate_.size(); ++i) {
      if (pstate_[i].active) {
        table.emplace_back(static_cast<int>(i), pstate_[i].upper);
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
  void ResetIoStats() {
    for (auto& tree : trees_) tree->ResetIoStats();
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
  double ExpiredLeafFraction(Time now) {
    uint64_t total = 0;
    double expired = 0;
    for (auto& tree : trees_) {
      const uint64_t entries = tree->leaf_entries();
      if (entries == 0) continue;
      expired +=
          tree->ExpiredLeafFraction(now) * static_cast<double>(entries);
      total += entries;
    }
    return total == 0 ? 0.0 : expired / static_cast<double>(total);
  }

  const TreeConfig& config() const { return config_; }

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
                         double n = 0;
                         for (const PartitionState& p : pstate_) {
                           n += p.active ? 1 : 0;
                         }
                         return n;
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

  struct PartitionState {
    bool active = true;
    // Inclusive routing upper bound; infinity for the last active class.
    double upper = std::numeric_limits<double>::infinity();
    // Widen-only maximum speed ever routed here since the last reset;
    // persisted to the manifest for offline speed-class verification.
    double vmax = 0;
  };

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
    pstate_.resize(trees_.size());
    const int k = static_cast<int>(trees_.size());
    for (int i = 0; i + 1 < k; ++i) {
      pstate_[static_cast<size_t>(i)].upper =
          options_.initial_max_speed * (i + 1) / k;
    }
    for (size_t i = 0; i < pstate_.size(); ++i) {
      PartitionState& p = pstate_[i];
      if (manifest != nullptr) {
        p.active = manifest->entries[i].active;
        p.upper = manifest->entries[i].upper;
        p.vmax = manifest->entries[i].vmax;
      } else if (trees_[i]->leaf_entries() > 0) {
        // No recorded ceiling: the fastest record the class holds is one.
        REXP_RETURN_IF_ERROR(trees_[i]->ForEachNode(
            [&p](PageId, const Node<kDims>& node) {
              if (!node.IsLeaf()) return;
              for (const NodeEntry<kDims>& e : node.entries) {
                p.vmax = std::max(p.vmax, SpeedOf(e.region));
              }
            }));
      }
    }
    return Status::OK();
  }

  // First active class whose speed range admits `speed` (ranges are
  // contiguous in slot order; the last active class is unbounded).
  int RouteLocked(double speed) const REQUIRES(router_mu_) {
    int last_active = -1;
    for (size_t i = 0; i < pstate_.size(); ++i) {
      if (!pstate_[i].active) continue;
      last_active = static_cast<int>(i);
      if (speed <= pstate_[i].upper) return last_active;
    }
    REXP_CHECK(last_active >= 0);
    return last_active;
  }

  // Folds a routed record's speed into the class's vmax. A partition
  // observed physically empty restarts it from scratch.
  void AbsorbLocked(int c, double speed) REQUIRES(router_mu_) {
    PartitionState& p = pstate_[static_cast<size_t>(c)];
    if (trees_[static_cast<size_t>(c)]->leaf_entries() == 0) p.vmax = 0;
    if (speed > p.vmax) p.vmax = speed;
  }

  bool DeleteLocked(ObjectId oid, const Tpbr<kDims>& point, Time now,
                    bool see_expired) REQUIRES(router_mu_) {
    for (const auto& tree : trees_) {
      if (tree->HoldsObject(oid) &&
          tree->Delete(oid, point, now, see_expired)) {
        return true;
      }
    }
    return false;
  }

  bool UpdateLocked(ObjectId oid, const Tpbr<kDims>& old_record,
                    const Tpbr<kDims>& new_record, Time now)
      REQUIRES(router_mu_) {
    bool found = false;
    const int stay =
        RouteUpdateLocked(oid, old_record, new_record, now, &found);
    if (stay < 0) return found;
    return trees_[static_cast<size_t>(stay)]->Update(oid, old_record,
                                                     new_record, now);
  }

  // Routes one update by the new record's speed. When the routed class is
  // the only active class holding a copy of the object, the new speed is
  // absorbed into that class's vmax and its class is returned for the
  // caller to update the tree. Otherwise the object migrates: the old
  // record is deleted from whichever class holds it and the new one is
  // inserted into the routed class; returns -1 with `*found` set to
  // whether the old record was found. A migration of an object some
  // active class held a copy of counts in stats_.migrations.
  int RouteUpdateLocked(ObjectId oid, const Tpbr<kDims>& old_record,
                        const Tpbr<kDims>& new_record, Time now, bool* found)
      REQUIRES(router_mu_) {
    ++stats_.updates;
    const double speed = SpeedOf(new_record);
    histogram_.Record(speed);
    const int target = RouteLocked(speed);
    bool at_target = false;
    bool elsewhere = false;
    for (size_t i = 0; i < trees_.size(); ++i) {
      if (!pstate_[i].active || !trees_[i]->HoldsObject(oid)) continue;
      if (static_cast<int>(i) == target) {
        at_target = true;
      } else {
        elsewhere = true;
      }
    }
    if (at_target && !elsewhere) {
      AbsorbLocked(target, speed);
      return target;
    }
    if (at_target || elsewhere) ++stats_.migrations;
    *found = DeleteLocked(oid, old_record, now, /*see_expired=*/false);
    AbsorbLocked(target, speed);
    trees_[static_cast<size_t>(target)]->Insert(oid, new_record, now);
    return -1;
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
    int actives = 0;
    for (const PartitionState& p : pstate_) actives += p.active ? 1 : 0;
    if (actives > 1) {
      const std::vector<double> uppers =
          histogram_.Boundaries(actives, options_.initial_max_speed);
      size_t next = 0;
      for (PartitionState& p : pstate_) {
        if (!p.active) continue;
        p.upper = next < uppers.size()
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
    for (size_t i = 0; i < pstate_.size(); ++i) {
      if (!pstate_[i].active) continue;
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
    pstate_[i].active = false;  // Re-routing below must not pick it.
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
        if (!config_.expire_entries || e.region.t_exp >= now) {
          live.push_back(LiveRecord{e.id, e.region});
        }
      }
    }));
    for (const LiveRecord& r : live) {
      const bool found =
          source->Delete(r.oid, r.region, now, /*see_expired=*/false);
      (void)found;  // Live by construction; a purge race cannot occur
                    // under the router lock.
      const double speed = SpeedOf(r.region);
      const int target = RouteLocked(speed);
      AbsorbLocked(target, speed);
      trees_[static_cast<size_t>(target)]->Insert(r.oid, r.region, now);
      ++stats_.merge_moves;
    }
    pstate_[i].vmax = 0;
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
      if (pstate_[i].active && trees_[i]->leaf_entries() > 0) {
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
          std::move(part), i, pstate_[i].active,
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
      for (size_t i = 0; i < pstate_.size(); ++i) {
        partition::ManifestEntry e;
        e.active = pstate_[i].active;
        e.upper = pstate_[i].upper;
        e.vmax = pstate_[i].vmax;
        e.file = file_names_[i];
        m.entries.push_back(std::move(e));
      }
    }
    return partition::WriteManifest(m, manifest_path_);
  }

  TreeConfig config_;
  PartitionedOptions options_;

  // Disk mode only: owned per-class files (destroyed after the trees,
  // which flush into them) and the manifest sidecar.
  std::vector<std::unique_ptr<PageFile>> owned_files_;
  std::string manifest_path_;
  std::vector<std::string> file_names_;  // Manifest-relative basenames.

  std::vector<std::unique_ptr<Tree<kDims>>> trees_;

  mutable sched::Mutex router_mu_{sched::LockRank::kPartitionRouter,
                                  "partition_router"};
  std::vector<PartitionState> pstate_ GUARDED_BY(router_mu_);
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
