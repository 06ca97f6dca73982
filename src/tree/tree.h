// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// The R^exp-tree / TPR-tree engine: a paged, R*-tree-based index of the
// current and anticipated future positions of moving point objects with
// per-object expiration times (Šaltenis & Jensen, "Indexing of Moving
// Objects for Location-Based Services").
//
// One engine, configured by TreeConfig, covers the full design space of
// the paper: the TPBR strategy, whether expiration times are recorded in
// internal entries, whether insertion decisions honor or ignore expiration
// times, and whether entries expire at all (the TPR-tree baseline).
//
// Expired entries are removed lazily (paper Section 4.3): search, insert,
// and delete see only live entries; a node physically drops its expired
// entries whenever it is modified and written; dropping an expired
// internal entry deallocates the whole subtree; underfull nodes arising
// anywhere in an update are dissolved into an orphan list whose entries
// are reinserted level by level (highest level first), and the tree grows
// and shrinks at the root as needed.
//
// Typical use:
//
//   MemoryPageFile file(4096);
//   RexpTree2 tree(TreeConfig::Rexp(), &file);
//   auto p = MakeMovingPoint<2>({x, y}, {vx, vy}, now, now + 60.0);
//   tree.Insert(oid, p, now);
//   std::vector<ObjectId> hits;
//   tree.Search(Query<2>::Timeslice(rect, now + 10.0), &hits);

#ifndef REXP_TREE_TREE_H_
#define REXP_TREE_TREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <string>

#include "common/query.h"
#include "common/status.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sched/shared_mutex.h"
#include "storage/buffer_manager.h"
#include "storage/page_file.h"
#include "tree/dat.h"
#include "tree/horizon.h"
#include "tree/node.h"
#include "tree/tree_config.h"
#include "verify/verifier.h"

namespace rexp {

// Tree-level operation telemetry: what the structural algorithms did, as
// opposed to what it cost in I/O (IoStats) or at the device (DeviceStats).
// Counters are always maintained — as relaxed atomic adds, since Search
// and NearestNeighbors bump them from concurrent shared epochs (see
// io_stats.h for the ordering rationale); the per-operation I/O and
// latency histograms follow the obs/metrics.h gating rules and serialize
// internally.
struct TreeOpStats {
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> deletes{0};        // Delete() calls...
  std::atomic<uint64_t> delete_misses{0};  // ...found no matching live entry.
  std::atomic<uint64_t> searches{0};
  std::atomic<uint64_t> nn_searches{0};

  // Bottom-up update path (DESIGN.md §10).
  std::atomic<uint64_t> updates{0};      // Update() calls (incl. batched).
  std::atomic<uint64_t> update_fast{0};  // Served by in-place leaf replace...
  // ...of which these also propagated bounds up the parent chain.
  std::atomic<uint64_t> update_fast_propagations{0};
  std::atomic<uint64_t> update_fallback{0};  // Fell back to delete+insert.
  std::atomic<uint64_t> group_update_batches{0};  // GroupUpdate() calls.
  std::atomic<uint64_t> dat_hits{0};    // DAT knew the exact leaf.
  std::atomic<uint64_t> dat_misses{0};  // DAT had no pinned leaf for the oid.
  std::atomic<uint64_t> dat_rebuilds{0};  // DAT rebuilt from a leaf walk.
  // Deletions (including update fallbacks) resolved through the DAT
  // without a descent.
  std::atomic<uint64_t> delete_bottom_up{0};

  // One per ChooseSubtree call: a record routed one level down.
  std::atomic<uint64_t> choose_subtree_calls{0};
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> forced_reinserts{0};  // R* forced-reinsertion rounds.
  // Entries those rounds re-routed.
  std::atomic<uint64_t> reinserted_entries{0};
  // Entries orphaned by node dissolution.
  std::atomic<uint64_t> orphaned_entries{0};
  std::atomic<uint64_t> purged_entries{0};   // Expired entries lazily dropped.
  std::atomic<uint64_t> purged_subtrees{0};  // Subtrees dropped by the purge.
  // Pages touched answering queries.
  std::atomic<uint64_t> nodes_visited_search{0};
  // Node pages decoded into a Node. Search and NearestNeighbors read
  // through a NodeView instead and add none.
  std::atomic<uint64_t> node_decodes{0};
  std::atomic<uint64_t> tpbr_recomputes{0};  // Stored-bound recomputations.
  std::atomic<uint64_t> horizon_retunes{0};  // UI estimate recomputations.
  std::atomic<uint64_t> root_grows{0};
  std::atomic<uint64_t> root_shrinks{0};

  // Node reads per tree level (index 0 = leaves; deeper levels clamp into
  // the last slot). Every node read, through a NodeView or a decode,
  // bumps exactly one of these, so the distribution shows where an access
  // pattern actually lands — e.g. a DAT-served update workload reads
  // leaves almost exclusively while a descent-heavy one climbs the upper
  // levels.
  static constexpr int kMaxTrackedLevels = 12;
  std::atomic<uint64_t> level_reads[kMaxTrackedLevels] = {};

  // Distribution of buffer-boundary I/Os and wall time per operation.
  obs::Histogram insert_io{obs::IoCountBounds()};
  obs::Histogram delete_io{obs::IoCountBounds()};
  obs::Histogram search_io{obs::IoCountBounds()};
  obs::Histogram update_io{obs::IoCountBounds()};
  obs::Histogram insert_latency_us{obs::LatencyBoundsUs()};
  obs::Histogram delete_latency_us{obs::LatencyBoundsUs()};
  obs::Histogram search_latency_us{obs::LatencyBoundsUs()};
  obs::Histogram update_latency_us{obs::LatencyBoundsUs()};
  obs::Histogram nn_latency_us{obs::LatencyBoundsUs()};

  // The one list of each member type: Reset walks both (plus
  // level_reads), and Tree::RegisterMetrics binds each entry as
  // `ops.<name>`.
  static constexpr obs::NamedField<TreeOpStats, std::atomic<uint64_t>>
      kCounters[] = {{"inserts", &TreeOpStats::inserts},
                     {"deletes", &TreeOpStats::deletes},
                     {"delete_misses", &TreeOpStats::delete_misses},
                     {"searches", &TreeOpStats::searches},
                     {"nn_searches", &TreeOpStats::nn_searches},
                     {"updates", &TreeOpStats::updates},
                     {"update_fast", &TreeOpStats::update_fast},
                     {"update_fast_propagations",
                      &TreeOpStats::update_fast_propagations},
                     {"update_fallback", &TreeOpStats::update_fallback},
                     {"group_update_batches",
                      &TreeOpStats::group_update_batches},
                     {"dat_hits", &TreeOpStats::dat_hits},
                     {"dat_misses", &TreeOpStats::dat_misses},
                     {"dat_rebuilds", &TreeOpStats::dat_rebuilds},
                     {"delete_bottom_up", &TreeOpStats::delete_bottom_up},
                     {"choose_subtree_calls",
                      &TreeOpStats::choose_subtree_calls},
                     {"splits", &TreeOpStats::splits},
                     {"forced_reinserts", &TreeOpStats::forced_reinserts},
                     {"reinserted_entries", &TreeOpStats::reinserted_entries},
                     {"orphaned_entries", &TreeOpStats::orphaned_entries},
                     {"purged_entries", &TreeOpStats::purged_entries},
                     {"purged_subtrees", &TreeOpStats::purged_subtrees},
                     {"nodes_visited_search",
                      &TreeOpStats::nodes_visited_search},
                     {"node_decodes", &TreeOpStats::node_decodes},
                     {"tpbr_recomputes", &TreeOpStats::tpbr_recomputes},
                     {"horizon_retunes", &TreeOpStats::horizon_retunes},
                     {"root_grows", &TreeOpStats::root_grows},
                     {"root_shrinks", &TreeOpStats::root_shrinks}};
  static constexpr obs::NamedField<TreeOpStats, obs::Histogram>
      kHistograms[] = {{"insert_io", &TreeOpStats::insert_io},
                       {"delete_io", &TreeOpStats::delete_io},
                       {"search_io", &TreeOpStats::search_io},
                       {"update_io", &TreeOpStats::update_io},
                       {"insert_latency_us", &TreeOpStats::insert_latency_us},
                       {"delete_latency_us", &TreeOpStats::delete_latency_us},
                       {"search_latency_us", &TreeOpStats::search_latency_us},
                       {"update_latency_us", &TreeOpStats::update_latency_us},
                       {"nn_latency_us", &TreeOpStats::nn_latency_us}};

  void Reset() {
    for (const auto& [name, counter] : kCounters) {
      (this->*counter).store(0, std::memory_order_relaxed);
    }
    for (std::atomic<uint64_t>& c : level_reads) {
      c.store(0, std::memory_order_relaxed);
    }
    for (const auto& [name, histogram] : kHistograms) {
      (this->*histogram).Reset();
    }
  }
};

// Builds the canonical (float-exact) record for a moving point whose
// position `pos` and velocity `vel` were observed at time `t_obs` and whose
// information expires at `t_exp`. Both the index and any external copy of
// the record (needed later to delete/update the object) must use this
// canonical form so that records round-trip through 32-bit page storage
// exactly.
template <int kDims>
Tpbr<kDims> MakeMovingPoint(const Vec<kDims>& pos, const Vec<kDims>& vel,
                            Time t_obs, Time t_exp);

// Whether two canonical moving-point records (MakeMovingPoint) are the
// same record. A degenerate TPBR is fully determined by its reference
// position, lower velocity, and expiry, so exact equality of those is the
// record identity Delete, Update, and the tiered index match on.
template <int kDims>
bool SameRecord(const Tpbr<kDims>& a, const Tpbr<kDims>& b) {
  if (a.t_exp != b.t_exp) return false;
  for (int d = 0; d < kDims; ++d) {
    if (a.lo[d] != b.lo[d] || a.vlo[d] != b.vlo[d]) return false;
  }
  return true;
}

template <int kDims>
class Tree {
 public:
  // Creates a fresh index in `file` (which must be empty) or re-opens the
  // index previously persisted in it. `file` must outlive the tree. The
  // configuration must match the one the index was created with.
  //
  // Fails if the device errors or the persisted metadata is unrecoverable
  // (both meta slots damaged, or the root page fails validation). A crash
  // between commits is not an error: the newest valid meta slot — the
  // state as of the last completed commit — is recovered.
  static StatusOr<std::unique_ptr<Tree>> Open(const TreeConfig& config,
                                              PageFile* file);

  // Convenience constructor for memory-backed use where open failure is a
  // programming error: as Open(), but aborts (with the error reported) on
  // failure.
  Tree(const TreeConfig& config, PageFile* file);

  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;

  // Commits on close when a mutation changed the tree since its last
  // commit (best effort; failures are reported to stderr — callers that
  // must observe them call Commit() themselves first). A tree that was
  // only opened and queried writes nothing.
  ~Tree();

  // Durably persists the current state: flushes dirty nodes, publishes
  // deferred page frees, writes the metadata (epoch + root + height +
  // free list) to the alternating meta slot, and syncs the device. With
  // TreeConfig::crash_consistent every operation commits automatically;
  // otherwise state reaches the device on flushes and close, and only
  // Commit() makes it crash-safe.
  Status Commit();

  // Inserts a canonical moving-point record (see MakeMovingPoint). `now`
  // must be non-decreasing across operations.
  void Insert(ObjectId oid, const Tpbr<kDims>& point, Time now);

  // Bulk-loads an empty tree with canonical moving-point records using a
  // sort-tile-recursive packing of the positions at `now`, building the
  // index bottom-up at roughly `fill` node occupancy (leaving headroom
  // for subsequent inserts). Orders of magnitude faster than repeated
  // Insert for initial population; the resulting tree satisfies all
  // structural invariants and answers queries identically.
  struct BulkRecord {
    ObjectId oid;
    Tpbr<kDims> point;
  };
  void BulkLoad(std::vector<BulkRecord> records, Time now,
                double fill = 0.7);

  // Deletes the entry for `oid` whose record equals `point` (the record
  // from the object's most recent insertion). Returns false if no such
  // live entry exists — in particular if it already expired, matching the
  // paper's semantics ("the regular search procedure does not see expired
  // entries"). With `see_expired` the search descends irrespective of
  // expiration, which the scheduled-deletion variants require.
  [[nodiscard]] bool Delete(ObjectId oid, const Tpbr<kDims>& point, Time now,
                            bool see_expired = false);

  // Replaces `oid`'s record `old_record` with `new_record` in one
  // operation — the bottom-up fast path for the update-dominated steady
  // state where every object periodically re-reports its position. It is
  // a GroupUpdate of this one request (the same body, pages and I/O),
  // counted as an update, not a batch. The direct-access table pins the
  // leaf holding the old record without a descent; when the new record
  // is still covered by the leaf's parent-facing bound the replacement
  // is a single leaf write (bounds are re-propagated up the parent chain
  // only if the leaf's recorded expiry must grow), otherwise it degrades
  // to a localized delete plus a regular insert. Equivalent to
  // Delete(oid, old_record) followed by Insert(oid, new_record); returns
  // whether the old record was found (the new record is inserted either
  // way). Both records must be canonical (MakeMovingPoint).
  [[nodiscard]] bool Update(ObjectId oid, const Tpbr<kDims>& old_record,
                            const Tpbr<kDims>& new_record, Time now);

  // One pending position report for GroupUpdate: a re-report replacing
  // `old_record`, or (has_old_record == false) a fresh object, whose
  // `old_record` is ignored.
  struct UpdateRequest {
    ObjectId oid;
    Tpbr<kDims> old_record;
    Tpbr<kDims> new_record;
    bool has_old_record = true;
  };

  // Applies a batch of reports as one mutation (DESIGN.md §10): one
  // exclusive epoch, one write-back (one commit in crash-consistent
  // mode), through the body Update runs for one request. Tier-1
  // replacements share one read-modify-write per DAT-pinned leaf. The
  // rest run in batch order on in-memory node copies: a tier-2
  // replacement stays in its leaf, any other old record leaves its leaf.
  // Those changes settle first; then the new and fresh records are
  // routed top-down once and settle the same way, each settle storing
  // and re-bounding the nodes it touched once, bottom-up. result[i] is
  // what Update would have returned for requests[i] (true for a fresh
  // object). Requests for the same oid are applied in batch order.
  [[nodiscard]] std::vector<bool> GroupUpdate(
      const std::vector<UpdateRequest>& requests, Time now);

  // Reports the ids of all live objects whose trajectories intersect the
  // query. The query's time interval must not precede the time of the
  // last update operation. (With expire_entries == false — the TPR-tree —
  // expired objects are reported too; the paper calls these false drops
  // and filters them outside the index.)
  void Search(const Query<kDims>& query, std::vector<ObjectId>* out);

  // Reports the (up to) k live objects whose predicted positions at time
  // `t` are nearest to `point`, ordered by ascending distance (ties by
  // object id). A natural extension beyond the paper's three query types
  // (location-based services ask "who is closest?" constantly); uses
  // best-first branch-and-bound over the time-parameterized bounding
  // rectangles evaluated at `t`.
  void NearestNeighbors(const Vec<kDims>& point, Time t, int k,
                        std::vector<ObjectId>* out);

  // Distance-reporting variant: the same best-first search, but each
  // result carries its exact squared distance at time `t`. A tiered
  // index merges these with candidates from an in-memory live tier by
  // (distance, oid) without recomputing tree distances. Objects for
  // which `skip` returns true are passed over and do not count toward k,
  // so the answer is exactly the k nearest objects that are not skipped
  // (the tiered index skips its superseded tree copies). `skip` is called
  // at most once per live leaf entry the search reaches, and must not
  // call back into this tree.
  struct NnResult {
    ObjectId oid;
    double dist_sq;
  };
  void NearestNeighbors(const Vec<kDims>& point, Time t, int k,
                        std::vector<NnResult>* out,
                        const std::function<bool(ObjectId)>& skip = {});

  // --- Introspection --------------------------------------------------

  // Number of entries physically present at the leaf level (live entries
  // plus not-yet-purged expired ones).
  uint64_t leaf_entries() const {
    return level_counts_.empty() ? 0 : level_counts_[0];
  }

  // Number of entries at each level, leaf first.
  const std::vector<uint64_t>& level_counts() const { return level_counts_; }

  int height() const { return height_; }
  PageId root() const { return root_; }

  // Number of underfull nodes left in place by the orphan cap (see
  // TreeConfig::max_orphans). Monotone counter; the nodes themselves may
  // since have been re-balanced.
  uint64_t underfull_remnants() const { return underfull_remnants_; }
  const TreeConfig& config() const { return config_; }
  const NodeCodec<kDims>& codec() const { return codec_; }
  const HorizonEstimator& horizon() const { return horizon_; }

  // Pages allocated in the underlying file (tree nodes + the two meta
  // slots).
  uint64_t PagesUsed() const { return file_->allocated_pages(); }

  // Epoch of the most recent durable commit (monotone; slot = epoch & 1).
  uint64_t meta_epoch() const { return meta_epoch_; }

  // Meta slots found damaged (bad checksum/magic/epoch parity) while
  // opening — 1 after recovering from a torn meta write, 0 on a clean
  // open.
  int meta_slot_errors() const { return meta_slot_errors_; }

  // Buffer-manager I/O counters (the paper's performance metric).
  const IoStats& io_stats() const { return buffer_.stats(); }
  uint64_t TotalIo() const { return io_stats().Total(); }
  void ResetIoStats() { buffer_.ResetStats(); }

  // The tree's buffer pool (hot-frame heatmap, pin accounting). Safe to
  // call concurrently with operations; the pool has its own mutex.
  const BufferManager& buffer() const { return buffer_; }

  // Tree-level operation telemetry.
  const TreeOpStats& op_stats() const { return op_stats_; }
  void ResetOpStats() { op_stats_.Reset(); }

  // Attaches a per-operation trace sink (nullptr detaches). The tracer
  // must outlive the tree or be detached first; the tree does not own it.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  // Registers this tree's telemetry — operation counters and histograms,
  // buffer-pool counters and heat gauges, device counters and latency
  // histograms, per-level read counters, and structure/horizon gauges —
  // under `prefix` (e.g. "tree."). The bindings are owner-scoped: they
  // are removed automatically when the tree is destroyed (so a registry
  // outliving the tree never snapshots a dangling pointer), and a tree
  // holds at most one live registration — registering into a second
  // registry unbinds the first. Gauges reading mutable tree structure
  // take the epoch lock shared, so a background monitor may sample while
  // writers run.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

  // Visits every node reachable from the root under the exclusive epoch
  // (DESIGN.md §8): the one walk behind the expired-entry accounting, the
  // direct-access-table rebuild on open, CollectStats and the partition
  // merge. Pages are read through the buffer pool (measured I/O) with the
  // codec's checked decode, depth first: children are pushed in entry
  // order and the last one is popped first. Returns the first fetch error,
  // or kCorruption for a page whose header fails the check, and visits
  // nothing further. `visit` must not call back into the tree.
  using NodeVisitor = std::function<void(PageId, const Node<kDims>&)>;
  Status ForEachNode(const NodeVisitor& visit) EXCLUDES(epoch_mu_);

  // Reads a node (counted as I/O like any other access). Test hook; takes
  // its own shared epoch, so callers must not already hold it.
  Node<kDims> ReadNodeForTest(PageId id) EXCLUDES(epoch_mu_) {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return ReadNode(id);
  }

  // Snapshot of the direct-access table. Test hook; takes its own shared
  // epoch.
  std::vector<verify::DatSnapshotEntry> DatSnapshotForTest() const
      EXCLUDES(epoch_mu_);

  // Whether a leaf holds a record of `oid`, live or expired but not yet
  // purged: one direct-access-table lookup, no I/O. Takes its own shared
  // epoch.
  bool HoldsObject(ObjectId oid) const EXCLUDES(epoch_mu_) {
    sched::ReaderMutexLock epoch(&epoch_mu_);
    return dat_.Find(oid) != nullptr;
  }

  // Fraction of physically present leaf entries that are expired at `now`.
  // The paper's lazy purge keeps this small. The walk is ForEachNode's,
  // through the buffer pool, so it counts in io_stats, level_reads and
  // node_decodes like any other read. A page the walk cannot read fails
  // the call with that page's status.
  StatusOr<double> ExpiredLeafFraction(Time now);

  // Runs the full invariant catalog (verify::TreeVerifier) over this
  // tree's flushed state and reports every violation as a typed finding —
  // TPBR conservativeness, expiry monotonicity, fan-out/occupancy, page
  // checksums, canonical records, level bookkeeping, page accounting.
  // `now` is the current time: entries expired before it may legally
  // linger, so their containment is not required. Never aborts; an empty
  // report means the tree is sound. This is the check every front-end
  // shares (IndexFrontEnd). Unmeasured device I/O (the walk bypasses the
  // buffer pool, so bit rot under it surfaces). With the
  // REXP_PARANOID build option this runs automatically after every
  // mutation (sampled via REXP_PARANOID_SAMPLE=N) and aborts on findings.
  // `visit` sees every live leaf record the walk decodes.
  using LiveRecordVisitor =
      typename verify::TreeVerifier<kDims>::LiveRecordVisitor;
  verify::Report Verify(Time now, const LiveRecordVisitor& visit = {});

 private:
  struct PrivateTag {};

  struct Pending {
    int level;
    NodeEntry<kDims> entry;
  };
  // The nodes one structural write changes — a single insertion,
  // removal or update, or a whole GroupUpdate — keyed (level, page id) so
  // map order is bottom-up: each is decoded once (BatchNode), changed in
  // memory, then stored and re-bounded once (SettleBatchNode).
  using Batch = std::map<std::pair<int, PageId>, Node<kDims>>;

  Tree(const TreeConfig& config, PageFile* file, PrivateTag);

  // Second-phase initialization shared by Open and the aborting
  // constructor: creates the meta slots and the initial commit in an
  // empty file, or recovers from the newest valid meta slot otherwise.
  Status Init();

  // --- node I/O ---
  // Reads run under at least a shared epoch (search threads in parallel);
  // everything that mutates structure requires the exclusive epoch.
  Node<kDims> ReadNode(PageId id) REQUIRES_SHARED(epoch_mu_);
  // ReadNode into caller-owned storage (reuses `out`'s entry capacity).
  void ReadNodeInto(PageId id, Node<kDims>* out) REQUIRES_SHARED(epoch_mu_);
  // Counts a read of a node at `level`, decoded or through a NodeView.
  void CountNodeRead(int level, bool decoded);
  void WriteNode(PageId id, const Node<kDims>& node) REQUIRES(epoch_mu_);
  // Persists `node` over the page that held it. In-place write (returns
  // `id`) normally; with crash_consistent the old page is freed into the
  // deferred quarantine and the node lands on a fresh page (copy-on-
  // write), whose id is returned.
  PageId StoreNode(PageId id, const Node<kDims>& node) REQUIRES(epoch_mu_);
  PageId AllocNode(const Node<kDims>& node) REQUIRES(epoch_mu_);
  void FreeNode(PageId id) REQUIRES(epoch_mu_);
  void FreeSubtree(PageId id, int level) REQUIRES(epoch_mu_);

  // --- expiration ---
  // Drops expired entries (freeing subtrees of expired internal entries).
  // An internal entry is kept, even if its recorded expiration lapsed,
  // when its child is `skip_id` or a node `batch` holds: the caller is
  // changing that child and re-bounds it when it settles.
  void PurgeExpired(Node<kDims>* node, Time now,
                    PageId skip_id = kInvalidPageId,
                    const Batch* batch = nullptr) REQUIRES(epoch_mu_);

  // --- mutation scope ---
  // Runs `body` (returning whether the operation found its target) as
  // one Insert/Delete/Update/GroupUpdate: resets the forced-reinsert
  // budget, opens the span named after `op`, writes back (commits in
  // crash-consistent mode), records the I/O and latency histograms, the
  // span's closing fields and one flight record for `subject` (the oid,
  // or the batch size), then runs the paranoid check. Returns the body's
  // result.
  template <typename Body>
  bool RunMutation(obs::FlightOp op, uint64_t subject, Time now, Body&& body)
      REQUIRES(epoch_mu_);
  // Feeds one report (an insertion or an update) to the horizon estimator
  // and traces the UI retune it may complete.
  void NoteReport(Time now) REQUIRES(epoch_mu_);

  // --- insertion machinery ---
  // Routes one entry to its level (RouteBatch) and settles it.
  void InsertPending(Pending pending, Time now) REQUIRES(epoch_mu_);
  // The child of `node` to route `region` into, counted and traced as
  // one descent step. *what_if (if given) receives the chosen child's
  // bound grown by `region` — unchanged when it was the sole candidate.
  int ChooseSubtree(const Node<kDims>& node, const Tpbr<kDims>& region,
                    Time now, Tpbr<kDims>* what_if = nullptr)
      REQUIRES(epoch_mu_);
  // The settle step's store of one node (already purged and modified)
  // that was at page `id`: forced reinsertion or a split on overflow,
  // dissolution into orphans on underflow, else a plain store; the root
  // also grows or shrinks. Returns where the node was stored
  // (kInvalidPageId when dissolved) and sets *extra to a split sibling's
  // parent entry (id kInvalidPageId when there is none).
  PageId SettleNode(PageId id, bool is_root, Node<kDims> node, Time now,
                    NodeEntry<kDims>* extra) REQUIRES(epoch_mu_);
  // Points `parent`'s entry for `child` at where SettleNode stored it,
  // bounded as stored (erased when `stored` is kInvalidPageId), and
  // appends the split sibling's entry `extra`.
  void ReattachChild(Node<kDims>* parent, PageId child, PageId stored,
                     const NodeEntry<kDims>& extra, Time now)
      REQUIRES(epoch_mu_);
  // Entries a forced reinsertion takes out of a node of `total` entries.
  int ReinsertCount(int total) const;
  Node<kDims> SplitNode(Node<kDims>* node, Time now) REQUIRES(epoch_mu_);
  void RemoveForReinsert(Node<kDims>* node, Time now) REQUIRES(epoch_mu_);
  void GrowRoot(PageId left, PageId right, Time now) REQUIRES(epoch_mu_);
  // Allocates `root` as the new root one level above the old one (or as
  // the first root of an empty tree): sets root_, height_ and the level
  // count of the new root's entries, then pins it.
  void InstallRoot(const Node<kDims>& root) REQUIRES(epoch_mu_);
  // Collapses single-child roots; `root` is the root node as just stored.
  void MaybeShrinkRoot(Node<kDims> root) REQUIRES(epoch_mu_);
  void EnsureHeightFor(int level, Time now) REQUIRES(epoch_mu_);
  void DrainPending(Time now) REQUIRES(epoch_mu_);

  // --- the batch: every structural write (DESIGN.md §10) ---
  // The batch's copy of the node at page `id` on `level`, decoded on
  // first use. Callers purge it.
  Node<kDims>& BatchNode(Batch* batch, int level, PageId id)
      REQUIRES(epoch_mu_);
  // Routes `records`, entries of `target_level`, from the root down to
  // the batch's copies of nodes on that level: ChooseSubtree per record
  // against each node as decoded once, the chosen entry taking the
  // record's what-if bound for the records after it. A target node is
  // purged before its records join it and settled as soon as its group
  // is in. On an empty tree the first record becomes the root (paper
  // CT3.1); a tree too low for `target_level` grows first.
  void RouteBatch(Batch* batch, int target_level,
                  std::span<const NodeEntry<kDims>> records, Time now)
      REQUIRES(epoch_mu_);
  // RouteBatch's descent from the node at page `id` on `level`.
  void RouteBatchFrom(Batch* batch, int level, PageId id, int target_level,
                      std::span<const NodeEntry<kDims>> records, Time now)
      REQUIRES(epoch_mu_);
  // The settle step, the paper's CondenseTree/PropagateUp for one node:
  // takes the node at `it` out of the batch and stores it through
  // SettleNode; then, unless it was the root (`parent` kInvalidPageId),
  // purges its parent's batch copy (PurgeExpired, skipping the children
  // in flight) and re-bounds the node into it through ReattachChild.
  // Entries past what one split can hold go to the pending list first.
  void SettleBatchNode(Batch* batch, typename Batch::iterator it,
                       PageId parent, Time now) REQUIRES(epoch_mu_);
  // Settles every node left in the batch, lowest level first, so each
  // touched node is stored and re-bounded once, after its children.
  void SettleBatch(Batch* batch, Time now) REQUIRES(epoch_mu_);

  // --- bounds ---
  // The TPBR strategy used for grouping decisions (GroupingPolicy).
  TpbrKind GroupingKind() const;
  // The stored bounding rectangle of a node (configured TPBR kind).
  // Writer-only (uses the bound_scratch_ writer scratch).
  Tpbr<kDims> ComputeBound(const Node<kDims>& node, Time now)
      REQUIRES(epoch_mu_);
  // The what-if bound used by insertion decisions (conservative union when
  // the configuration ignores expiration times).
  Tpbr<kDims> DecisionBound(const Tpbr<kDims>& base, const Tpbr<kDims>& add,
                            Time now, int parent_level) REQUIRES(epoch_mu_);
  double TpbrHorizonForLevel(int parent_level) const;

  // --- record removal ---
  // Removes `oid`'s live leaf record equal to `point` (any leaf record
  // with `see_expired`) from the batch's copy of its leaf; the caller
  // settles the batch. Resolved at the leaf when the DAT pins the
  // object's single physical copy, by an overlap-guided descent
  // otherwise. Returns whether the record was found.
  bool RemoveRecord(ObjectId oid, const Tpbr<kDims>& point, Time now,
                    bool see_expired, Batch* batch) REQUIRES(epoch_mu_);
  bool DeleteRecurse(PageId id, int level, ObjectId oid,
                     const Tpbr<kDims>& point, Time now, bool see_expired,
                     Batch* batch) REQUIRES(epoch_mu_);
  // Index of `leaf`'s entry for (oid, point) under SameRecord, skipping
  // expired entries unless `see_expired`; -1 if none.
  int FindLeafMatch(const Node<kDims>& leaf, ObjectId oid,
                    const Tpbr<kDims>& point, Time now,
                    bool see_expired) const;
  // Finds (oid, point) in the leaf at page `id` — the batch's copy if it
  // holds one (it may already have lost or replaced entries), else
  // `*decoded`, the leaf as just read, which joins the batch on a match
  // — erases it there, then purges the copy. Returns whether the record
  // was found; a miss leaves the batch as it was.
  bool EraseLeafEntry(Batch* batch, PageId id, Node<kDims>* decoded,
                      ObjectId oid, const Tpbr<kDims>& point, Time now,
                      bool see_expired) REQUIRES(epoch_mu_);

  // --- bottom-up updates (DESIGN.md §10) ---
  // Feeds the DAT and parent-pointer map from a node hitting the page
  // `id` — the single point every entry placement flows through.
  void NoteNodeStored(PageId id, const Node<kDims>& node)
      REQUIRES(epoch_mu_);
  // Releases DAT references for every leaf entry under a dropped subtree
  // or dissolved leaf.
  void ReleaseLeafRefs(const Node<kDims>& node) REQUIRES(epoch_mu_);
  // Rebuilds the DAT and parent map from a full walk (on re-open).
  Status RebuildDat() REQUIRES(epoch_mu_);
  // ForEachNode's body, for callers already holding the exclusive epoch.
  Status ForEachNodeLocked(const NodeVisitor& visit) REQUIRES(epoch_mu_);
  // Whether the parent map climbs from `leaf` to the root in exactly
  // height() - 1 steps. The settle step climbs that chain, so a change
  // at a DAT-pinned leaf requires it; on a broken chain the caller falls
  // back to a descent.
  bool ParentChainIntact(PageId leaf) const REQUIRES(epoch_mu_);
  // The bound `leaf`'s parent entry holds, found in `*parent`, which is
  // decoded unless it already holds that parent (page `*parent_id`, kept
  // current); null for the root or on a broken parent chain.
  const Tpbr<kDims>* ReadParentBound(PageId leaf, PageId* parent_id,
                                     Node<kDims>* parent)
      REQUIRES(epoch_mu_);
  // The in-place admission rule for replacing a record of `leaf` by `rec`
  // under the leaf's parent-facing `bound` (from ReadParentBound):
  // kInPlace — a leaf root, or `bound` covers `rec` over its whole
  // lifetime from `now` and outlives it (a tier-1 leaf write);
  // kPropagate — covered, but the parent's expiry must grow (tier 2);
  // kNone — not admissible in place.
  enum class Admission { kNone, kPropagate, kInPlace };
  Admission Admit(PageId leaf, const Tpbr<kDims>* bound,
                  const Tpbr<kDims>& rec, Time now) const;
  // The one update body, Update's and GroupUpdate's (DESIGN.md §10):
  // applies `requests` in batch order and leaves each one's result in
  // update_scratch_.results.
  void ApplyUpdates(std::span<const UpdateRequest> requests, Time now)
      REQUIRES(epoch_mu_);

  // Verify() body without taking the epoch lock (the paranoid hook runs
  // while the mutation still holds it exclusively).
  verify::Report VerifyLocked(Time now, const LiveRecordVisitor& visit = {})
      REQUIRES(epoch_mu_);

  // Post-mutation verification for REXP_PARANOID builds: runs
  // VerifyLocked every REXP_PARANOID_SAMPLE-th mutation (default: every
  // one) and aborts with the full report on any finding. Compiled to a
  // no-op otherwise.
  void ParanoidVerify(Time now) REQUIRES(epoch_mu_);

  // Bulk-load helper: packs `items` into nodes at `level` (sort-tile-
  // recursive order), returning the parent entries for the next level.
  std::vector<NodeEntry<kDims>> PackLevel(std::vector<NodeEntry<kDims>> items,
                                          int level, Time now, double fill)
      REQUIRES(epoch_mu_);

  // Recovers state from the newest valid meta slot (device reads bypass
  // the buffer). kCorruption if no slot is valid.
  Status LoadMeta() REQUIRES(epoch_mu_);
  Status PinRoot(PageId new_root) REQUIRES(epoch_mu_);

  // Commit body without taking the epoch lock; Insert/Delete/BulkLoad
  // call it while already holding the exclusive epoch (the lock is not
  // reentrant).
  Status CommitLocked() REQUIRES(epoch_mu_);

  // Single-writer / multi-reader epoch lock (DESIGN.md §8): structure-
  // modifying operations (Insert, BulkLoad, Delete, Commit, the invariant
  // checkers) hold it exclusive; Search and NearestNeighbors hold it
  // shared, so any number of queries run concurrently between updates.
  // Writer-preferring (sched::SharedMutex) so a continuous query stream
  // cannot starve updates. Acquired before any buffer access; never held
  // while waiting on a frame latch owned by another tree's pool.
  mutable sched::SharedMutex epoch_mu_{sched::LockRank::kTreeEpoch,
                                       "tree_epoch"};

  TreeConfig config_;
  PageFile* file_;
  BufferManager buffer_;
  NodeCodec<kDims> codec_;
  Rng rng_;
  HorizonEstimator horizon_;
  TreeOpStats op_stats_;
  obs::Tracer* tracer_ = nullptr;

  // Structure snapshot fields (root_, height_, level_counts_, meta_epoch_,
  // underfull_remnants_): mutated only under the exclusive epoch, but
  // deliberately NOT GUARDED_BY(epoch_mu_) — the public introspection
  // accessors (height(), root(), leaf_entries(), ...) are documented
  // unlocked snapshot reads, and locking them would risk a reentrant
  // shared acquisition deadlocking under writer preference when called
  // from code already inside an epoch. Racing readers see a stale but
  // well-formed value.
  PageId root_ = kInvalidPageId;
  PageId pinned_root_ = kInvalidPageId;
  int height_ = 0;  // Number of levels; root level = height_ - 1.
  std::vector<uint64_t> level_counts_;

  // Epoch of the last durable commit; the next commit writes epoch + 1 to
  // slot (epoch + 1) & 1 (the slot holding the *older* meta).
  uint64_t meta_epoch_ = 0;
  int meta_slot_errors_ = 0;
  // Set once Init() succeeds; the destructor only commits (i.e. writes to
  // the device) for a successfully opened tree.
  bool open_ok_ = false;
  // Set by every mutation, cleared by every durable commit. The
  // destructor commits only while it is set, so opening, querying and
  // closing an index leaves its file byte-identical.
  bool uncommitted_ GUARDED_BY(epoch_mu_) = false;

  // Per-operation state.
  std::vector<Pending> pending_ GUARDED_BY(epoch_mu_);
  // Bitmask: forced reinsert done at level.
  uint32_t reinserted_levels_ GUARDED_BY(epoch_mu_) = 0;

  // Bottom-up update state: oid → (leaf, copy count) and child page →
  // parent page, both maintained by the node-write hooks and rebuilt on
  // open. Mutated only under the exclusive epoch; gauges read it shared.
  DirectAccessTable dat_ GUARDED_BY(epoch_mu_);
  U32HashMap<PageId> parent_of_ GUARDED_BY(epoch_mu_);

  // Writer-side scratch (exclusive epoch): reused across operations so
  // the Delete/Update hot paths run allocation-free in steady state.
  std::vector<Node<kDims>> delete_scratch_
      GUARDED_BY(epoch_mu_);  // One slot per tree level.
  // ApplyUpdates' per-batch state. `leaf` is also RemoveRecord's decoded
  // leaf.
  static constexpr int8_t kUnapplied = -1;
  struct UpdateScratch {
    struct Target {
      PageId parent, leaf;
      size_t request;
    };
    std::vector<Target> order;        // Pass 1's pinned requests.
    std::vector<ObjectId> deferred;   // Pass 1: objects left to pass 2.
    std::vector<int8_t> results;      // kUnapplied, else 0 or 1.
    std::vector<NodeEntry<kDims>> routed;  // Pass 2's records to place.
    Node<kDims> leaf;
  };
  UpdateScratch update_scratch_ GUARDED_BY(epoch_mu_);
  // RouteBatchFrom's (child page, record) choices and the records routed
  // to one child, one slot per tree level.
  struct RouteScratch {
    std::vector<std::pair<PageId, size_t>> chosen;
    std::vector<NodeEntry<kDims>> group;
  };
  std::vector<RouteScratch> route_scratch_ GUARDED_BY(epoch_mu_);
  Node<kDims> fix_scratch_ GUARDED_BY(epoch_mu_);
  // ComputeBound's region list.
  std::vector<Tpbr<kDims>> bound_scratch_ GUARDED_BY(epoch_mu_);
  // ChooseSubtree's candidate children and their what-if scores.
  struct ScoredChild {
    int index = 0;
    double area_enlargement = 0;
    double area = 0;
    Tpbr<kDims> what_if;
  };
  std::vector<ScoredChild> choose_scratch_ GUARDED_BY(epoch_mu_);

  // Number of underfull nodes left in place because the orphan cap was
  // reached (each may later be re-balanced by another update). Snapshot-
  // read unlocked (see the comment above root_).
  uint64_t underfull_remnants_ = 0;

  // Mutations since open, driving the REXP_PARANOID sampling.
  uint64_t paranoid_mutations_ GUARDED_BY(epoch_mu_) = 0;

  // Registry bindings of the last RegisterMetrics call. Declared LAST so
  // it is destroyed FIRST: the bindings (which dereference the members
  // above) are removed before any of those members die. The destructor
  // body (Commit) runs before member destruction, so a monitor sampling
  // during teardown still reads live state under the epoch lock.
  mutable obs::ScopedRegistration metrics_registration_;
};

using RexpTree1 = Tree<1>;
using RexpTree2 = Tree<2>;
using RexpTree3 = Tree<3>;

}  // namespace rexp

#endif  // REXP_TREE_TREE_H_
