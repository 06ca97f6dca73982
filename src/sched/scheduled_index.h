// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Index-with-scheduled-deletions: the alternative design of paper Section 3
// against which the R^exp-tree's lazy strategy is evaluated. A B+-tree on
// (expiration time, object id) holds one scheduled-deletion event per
// expiring object; events that come due are executed against the primary
// tree before every operation. The B-tree entry carries the object's
// canonical record so the deletion can locate it in the tree.
//
// The paper's accounting: "the amortized cost of introducing one expiring
// object consists of four terms — insert into the TPR-tree, insert the
// event into the B-tree, remove the event from the B-tree, perform the
// scheduled deletion in the TPR-tree" — and its figures report the tree
// cost with the B-tree cost shown separately. The two cost streams are
// exposed on separate I/O counters here for the same reason. The check
// covers both as well: Verify(now) returns one verify::Report, the
// tree's findings plus the queue's under the label "queue: ".

#ifndef REXP_SCHED_SCHEDULED_INDEX_H_
#define REXP_SCHED_SCHEDULED_INDEX_H_

#include <cstring>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/query.h"
#include "common/types.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "storage/page_file.h"
#include "tree/tree.h"
#include "verify/verifier.h"

namespace rexp {

template <int kDims>
class ScheduledIndex {
 public:
  // `tree_file` and `queue_file` must be distinct, empty, and outlive the
  // index. The queue gets its own buffer pool (the paper treats B-tree
  // I/O as a separate cost stream).
  ScheduledIndex(const TreeConfig& config, PageFile* tree_file,
                 PageFile* queue_file, uint32_t queue_buffer_frames = 50)
      : tree_(config, tree_file),
        queue_(queue_file, queue_buffer_frames, kValueSize) {}

  // Executes all scheduled deletions due at or before `now`; returns how
  // many fired. Called automatically by Insert/Delete; Search takes no
  // clock, so callers pump before it. Exposed so a measurement harness
  // can attribute the I/O of due deletions separately from the
  // triggering operation.
  uint64_t PumpDue(Time now) {
    uint64_t fired = 0;
    BTree::Key key;
    uint8_t value[kValueSize];
    while (queue_.PopFirstUpTo(static_cast<float>(now), &key, value)) {
      Tpbr<kDims> point = DecodeRecord(key, value);
      // The entry may already be gone (e.g. lazily purged); that is fine.
      (void)tree_.Delete(key.id, point, now, /*see_expired=*/true);
      ++fired;
    }
    scheduled_deletions_fired_ += fired;
    if (fired > 0 && tree_.tracer() != nullptr) {
      tree_.tracer()->Emit("scheduled_deletions",
                           {{"now", now},
                            {"fired", static_cast<double>(fired)}});
    }
    return fired;
  }

  void Insert(ObjectId oid, const Tpbr<kDims>& point, Time now) {
    PumpDue(now);
    tree_.Insert(oid, point, now);
    if (IsFiniteTime(point.t_exp)) {
      uint8_t value[kValueSize];
      EncodeRecord(point, value);
      queue_.Insert(BTree::Key{static_cast<float>(point.t_exp), oid}, value);
    }
  }

  bool Delete(ObjectId oid, const Tpbr<kDims>& point, Time now) {
    PumpDue(now);
    if (IsFiniteTime(point.t_exp)) {
      // Absent is fine: the scheduled deletion may have fired already.
      (void)queue_.Delete(BTree::Key{static_cast<float>(point.t_exp), oid});
    }
    return tree_.Delete(oid, point, now);
  }

  // Answers from the tree as of the last pump: PumpDue(now) first.
  void Search(const Query<kDims>& query, std::vector<ObjectId>* out) {
    tree_.Search(query, out);
  }

  Tree<kDims>& tree() { return tree_; }
  BTree& queue() { return queue_; }

  // The paper's tree-side metrics; the queue's I/O is the separate
  // queue().io_stats() stream.
  uint64_t TotalIo() const { return tree_.TotalIo(); }
  uint64_t PagesUsed() const { return tree_.PagesUsed(); }
  StatusOr<double> ExpiredLeafFraction(Time now) {
    return tree_.ExpiredLeafFraction(now);
  }

  // Tree::Verify with the queue's BTree::Verify folded in, each queue
  // finding's detail prefixed "queue: ". Never aborts.
  verify::Report Verify(Time now) {
    verify::Report report = tree_.Verify(now);
    verify::MergeReport(queue_.Verify(), "queue", verify::VerifyOptions{},
                        &report);
    return report;
  }

  // Attaches a trace sink to the primary tree (scheduled-deletion events
  // are emitted through the same sink).
  void set_tracer(obs::Tracer* tracer) { tree_.set_tracer(tracer); }

  // Registers both cost streams: the primary tree under
  // `prefix` + "tree." and the event queue under `prefix` + "queue.",
  // plus the scheduler's own counter. All bindings are owner-scoped and
  // removed automatically when the index is destroyed.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const {
    tree_.RegisterMetrics(registry, prefix + "tree.");
    queue_.RegisterMetrics(registry, prefix + "queue.");
    metrics_registration_.Reset();
    const obs::OwnerId owner = registry->NewOwner();
    registry->AddCounter(prefix + "sched.deletions_fired",
                         &scheduled_deletions_fired_, owner);
    metrics_registration_ = registry->MakeScoped(owner);
  }

 private:
  static constexpr uint32_t kValueSize = 2 * kDims * 4;  // ref pos + vel.

  static void EncodeRecord(const Tpbr<kDims>& point, uint8_t* value) {
    for (int d = 0; d < kDims; ++d) {
      float ref = static_cast<float>(point.lo[d]);
      float vel = static_cast<float>(point.vlo[d]);
      std::memcpy(value + d * 8, &ref, 4);
      std::memcpy(value + d * 8 + 4, &vel, 4);
    }
  }

  static Tpbr<kDims> DecodeRecord(const BTree::Key& key,
                                  const uint8_t* value) {
    Tpbr<kDims> point;
    for (int d = 0; d < kDims; ++d) {
      float ref, vel;
      std::memcpy(&ref, value + d * 8, 4);
      std::memcpy(&vel, value + d * 8 + 4, 4);
      point.lo[d] = point.hi[d] = ref;
      point.vlo[d] = point.vhi[d] = vel;
    }
    point.t_exp = key.t;
    return point;
  }

  Tree<kDims> tree_;
  BTree queue_;
  uint64_t scheduled_deletions_fired_ = 0;
  // Last member so the binding dies before the counter it reads.
  mutable obs::ScopedRegistration metrics_registration_;
};

}  // namespace rexp

#endif  // REXP_SCHED_SCHEDULED_INDEX_H_
