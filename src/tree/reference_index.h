// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// A brute-force moving-object index with the exact query semantics of the
// tree engine, used as the test oracle and by the examples to illustrate
// results. Records are canonical moving points (MakeMovingPoint); queries
// evaluate the same trajectory-vs-trapezoid predicate the tree uses for
// leaf entries, so agreement is exact (no floating-point divergence).

#ifndef REXP_TREE_REFERENCE_INDEX_H_
#define REXP_TREE_REFERENCE_INDEX_H_

#include <algorithm>
#include <vector>

#include "common/query.h"
#include "common/types.h"
#include "tpbr/intersect.h"
#include "tpbr/tpbr.h"

namespace rexp {

template <int kDims>
class ReferenceIndex {
 public:
  // `expire_entries` mirrors TreeConfig::expire_entries: false reproduces
  // the TPR-tree's semantics (expiration ignored, false drops possible).
  explicit ReferenceIndex(bool expire_entries = true)
      : expire_entries_(expire_entries) {}

  void Insert(ObjectId oid, const Tpbr<kDims>& point) {
    records_.push_back(Record{oid, point});
  }

  // Mirrors Tree::Delete: fails on expired entries unless `see_expired`.
  bool Delete(ObjectId oid, const Tpbr<kDims>& point, Time now,
              bool see_expired = false) {
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (r.oid != oid) continue;
      if (expire_entries_ && !see_expired && r.point.t_exp < now) continue;
      if (!SamePoint(r.point, point)) continue;
      records_[i] = records_.back();
      records_.pop_back();
      return true;
    }
    return false;
  }

  // Mirrors Tree::Update: removes the live record equal to `old_point`
  // (reporting whether one existed) and inserts `new_point` either way.
  bool Update(ObjectId oid, const Tpbr<kDims>& old_point,
              const Tpbr<kDims>& new_point, Time now) {
    bool found = Delete(oid, old_point, now);
    Insert(oid, new_point);
    return found;
  }

  void Search(const Query<kDims>& query, std::vector<ObjectId>* out) const {
    for (const Record& r : records_) {
      Time expiry = expire_entries_ ? r.point.t_exp : kNeverExpires;
      if (Intersects(r.point, query, expiry)) out->push_back(r.oid);
    }
  }

  // Brute-force k-nearest-neighbors at time t (mirrors
  // Tree::NearestNeighbors: ascending distance, ties by object id).
  void NearestNeighbors(const Vec<kDims>& point, Time t, int k,
                        std::vector<ObjectId>* out) const {
    std::vector<std::pair<double, ObjectId>> candidates;
    for (const Record& r : records_) {
      if (expire_entries_ && r.point.t_exp < t) continue;
      double d2 = 0;
      for (int d = 0; d < kDims; ++d) {
        double delta = r.point.LoAt(d, t) - point[d];
        d2 += delta * delta;
      }
      candidates.push_back({d2, r.oid});
    }
    std::sort(candidates.begin(), candidates.end());
    out->clear();
    for (int i = 0; i < k && i < static_cast<int>(candidates.size()); ++i) {
      out->push_back(candidates[i].second);
    }
  }

  // Drops records expired before `now` (the tree does this lazily; calling
  // this keeps the oracle's memory bounded without changing any query
  // answer).
  void Vacuum(Time now) {
    if (!expire_entries_) return;
    std::erase_if(records_,
                  [now](const Record& r) { return r.point.t_exp < now; });
  }

  // Physically removes every record whose expiration time is <= now,
  // regardless of the expiration mode — mirroring a scheduled-deletion
  // queue that fires events when they come due (used as the oracle for
  // the TPR-tree-with-scheduled-deletions variant, whose queries do not
  // filter by expiration but whose store is actively cleaned).
  void RemoveExpiredUpTo(Time now) {
    std::erase_if(records_,
                  [now](const Record& r) { return r.point.t_exp <= now; });
  }

  size_t size() const { return records_.size(); }

 private:
  struct Record {
    ObjectId oid;
    Tpbr<kDims> point;
  };

  // Its own copy of SameRecord (tree/tree.h) on purpose: the oracle
  // shares no code with the indexes it checks.
  static bool SamePoint(const Tpbr<kDims>& a, const Tpbr<kDims>& b) {
    if (a.t_exp != b.t_exp) return false;
    for (int d = 0; d < kDims; ++d) {
      if (a.lo[d] != b.lo[d] || a.vlo[d] != b.vlo[d]) return false;
    }
    return true;
  }

  bool expire_entries_;
  std::vector<Record> records_;
};

}  // namespace rexp

#endif  // REXP_TREE_REFERENCE_INDEX_H_
